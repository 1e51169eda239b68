// The cycle engine's issue record: Simulator::last_packet() must describe
// exactly what the cycle issued. Every technique runs a four-program paper
// mix on the 4T paper machine through step() alone, and each cycle's record
// is checked against the machine's capacities, the technique's merge rule
// and the simulator's own counters.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/thread_context.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace vexsim {
namespace {

constexpr std::uint64_t kCycles = 4'000;

TEST(IssueRecord, RecordsExactlyWhatEachCycleIssued) {
  for (const Technique& t : Technique::kAll) {
    const MachineConfig cfg = MachineConfig::paper(4, t);
    const auto programs = wl::build_workload(wl::workload("lmhh"), cfg, 0.05);
    ASSERT_EQ(programs.size(), 4u);
    std::vector<std::unique_ptr<ThreadContext>> contexts;
    Simulator sim(cfg);
    for (int s = 0; s < 4; ++s) {
      contexts.push_back(std::make_unique<ThreadContext>(
          s, programs[static_cast<std::size_t>(s)]));
      sim.attach(s, contexts.back().get());
    }
    const bool cluster_merge = t.merge == MergeLevel::kCluster;

    std::uint64_t recorded_ops = 0;
    std::uint64_t multi_thread_cycles = 0;
    for (std::uint64_t cycle = 1; cycle <= kCycles; ++cycle) {
      sim.step();
      const ExecPacket& packet = sim.last_packet();
      const std::string where =
          std::string(t.name()) + " cycle " + std::to_string(cycle);
      recorded_ops += static_cast<std::uint64_t>(packet.op_count());

      std::array<ResourceUse, kMaxClusters> use{};
      std::array<std::uint32_t, kMaxClusters> slots_on{};
      std::uint32_t slots = 0;
      for (const SelectedOp& sel : packet.ops) {
        ASSERT_NE(sel.dec, nullptr) << where;
        ASSERT_GE(sel.hw_slot, 0) << where;
        ASSERT_LT(sel.physical_cluster, cfg.clusters) << where;
        const std::uint32_t bit = 1u << static_cast<unsigned>(sel.hw_slot);
        use[sel.physical_cluster].add(sel.dec->use);
        slots_on[sel.physical_cluster] |= bit;
        slots |= bit;
      }
      for (int p = 0; p < cfg.clusters; ++p) {
        const auto i = static_cast<std::size_t>(p);
        ASSERT_TRUE(ResourceUse{}.fits_with(use[i], cfg.cluster_at(p),
                                            cfg.branch_units_at(p)))
            << where << " overfills physical cluster " << p;
        ASSERT_EQ(use[i], packet.used[i]) << where << " cluster " << p;
        // Cluster-level merging gives each physical cluster to one thread.
        if (cluster_merge) {
          ASSERT_LE(std::popcount(slots_on[i]), 1)
              << where << " shares physical cluster " << p;
        }
      }
      if (std::popcount(slots) >= 2) ++multi_thread_cycles;
    }
    EXPECT_EQ(recorded_ops, sim.stats().ops_issued) << t.name();
    EXPECT_EQ(multi_thread_cycles, sim.stats().multi_thread_cycles)
        << t.name();
    // The run must exercise the merge: several threads issue together.
    EXPECT_GT(multi_thread_cycles, 0u) << t.name();
  }
}

}  // namespace
}  // namespace vexsim
