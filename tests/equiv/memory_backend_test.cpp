// Hierarchy-backend equivalence and determinism.
//
// The fixed backend's bit-identity to the seed simulator is pinned by the
// golden suites (tests/harness/golden_stats_test.cpp and the fig14 golden
// gate), and tests/golden/engine_matrix.golden.json pins hierarchy-backend
// trajectories for every technique on symmetric and asymmetric geometries.
// This suite pins the hierarchy backend's internal consistency: the backend
// is only touched at access cycles, which fast_forward never changes, so its
// trajectories must be bit-identical with fast_forward on and off. Memory
// stats must be present under the hierarchy backend and absent under fixed.
#include <gtest/gtest.h>

#include <string>

#include "harness/experiments.hpp"
#include "support/test_util.hpp"

namespace vexsim {
namespace {

harness::ExperimentOptions base_options() {
  harness::ExperimentOptions opt;
  opt.budget = 2'000;
  opt.timeslice = 1'500;
  opt.scale = 0.05;
  opt.mem_backend = MemBackendKind::kHierarchy;
  return opt;
}

// Memory-heavy mixes: a large-footprint chase (f-dial past the L1) plus a
// strided streamer, so MSHRs, the L2, and the DRAM banks all see traffic.
const char* kMixes[] = {
    "synth:i0.8-m0.4-s1-f512+synth:i0.8-m0.4-s2-f512+synth:i0.8-m0.4-s3",
    "synth:i0.3-m0.5-s4-f256-st256+synth:i0.3-m0.5-s5-f256-st64+"
    "synth:i0.3-m0.5-s6",
};

MachineConfig make_machine(bool asymmetric, int threads, Technique t,
                           const harness::ExperimentOptions& opt) {
  MachineConfig cfg = opt.machine(threads, t);
  if (asymmetric) {
    cfg.cluster_renaming = false;
    cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                             ClusterResourceConfig::for_issue_width(4),
                             ClusterResourceConfig::for_issue_width(2),
                             ClusterResourceConfig::for_issue_width(2)};
    cfg.validate();
  }
  return cfg;
}

TEST(MemoryBackendEquivalence, FastForwardVsPureLoop) {
  // The fast_forward horizon is clamped by the backend's next in-flight
  // completion; skipping or stepping those idle cycles must not move a
  // single counter. Both mixes, both geometries.
  for (const bool asymmetric : {false, true}) {
    for (const char* mix : kMixes) {
      harness::ExperimentOptions opt = base_options();
      const MachineConfig cfg = make_machine(
          asymmetric, 4, Technique::ccsi(CommPolicy::kAlwaysSplit), opt);
      opt.fast_forward = true;
      const RunResult skipping = harness::run_workload_on(cfg, mix, opt);
      opt.fast_forward = false;
      const RunResult stepping = harness::run_workload_on(cfg, mix, opt);
      ASSERT_TRUE(skipping.memory.present);
      test::expect_same_stats(skipping, stepping,
                              std::string("ff-vs-loop ") +
                                  cfg.geometry_name() + " " + mix);
    }
  }
}

TEST(MemoryBackendEquivalence, HierarchySeesTrafficFixedStaysSilent) {
  harness::ExperimentOptions opt = base_options();
  const MachineConfig hier =
      make_machine(false, 2, Technique::smt(), opt);
  const RunResult h = harness::run_workload_on(hier, kMixes[0], opt);
  ASSERT_TRUE(h.memory.present);
  // The f512 components overflow the 64 KB L1, so real misses reach the
  // MSHRs and DRAM.
  EXPECT_GT(h.memory.dmshr.allocations, 0u);
  EXPECT_GT(h.memory.dram.accesses(), 0u);
  EXPECT_GT(h.memory.dmshr.peak_occupancy, 0u);

  opt.mem_backend = MemBackendKind::kFixed;
  const MachineConfig fixed =
      make_machine(false, 2, Technique::smt(), opt);
  const RunResult f = harness::run_workload_on(fixed, kMixes[0], opt);
  EXPECT_FALSE(f.memory.present);
  EXPECT_GT(f.sim.cycles, 0u);
}

}  // namespace
}  // namespace vexsim
