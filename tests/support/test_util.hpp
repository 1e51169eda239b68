// Shared helpers for the vexsim test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/thread_context.hpp"
#include "isa/config.hpp"
#include "isa/program.hpp"
#include "sim/driver.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace vexsim::test {

// Shares a finalized program (assemble() and cc::compile finalize).
inline std::shared_ptr<const Program> shared(Program prog) {
  VEXSIM_CHECK(prog.finalized());
  return std::make_shared<const Program>(std::move(prog));
}

// The builder form of a finalized program's code, for tests that edit code
// after building: edit the vector, then finalize it again.
inline std::vector<VliwInstruction> builder_code(const Program& prog) {
  std::vector<VliwInstruction> code(prog.size());
  for (std::size_t pc = 0; pc < prog.size(); ++pc)
    for (int c = 0; c < kMaxClusters; ++c)
      for (const Operation& op : prog.insn(pc).bundle(c))
        code[pc].bundle(c).push_back(op);
  return code;
}

// Two instructions hold the same operations in the same bundles.
inline bool same_insn(const InstructionView& a, const InstructionView& b) {
  for (int c = 0; c < kMaxClusters; ++c)
    if (!std::ranges::equal(a.bundle(c), b.bundle(c))) return false;
  return true;
}

// A small machine for the paper's worked examples: `clusters` × `issue`
// where issue slots are the only scarce resource ("we assume that number of
// issue slots is the only critical resource", Section III).
inline MachineConfig example_machine(int clusters, int issue, int threads,
                                     Technique t) {
  MachineConfig cfg;
  cfg.clusters = clusters;
  cfg.cluster.issue_slots = issue;
  cfg.cluster.alus = issue;
  cfg.cluster.muls = issue;
  cfg.cluster.mem_units = issue;
  cfg.cluster.branch_units = 1;
  cfg.branch_on_cluster0_only = false;
  cfg.hw_threads = threads;
  cfg.technique = t;
  cfg.cluster_renaming = false;  // the figures assume identity placement
  cfg.icache.perfect = true;
  cfg.dcache.perfect = true;
  cfg.validate();
  return cfg;
}

// A valid machine in which every parameter of the cluster, latency, cache,
// L2 and DRAM blocks holds a distinct non-default value, so swapping two
// parameters, or reading one into another's field, always changes its
// to_config text and its cache key. It also sets every flag and scalar away
// from its default: perfect caches, an asymmetric override per cluster,
// branches on cluster 0 only, stalling store misses, the hierarchy backend.
inline MachineConfig distinct_machine() {
  MachineConfig m;
  m.clusters = 3;
  m.cluster = {5, 9, 10, 11, 13};
  m.cluster_overrides = {{7, 14, 15, 17, 18},
                         {8, 19, 20, 21, 22},
                         {3, 23, 24, 25, 26}};
  m.branch_on_cluster0_only = true;
  m.lat = {27, 28, 29, 30, 31, 34};
  m.icache = {131072, 32, 128, 36, true};
  m.dcache = {262144, 2, 256, 38, true};
  m.memory.backend = MemBackendKind::kHierarchy;
  m.memory.l1_mshrs = 12;
  m.memory.l2 = {1048576, 64, 512, 39};
  m.memory.dram = {1024, 8192, 40, 41, 43, 47};
  m.hw_threads = 3;
  m.technique = Technique::ccsi(CommPolicy::kAlwaysSplit);
  m.cluster_renaming = false;  // asymmetric and multithreaded
  m.stall_on_store_miss = true;
  m.validate();
  return m;
}

// Two runs of one point agree on every statistic a RunResult carries: the
// machine, cache, memory-hierarchy and merge counters, and each instance's
// retired instructions, respawns, fingerprint, fault flag and per-thread
// counters. (Compile summary and harness provenance are not statistics.)
inline void expect_same_stats(const RunResult& a, const RunResult& b,
                              const std::string& what) {
  EXPECT_EQ(a.sim, b.sim) << what;
  EXPECT_EQ(a.icache, b.icache) << what;
  EXPECT_EQ(a.dcache, b.dcache) << what;
  EXPECT_EQ(a.memory, b.memory) << what;
  EXPECT_EQ(a.merge, b.merge) << what;
  ASSERT_EQ(a.instances.size(), b.instances.size()) << what;
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    const InstanceResult& x = a.instances[i];
    const InstanceResult& y = b.instances[i];
    const std::string at = what + " instance " + std::to_string(i);
    EXPECT_EQ(x.name, y.name) << at;
    EXPECT_EQ(x.instructions, y.instructions) << at;
    EXPECT_EQ(x.respawns, y.respawns) << at;
    EXPECT_EQ(x.arch_fingerprint, y.arch_fingerprint) << at;
    EXPECT_EQ(x.faulted, y.faulted) << at;
    EXPECT_EQ(x.counters, y.counters) << at;
  }
}

// Per-cycle packet summary: ops issued per (thread, cluster), e.g.
// {{0,0}: 2, {1,1}: 2} for "thread 0 issued 2 ops on cluster 0, …".
using PacketShape = std::map<std::pair<int, int>, int>;

inline PacketShape shape_of(const ExecPacket& packet) {
  PacketShape shape;
  for (const SelectedOp& sel : packet.ops)
    ++shape[{sel.hw_slot, sel.physical_cluster}];
  return shape;
}

// Runs the machine until all threads halt, recording each cycle's shape.
inline std::vector<PacketShape> run_and_trace(Simulator& sim,
                                              std::uint64_t max_cycles = 100) {
  std::vector<PacketShape> trace;
  for (std::uint64_t i = 0; i < max_cycles; ++i) {
    bool live = false;
    for (int s = 0; s < sim.num_slots(); ++s)
      if (sim.slot(s) != nullptr && sim.slot(s)->state == RunState::kReady)
        live = true;
    if (!live) break;
    sim.step();
    trace.push_back(shape_of(sim.last_packet()));
  }
  return trace;
}

}  // namespace vexsim::test
