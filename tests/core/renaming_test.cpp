// Cluster renaming (Section IV): static rotation of each thread's logical
// clusters onto physical clusters to reduce bias on heavily-used clusters.
#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

// Both threads' code uses logical cluster 0 only (the compiler's favourite),
// which is the exact bias renaming exists to fix.
const char* kCluster0Heavy = "c0 add r1 = r2, r3 ; c0 sub r4 = r5, r6\n";

TEST(Renaming, CsmtMergesRotatedThreads) {
  MachineConfig cfg = test::example_machine(4, 2, 2, Technique::csmt());
  cfg.cluster_renaming = true;
  Simulator sim(cfg);
  ThreadContext c0(0, test::shared(assemble(kCluster0Heavy, "t0")));
  ThreadContext c1(1, test::shared(assemble(kCluster0Heavy, "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  sim.step();
  // Thread 1 rotates by 1 (thread i rotated by i): no physical conflict for
  // single-cluster instructions.
  const auto shape = test::shape_of(sim.last_packet());
  EXPECT_EQ(shape, (test::PacketShape{{{0, 0}, 2}, {{1, 1}, 2}}));
}

TEST(Renaming, WithoutRenamingSameClusterConflicts) {
  MachineConfig cfg = test::example_machine(4, 2, 2, Technique::csmt());
  cfg.cluster_renaming = false;
  Simulator sim(cfg);
  ThreadContext c0(0, test::shared(assemble(kCluster0Heavy, "t0")));
  ThreadContext c1(1, test::shared(assemble(kCluster0Heavy, "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  sim.step();
  const auto shape = test::shape_of(sim.last_packet());
  EXPECT_EQ(shape, (test::PacketShape{{{0, 0}, 2}}));  // thread 1 blocked
}

TEST(Renaming, FunctionalStateUsesLogicalClusters) {
  // Renaming is a resource-mapping trick: thread 1's r-registers live in its
  // own logical cluster 0 file regardless of the physical cluster used.
  MachineConfig cfg = test::example_machine(4, 2, 2, Technique::csmt());
  cfg.cluster_renaming = true;
  Simulator sim(cfg);
  ThreadContext c0(0, test::shared(assemble("c0 movi r1 = 5\n", "t0")));
  ThreadContext c1(1, test::shared(assemble("c0 movi r1 = 9\n", "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  sim.step();
  sim.step();  // writes commit one cycle after issue
  EXPECT_EQ(c0.regs.gpr(0, 1), 5u);
  EXPECT_EQ(c1.regs.gpr(0, 1), 9u);  // logical cluster 0, not physical 2
  EXPECT_EQ(c1.regs.gpr(2, 1), 0u);
}

TEST(Renaming, FourThreadsFullRotation) {
  MachineConfig cfg = test::example_machine(4, 2, 4, Technique::csmt());
  cfg.cluster_renaming = true;
  Simulator sim(cfg);
  std::vector<std::unique_ptr<ThreadContext>> ctxs;
  for (int i = 0; i < 4; ++i) {
    ctxs.push_back(std::make_unique<ThreadContext>(
        i, test::shared(assemble(kCluster0Heavy, "t"))));
    sim.attach(i, ctxs.back().get());
  }
  sim.step();
  // All four threads issue in the same cycle, one per physical cluster.
  const auto shape = test::shape_of(sim.last_packet());
  EXPECT_EQ(shape, (test::PacketShape{
                       {{0, 0}, 2}, {{1, 1}, 2}, {{2, 2}, 2}, {{3, 3}, 2}}));
}

TEST(Renaming, MemoryPortsFollowPhysicalClusters) {
  // Two threads with a store on logical cluster 0: renaming sends them to
  // different physical memory units, so both issue in one cycle even with
  // one memory port per cluster.
  MachineConfig cfg = test::example_machine(4, 2, 2, Technique::smt());
  cfg.cluster.mem_units = 1;
  cfg.cluster_renaming = true;
  Simulator sim(cfg);
  const char* store_prog = "c0 stw 0x200[r0] = r1\n";
  ThreadContext c0(0, test::shared(assemble(store_prog, "t0")));
  ThreadContext c1(1, test::shared(assemble(store_prog, "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  sim.step();
  EXPECT_EQ(sim.last_packet().op_count(), 2);
}

}  // namespace
}  // namespace vexsim
