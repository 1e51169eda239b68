// Figure 6 of the paper: cluster-level split-issue with cluster-level
// merging (CCSI) on a 2-cluster, 3-issue machine.
//
// Reconstructed pairs with the figure's structure:
//   T0: Ins0 = c0:{add,ld}            Ins1 = c0:{shl,sub}, c1:{mpy,xor}
//   T1: Ins0 = c0:{mpy,shl}, c1:{sub,st} Ins1 = c1:{mov,add}
//
// Without split-issue (CSMT) execution takes 4 cycles; CCSI reduces it to 3
// by issuing T1's cluster-1 bundle with T0's Ins0 in cycle 0, swapping
// cluster ownership in cycle 1, and merging both Ins1s in cycle 2.
#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

using test::PacketShape;

const char* kT0 =
    "c0 add r1 = r2, r3 ; c0 ldw r4 = 0x200[r0]\n"
    "c0 shl r5 = r6, 1 ; c0 sub r7 = r8, r9 ; "
    "c1 mpyl r1 = r2, r3 ; c1 xor r4 = r5, r6\n";

const char* kT1 =
    "c0 mpyl r1 = r2, r3 ; c0 shl r4 = r5, 2 ; "
    "c1 sub r6 = r7, r8 ; c1 stw 0x200[r0] = r1\n"
    "c1 mov r2 = r3 ; c1 add r4 = r5, r6\n";

std::vector<PacketShape> run(Technique t) {
  const MachineConfig cfg = test::example_machine(2, 3, 2, t);
  Simulator sim(cfg);
  static thread_local std::unique_ptr<ThreadContext> c0, c1;
  c0 = std::make_unique<ThreadContext>(0, test::shared(assemble(kT0, "t0")));
  c1 = std::make_unique<ThreadContext>(1, test::shared(assemble(kT1, "t1")));
  sim.attach(0, c0.get());
  sim.attach(1, c1.get());
  return test::run_and_trace(sim);
}

TEST(Figure6, CsmtTakesFourCycles) {
  const auto trace = run(Technique::csmt());
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0], (PacketShape{{{0, 0}, 2}}));
  EXPECT_EQ(trace[1], (PacketShape{{{1, 0}, 2}, {{1, 1}, 2}}));
  EXPECT_EQ(trace[2], (PacketShape{{{0, 0}, 2}, {{0, 1}, 2}}));
  EXPECT_EQ(trace[3], (PacketShape{{{1, 1}, 2}}));
}

TEST(Figure6, CcsiTakesThreeCycles) {
  const auto trace = run(Technique::ccsi(CommPolicy::kNoSplit));
  ASSERT_EQ(trace.size(), 3u);
  // Cycle 0: T0 owns cluster 0; T1's cluster-1 bundle joins.
  EXPECT_EQ(trace[0], (PacketShape{{{0, 0}, 2}, {{1, 1}, 2}}));
  // Cycle 1: T1 (priority) finishes on cluster 0; T0's Ins1 takes cluster 1.
  EXPECT_EQ(trace[1], (PacketShape{{{1, 0}, 2}, {{0, 1}, 2}}));
  // Cycle 2: T0 finishes on cluster 0; T1's Ins1 merges on cluster 1.
  EXPECT_EQ(trace[2], (PacketShape{{{0, 0}, 2}, {{1, 1}, 2}}));
}

TEST(Figure6, ClusterOwnershipIsExclusive) {
  // Under cluster-level merging a physical cluster never mixes threads in
  // one cycle.
  const MachineConfig cfg =
      test::example_machine(2, 3, 2, Technique::ccsi(CommPolicy::kNoSplit));
  Simulator sim(cfg);
  ThreadContext c0(0, test::shared(assemble(kT0, "t0")));
  ThreadContext c1(1, test::shared(assemble(kT1, "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  for (int i = 0; i < 10; ++i) {
    sim.step();
    std::map<int, int> cluster_owner;
    for (const SelectedOp& sel : sim.last_packet().ops) {
      const auto [it, inserted] =
          cluster_owner.emplace(sel.physical_cluster, sel.hw_slot);
      EXPECT_EQ(it->second, sel.hw_slot)
          << "cluster " << int(sel.physical_cluster) << " shared at cycle "
          << sim.cycle();
    }
  }
}

TEST(Figure6, LastPartSignalTiming) {
  // T1's Ins0 issues its last part (cluster 0) in cycle 1 — that is when
  // its buffered results drain; instructions retired confirms completion.
  const MachineConfig cfg =
      test::example_machine(2, 3, 2, Technique::ccsi(CommPolicy::kNoSplit));
  Simulator sim(cfg);
  ThreadContext c0(0, test::shared(assemble(kT0, "t0")));
  ThreadContext c1(1, test::shared(assemble(kT1, "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  sim.step();
  EXPECT_EQ(c0.counters.instructions, 1u);  // T0 Ins0 complete
  EXPECT_EQ(c1.counters.instructions, 0u);  // T1 Ins0 still split
  EXPECT_FALSE(c1.rf_buffer.empty() && c1.store_buffer.empty())
      << "T1's split part should be buffered";
  sim.step();
  EXPECT_EQ(c1.counters.instructions, 1u);  // last part issued
  EXPECT_TRUE(c1.rf_buffer.empty());
  EXPECT_TRUE(c1.store_buffer.empty());
}

}  // namespace
}  // namespace vexsim
