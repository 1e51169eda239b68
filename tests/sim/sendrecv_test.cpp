// Inter-cluster communication under split-issue — Figure 12.
//
// VEX semantics pair send and recv in one instruction. Split-issue may tear
// them apart: send-before-recv buffers the value (Fig. 12c); recv-before-
// send records the destination register and the send writes it directly
// (Fig. 12d). Under CommPolicy::kNoSplit such instructions never split.
#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

// T1 copies r3 (cluster 0) into r5 (cluster 1). r3 is preset to 77.
const char* kCopy =
    "c0 send ch0 = r3 ; c1 recv r5 = ch0\n"
    "c0 halt\n";

// T0 variants that block one side of T1's copy in cycle 1 (CCSI: cluster
// granularity; T0 has priority in cycle 1).
const char* kBlockC1 = "c1 add r1 = r2, r3 ; c1 or r4 = r5, r6\n";
const char* kBlockC0 = "c0 add r1 = r2, r3 ; c0 or r4 = r5, r6\n";

struct Rig {
  Simulator sim;
  ThreadContext t0;
  ThreadContext t1;
  Rig(const MachineConfig& cfg, const char* t0_src)
      : sim(cfg),
        t0(0, test::shared(assemble(t0_src, "t0"))),
        t1(1, test::shared(assemble(kCopy, "t1"))) {
    t1.regs.set_gpr(0, 3, 77);
    sim.attach(0, &t0);
    sim.attach(1, &t1);
  }
};

TEST(SendRecv, SameCycleTransfer) {
  // Single thread: the pair always issues together (Figure 12b).
  MachineConfig cfg =
      test::example_machine(2, 3, 1, Technique::smt());
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(kCopy, "t")));
  ctx.regs.set_gpr(0, 3, 77);
  sim.attach(0, &ctx);
  ASSERT_TRUE(sim.run_to_halt(50));
  EXPECT_EQ(ctx.regs.gpr(1, 5), 77u);
}

TEST(SendRecv, SendAheadOfRecvBuffersData) {
  // T0 blocks cluster 1 → T1's send issues first (Figure 12c).
  Rig rig(test::example_machine(2, 3, 2,
                                Technique::ccsi(CommPolicy::kAlwaysSplit)),
          kBlockC1);
  ASSERT_TRUE(rig.sim.run_to_halt(50));
  EXPECT_EQ(rig.t1.regs.gpr(1, 5), 77u);
  EXPECT_EQ(rig.t1.counters.split_instructions, 1u);
}

TEST(SendRecv, RecvAheadOfSendWritesOnArrival) {
  // T0 blocks cluster 0 → T1's recv issues first (Figure 12d): the
  // destination register is remembered and written when the data arrives.
  Rig rig(test::example_machine(2, 3, 2,
                                Technique::ccsi(CommPolicy::kAlwaysSplit)),
          kBlockC0);
  ASSERT_TRUE(rig.sim.run_to_halt(50));
  EXPECT_EQ(rig.t1.regs.gpr(1, 5), 77u);
  EXPECT_EQ(rig.t1.counters.split_instructions, 1u);
}

TEST(SendRecv, NoSplitPolicyKeepsPairTogether) {
  // Under NS the copy instruction merges only in its entirety: it waits for
  // both clusters and never splits.
  Rig rig(test::example_machine(2, 3, 2,
                                Technique::ccsi(CommPolicy::kNoSplit)),
          kBlockC1);
  ASSERT_TRUE(rig.sim.run_to_halt(50));
  EXPECT_EQ(rig.t1.regs.gpr(1, 5), 77u);
  EXPECT_EQ(rig.t1.counters.split_instructions, 0u);
}

TEST(SendRecv, AlwaysSplitFinishesNoLaterThanNoSplit) {
  Rig as(test::example_machine(2, 3, 2,
                               Technique::ccsi(CommPolicy::kAlwaysSplit)),
         kBlockC1);
  ASSERT_TRUE(as.sim.run_to_halt(50));
  Rig ns(test::example_machine(2, 3, 2,
                               Technique::ccsi(CommPolicy::kNoSplit)),
         kBlockC1);
  ASSERT_TRUE(ns.sim.run_to_halt(50));
  EXPECT_LE(as.sim.stats().cycles, ns.sim.stats().cycles);
}

TEST(SendRecv, MultipleChannelsInOneInstruction) {
  MachineConfig cfg = test::example_machine(2, 3, 1, Technique::smt());
  Simulator sim(cfg);
  const char* two_copies =
      "c0 send ch0 = r3 ; c1 recv r5 = ch0 ; "
      "c1 send ch1 = r6 ; c0 recv r7 = ch1\n"
      "c0 halt\n";
  ThreadContext ctx(0, test::shared(assemble(two_copies, "t")));
  ctx.regs.set_gpr(0, 3, 111);
  ctx.regs.set_gpr(1, 6, 222);
  sim.attach(0, &ctx);
  ASSERT_TRUE(sim.run_to_halt(50));
  EXPECT_EQ(ctx.regs.gpr(1, 5), 111u);
  EXPECT_EQ(ctx.regs.gpr(0, 7), 222u);
}

TEST(SendRecv, ValueReadAtSendIssueCycle) {
  // The transferred value is the source register at the send's issue cycle;
  // a later redefinition (next instruction) must not leak into the copy.
  MachineConfig cfg = test::example_machine(2, 3, 1, Technique::smt());
  Simulator sim(cfg);
  const char* prog =
      "c0 send ch0 = r3 ; c1 recv r5 = ch0\n"
      "c0 movi r3 = 999\n"
      "c0 halt\n";
  ThreadContext ctx(0, test::shared(assemble(prog, "t")));
  ctx.regs.set_gpr(0, 3, 42);
  sim.attach(0, &ctx);
  ASSERT_TRUE(sim.run_to_halt(50));
  EXPECT_EQ(ctx.regs.gpr(1, 5), 42u);
  EXPECT_EQ(ctx.regs.gpr(0, 3), 999u);
}

}  // namespace
}  // namespace vexsim
