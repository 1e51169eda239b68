#include "sim/reference.hpp"

#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

ThreadContext make_ctx(const char* source) {
  return ThreadContext(0, test::shared(assemble(source, "ref")));
}

TEST(Reference, StraightLineArithmetic) {
  ThreadContext ctx = make_ctx(
      "c0 movi r1 = 6\n"
      "c0 mpyl r2 = r1, 7\n"
      "c0 add r3 = r2, 1\n"
      "c0 halt\n");
  ReferenceInterpreter ref(4);
  const RefResult r = ref.run(ctx, 100);
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.instructions, 4u);
  EXPECT_EQ(ctx.regs.gpr(0, 3), 43u);
}

TEST(Reference, ImmediateVisibilityWithinLatencyWindow) {
  // The reference interpreter is the earliest-legal LEQ execution: results
  // are visible immediately, even inside the exposed latency window.
  ThreadContext ctx = make_ctx(
      "c0 mpyl r2 = r1, 7\n"
      "c0 add r3 = r2, 1\n"  // one cycle after the multiply
      "c0 halt\n");
  ctx.regs.set_gpr(0, 1, 6);
  ReferenceInterpreter ref(4);
  ref.run(ctx, 100);
  EXPECT_EQ(ctx.regs.gpr(0, 3), 43u);
}

TEST(Reference, SwapSemantics) {
  ThreadContext ctx = make_ctx(
      "c0 mov r3 = r5 ; c0 mov r5 = r3\n"
      "c0 halt\n");
  ctx.regs.set_gpr(0, 3, 1);
  ctx.regs.set_gpr(0, 5, 2);
  ReferenceInterpreter ref(4);
  ref.run(ctx, 100);
  EXPECT_EQ(ctx.regs.gpr(0, 3), 2u);
  EXPECT_EQ(ctx.regs.gpr(0, 5), 1u);
}

TEST(Reference, BranchesAndLoops) {
  ThreadContext ctx = make_ctx(
      "c0 movi r1 = 4\n"
      "top:\n"
      "c0 add r2 = r2, 2\n"
      "c0 add r1 = r1, -1\n"
      "c0 cmpgt b0 = r1, 0\n"
      "c0 br b0, top\n"
      "c0 halt\n");
  ReferenceInterpreter ref(4);
  const RefResult r = ref.run(ctx, 1000);
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(ctx.regs.gpr(0, 2), 8u);
}

TEST(Reference, MemoryRoundTrip) {
  ThreadContext ctx = make_ctx(
      "c0 movi r1 = 0x300\n"
      "c0 movi r2 = -2\n"
      "c0 sth 0[r1] = r2\n"
      "c0 ldh r3 = 0[r1]\n"
      "c0 ldhu r4 = 0[r1]\n"
      "c0 halt\n");
  ReferenceInterpreter ref(4);
  ref.run(ctx, 100);
  EXPECT_EQ(ctx.regs.gpr(0, 3), 0xFFFFFFFEu);
  EXPECT_EQ(ctx.regs.gpr(0, 4), 0xFFFEu);
}

TEST(Reference, SameInstructionStoreLoadReadsOld) {
  ThreadContext ctx = make_ctx(
      "c0 movi r1 = 0x400 ; c1 movi r9 = 0x400\n"
      "c0 stw 0[r1] = r1 ; c1 ldw r4 = 0[r9]\n"
      "c0 halt\n");
  ReferenceInterpreter ref(4);
  ref.run(ctx, 100);
  EXPECT_EQ(ctx.regs.gpr(1, 4), 0u);           // pre-instruction memory
  EXPECT_EQ(ctx.mem.peek_u32(0x400), 0x400u);  // store applied
}

TEST(Reference, SendRecvWithinInstruction) {
  ThreadContext ctx = make_ctx(
      "c0 send ch0 = r3 ; c1 recv r5 = ch0\n"
      "c0 halt\n");
  ctx.regs.set_gpr(0, 3, 99);
  ReferenceInterpreter ref(4);
  ref.run(ctx, 100);
  EXPECT_EQ(ctx.regs.gpr(1, 5), 99u);
}

TEST(Reference, FaultIsPrecise) {
  ThreadContext ctx = make_ctx(
      "c0 movi r1 = 1\n"
      "c0 movi r2 = 2 ; c1 ldb r3 = 0[r0]\n"  // guard page fault
      "c0 halt\n");
  ReferenceInterpreter ref(4);
  const RefResult r = ref.run(ctx, 100);
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(r.fault_pc, 1u);
  EXPECT_EQ(ctx.regs.gpr(0, 1), 1u);
  EXPECT_EQ(ctx.regs.gpr(0, 2), 0u);  // faulting instruction fully suppressed
  EXPECT_EQ(ctx.state, RunState::kFaulted);
}

TEST(Reference, InstructionBudgetStopsLoops) {
  ThreadContext ctx = make_ctx(
      "top:\n"
      "c0 add r1 = r1, 1\n"
      "c0 goto top\n");
  ReferenceInterpreter ref(4);
  const RefResult r = ref.run(ctx, 50);
  EXPECT_FALSE(r.halted);
  EXPECT_EQ(r.instructions, 50u);
  EXPECT_EQ(ctx.state, RunState::kReady);
}

TEST(Reference, CountsOps) {
  ThreadContext ctx = make_ctx(
      "c0 movi r1 = 1 ; c1 movi r2 = 2\n"
      "c0 halt\n");
  ReferenceInterpreter ref(4);
  const RefResult r = ref.run(ctx, 10);
  EXPECT_EQ(r.instructions, 2u);
  EXPECT_EQ(r.ops, 3u);
}

}  // namespace
}  // namespace vexsim
