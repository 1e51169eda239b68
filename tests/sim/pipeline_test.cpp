// Core single-thread pipeline semantics: NUAL latencies, same-cycle reads
// (the Figure 3 register swap), vertical nops, and basic accounting.
#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

// Runs a single-thread program on the 4×4 paper machine with perfect caches
// and returns the halted context.
struct SingleRun {
  std::unique_ptr<ThreadContext> ctx;
  SimStats stats;
};

SingleRun run_single(const char* source) {
  MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  cfg.icache.perfect = true;
  cfg.dcache.perfect = true;
  cfg.branch_on_cluster0_only = false;
  Simulator sim(cfg);
  SingleRun r;
  r.ctx = std::make_unique<ThreadContext>(
      0, test::shared(assemble(source, "prog")));
  sim.attach(0, r.ctx.get());
  EXPECT_TRUE(sim.run_to_halt(10'000));
  r.stats = sim.stats();
  return r;
}

TEST(Pipeline, Figure3_SwapReadsOldValues) {
  // "The instruction does a single cycle swap of the registers R3 and R5
  // without using extra registers and it is a legal VLIW instruction."
  const auto r = run_single(
      "c0 movi r3 = 1\n"
      "c0 movi r5 = 2\n"
      "c0 mov r3 = r5 ; c0 mov r5 = r3\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 3), 2u);
  EXPECT_EQ(r.ctx->regs.gpr(0, 5), 1u);
}

TEST(Pipeline, UnitLatencyVisibleNextCycle) {
  const auto r = run_single(
      "c0 movi r1 = 10\n"
      "c0 add r2 = r1, 5\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 2), 15u);
}

TEST(Pipeline, MulLatencyHonoredWhenScheduledApart) {
  const auto r = run_single(
      "c0 movi r1 = 6\n"
      "c0 mpyl r2 = r1, 7\n"
      "nop\n"
      "c0 add r3 = r2, 0\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 3), 42u);
}

TEST(Pipeline, NualViolationDetected) {
  // Reading a multiply result one cycle after issue violates the exposed
  // 2-cycle latency; the simulator's latency-window checker must trip.
  EXPECT_THROW(run_single("c0 movi r1 = 6\n"
                          "c0 mpyl r2 = r1, 7\n"
                          "c0 add r3 = r2, 0\n"
                          "c0 halt\n"),
               CheckError);
}

TEST(Pipeline, LoadLatencyRoundTrip) {
  const auto r = run_single(
      "c0 movi r1 = 0x200\n"
      "c0 stw 0[r1] = r1\n"
      "nop\n"
      "c0 ldw r2 = 0[r1]\n"
      "nop\n"
      "c0 add r3 = r2, 1\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 2), 0x200u);
  EXPECT_EQ(r.ctx->regs.gpr(0, 3), 0x201u);
}

TEST(Pipeline, SameCycleStoreLoadReadsOldMemory) {
  // A load and a store to the same address in one instruction (on different
  // clusters — one LS unit each): the load observes pre-instruction memory
  // (simultaneous-execution semantics).
  const auto r = run_single(
      "c0 movi r1 = 0x200 ; c1 movi r9 = 0x200\n"
      "c0 movi r2 = 77\n"
      "c0 stw 0[r1] = r2\n"
      "nop\n"
      "c0 stw 0[r1] = r1 ; c1 ldw r4 = 0[r9]\n"
      "nop\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(1, 4), 77u);          // old value
  EXPECT_EQ(r.ctx->mem.peek_u32(0x200), 0x200u);  // store applied
}

TEST(Pipeline, EmptyInstructionTakesOneCycle) {
  const auto with_nop = run_single(
      "c0 movi r1 = 1\nnop\nc0 add r2 = r1, 1\nc0 halt\n");
  const auto without = run_single(
      "c0 movi r1 = 1\nc0 add r2 = r1, 1\nc0 halt\n");
  EXPECT_EQ(with_nop.stats.cycles, without.stats.cycles + 1);
  EXPECT_EQ(with_nop.stats.instructions_retired, 4u);
}

TEST(Pipeline, OpsAndInstructionCounting) {
  const auto r = run_single(
      "c0 movi r1 = 1 ; c1 movi r2 = 2 ; c2 movi r3 = 3\n"
      "c0 halt\n");
  EXPECT_EQ(r.stats.instructions_retired, 2u);
  EXPECT_EQ(r.stats.ops_issued, 4u);
  EXPECT_EQ(r.ctx->counters.ops, 4u);
}

TEST(Pipeline, VerticalWasteCountsEmptyCycles) {
  const auto r = run_single("c0 movi r1 = 1\nnop\nnop\nc0 halt\n");
  EXPECT_EQ(r.stats.vertical_waste_cycles, 2u);
}

TEST(Pipeline, ZeroRegisterStaysZero) {
  const auto r = run_single(
      "c0 movi r0 = 55\n"
      "c0 add r1 = r0, 7\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 0), 0u);
  EXPECT_EQ(r.ctx->regs.gpr(0, 1), 7u);
}

TEST(Pipeline, FallingOffEndHalts) {
  const auto r = run_single("c0 movi r1 = 3\n");  // no explicit halt
  EXPECT_EQ(r.ctx->state, RunState::kHalted);
  EXPECT_EQ(r.ctx->regs.gpr(0, 1), 3u);
}

TEST(Pipeline, HaltAppliesOwnInstructionEffects) {
  const auto r = run_single("c0 movi r1 = 9 ; c1 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 1), 9u);
  EXPECT_EQ(r.ctx->state, RunState::kHalted);
}

TEST(Pipeline, ConstructorRejectsMachinesBeyondItsTables) {
  // The config is checked before the merge engine and the memory backend
  // are built from it: both size fixed arrays by these counts.
  MachineConfig threads = MachineConfig::paper(2, Technique::smt());
  threads.hw_threads = kMaxHwThreads + 1;
  EXPECT_THROW(Simulator{threads}, CheckError);
  MachineConfig clusters = MachineConfig::paper(2, Technique::smt());
  clusters.clusters = kMaxClusters + 1;
  EXPECT_THROW(Simulator{clusters}, CheckError);
  threads.hw_threads = kMaxHwThreads;
  EXPECT_NO_THROW(Simulator{threads});
}

}  // namespace
}  // namespace vexsim
