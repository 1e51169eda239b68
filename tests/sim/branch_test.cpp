// Two-phase branch timing: compare-to-branch delay and taken-branch penalty.
#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

struct SingleRun {
  std::unique_ptr<ThreadContext> ctx;
  SimStats stats;
  bool halted = false;
};

SingleRun run_single(const char* source, std::uint64_t max_cycles = 10'000) {
  MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  cfg.icache.perfect = true;
  cfg.dcache.perfect = true;
  Simulator sim(cfg);
  SingleRun r;
  r.ctx = std::make_unique<ThreadContext>(
      0, test::shared(assemble(source, "prog")));
  sim.attach(0, r.ctx.get());
  r.halted = sim.run_to_halt(max_cycles);
  r.stats = sim.stats();
  return r;
}

TEST(Branch, NotTakenFallsThroughWithoutPenalty) {
  const auto r = run_single(
      "c0 movi r1 = 5\n"
      "c0 cmpgt b0 = r1, 100\n"  // false
      "nop\n"
      "c0 br b0, @0\n"
      "c0 movi r2 = 1\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 2), 1u);
  EXPECT_EQ(r.stats.taken_branches, 0u);
  EXPECT_EQ(r.stats.cycles, 6u);  // one cycle per instruction, no bubbles
}

TEST(Branch, TakenBranchCostsOnePenaltyCycle) {
  const auto taken = run_single(
      "c0 movi r1 = 5\n"
      "c0 cmpgt b0 = r1, 0\n"  // true
      "nop\n"
      "c0 br b0, skip\n"
      "c0 movi r2 = 99\n"      // skipped
      "skip:\n"
      "c0 movi r3 = 1\n"
      "c0 halt\n");
  EXPECT_EQ(taken.ctx->regs.gpr(0, 2), 0u);
  EXPECT_EQ(taken.ctx->regs.gpr(0, 3), 1u);
  EXPECT_EQ(taken.stats.taken_branches, 1u);
  // 6 instructions execute (one skipped) + 1 taken penalty.
  EXPECT_EQ(taken.stats.cycles, 7u);
}

TEST(Branch, BrfInvertsCondition) {
  const auto r = run_single(
      "c0 movi r1 = 5\n"
      "c0 cmpgt b0 = r1, 100\n"  // false → brf taken
      "nop\n"
      "c0 brf b0, skip\n"
      "c0 movi r2 = 99\n"
      "skip:\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 2), 0u);
  EXPECT_EQ(r.stats.taken_branches, 1u);
}

TEST(Branch, GotoAlwaysTaken) {
  const auto r = run_single(
      "c0 goto skip\n"
      "c0 movi r1 = 99\n"
      "skip:\n"
      "c0 movi r2 = 7\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 1), 0u);
  EXPECT_EQ(r.ctx->regs.gpr(0, 2), 7u);
  EXPECT_EQ(r.stats.taken_branches, 1u);
  // goto, movi, halt + 1 penalty.
  EXPECT_EQ(r.stats.cycles, 4u);
}

TEST(Branch, LoopCycleCountExact) {
  // 3 iterations: the first two take the backedge (penalty each), the last
  // falls through. 2 setup + 3×5 body + 2 penalties + 1 halt = 20 cycles.
  const auto r = run_single(
      "c0 movi r1 = 3\n"
      "c0 movi r2 = 0\n"
      "top:\n"
      "c0 add r2 = r2, 1\n"
      "c0 add r1 = r1, -1\n"
      "c0 cmpgt b0 = r1, 0\n"
      "nop\n"
      "c0 br b0, top\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 2), 3u);
  EXPECT_EQ(r.stats.taken_branches, 2u);
  EXPECT_EQ(r.stats.cycles, 20u);
}

TEST(Branch, CompareToBranchContractEnforced) {
  // A branch reading its breg the cycle after the compare violates the
  // 2-cycle compare-to-branch delay and must trip the latency checker.
  EXPECT_THROW(run_single("c0 movi r1 = 1\n"
                          "c0 cmpgt b0 = r1, 0\n"
                          "c0 br b0, @0\n"
                          "c0 halt\n"),
               CheckError);
}

TEST(Branch, SlctObeysBregLatency) {
  const auto r = run_single(
      "c0 movi r1 = 5 ; c0 movi r2 = 10 ; c0 movi r3 = 20\n"
      "c0 cmpgt b1 = r1, 0\n"
      "nop\n"
      "c0 slct r4 = b1, r2, r3\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 4), 10u);
}

TEST(Branch, BackwardLoopToInstructionZero) {
  const auto r = run_single(
      "top:\n"
      "c0 add r1 = r1, 1\n"
      "c0 cmpge b0 = r1, 3\n"
      "nop\n"
      "c0 brf b0, top\n"
      "c0 halt\n");
  EXPECT_EQ(r.ctx->regs.gpr(0, 1), 3u);
  EXPECT_TRUE(r.halted);
}

}  // namespace
}  // namespace vexsim
