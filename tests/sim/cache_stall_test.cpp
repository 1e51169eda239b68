// Cache timing: load misses block the thread (less-than-or-equal machine
// stall), instruction fetch misses delay issue, and SMT fills the resulting
// vertical waste with other threads.
#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

MachineConfig machine(bool perfect_d, bool perfect_i, int threads = 1) {
  MachineConfig cfg = MachineConfig::paper(
      threads, threads > 1 ? Technique::smt() : Technique::smt());
  cfg.dcache.perfect = perfect_d;
  cfg.icache.perfect = perfect_i;
  return cfg;
}

std::uint64_t run_cycles(const MachineConfig& cfg, const char* source) {
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(source, "prog")));
  sim.attach(0, &ctx);
  EXPECT_TRUE(sim.run_to_halt(1'000'000));
  return sim.stats().cycles;
}

const char* kLoadProgram =
    "c0 movi r1 = 0x4000\n"
    "c0 ldw r2 = 0[r1]\n"
    "c0 add r3 = r0, 1\n"  // gated by the miss
    "c0 halt\n";

TEST(CacheStall, LoadMissBlocksNextInstruction) {
  const std::uint64_t perfect = run_cycles(machine(true, true), kLoadProgram);
  const std::uint64_t real = run_cycles(machine(false, true), kLoadProgram);
  EXPECT_EQ(perfect, 4u);
  // Cold miss: the next instruction issues miss_penalty cycles after the
  // load instead of 1 cycle after it — 19 extra cycles.
  EXPECT_EQ(real, perfect + 19);
}

TEST(CacheStall, SecondAccessToSameLineHits) {
  const char* two_loads =
      "c0 movi r1 = 0x4000\n"
      "c0 ldw r2 = 0[r1]\n"
      "c0 ldw r3 = 4[r1]\n"  // same 64B line → hit
      "c0 halt\n";
  const std::uint64_t real = run_cycles(machine(false, true), two_loads);
  const std::uint64_t perfect = run_cycles(machine(true, true), two_loads);
  EXPECT_EQ(real, perfect + 19);  // only the first load misses
}

TEST(CacheStall, StoreMissDoesNotBlockByDefault) {
  const char* store_prog =
      "c0 movi r1 = 0x4000\n"
      "c0 stw 0[r1] = r1\n"
      "c0 add r3 = r0, 1\n"
      "c0 halt\n";
  const std::uint64_t real = run_cycles(machine(false, true), store_prog);
  EXPECT_EQ(real, 4u);  // ST200-style write buffer
  MachineConfig cfg = machine(false, true);
  cfg.stall_on_store_miss = true;
  EXPECT_EQ(run_cycles(cfg, store_prog), 23u);
}

TEST(CacheStall, InstructionFetchMissDelaysStartup) {
  const char* trivial = "c0 halt\n";
  const std::uint64_t perfect = run_cycles(machine(true, true), trivial);
  const std::uint64_t real = run_cycles(machine(true, false), trivial);
  EXPECT_EQ(perfect, 1u);
  EXPECT_EQ(real, perfect + 20);  // cold ICache miss on the first fetch
}

TEST(CacheStall, ZeroPenaltyMissCostsOnlyItsOwnCycle) {
  // A miss at penalty 0 still spends the fetch cycle refilling (one I-miss
  // block cycle), and a zero-penalty D-miss blocks no later cycle.
  MachineConfig cfg = machine(false, false);
  cfg.icache.miss_penalty = 0;
  cfg.dcache.miss_penalty = 0;
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(kLoadProgram, "p")));
  sim.attach(0, &ctx);
  ASSERT_TRUE(sim.run_to_halt(1'000));
  EXPECT_EQ(sim.stats().cycles,
            run_cycles(machine(true, true), kLoadProgram) + 1);
  EXPECT_EQ(ctx.counters.imiss_block_cycles, 1u);
  EXPECT_EQ(ctx.counters.dmiss_block_cycles, 0u);
  EXPECT_EQ(sim.dcache().stats().misses, 1u);
}

TEST(CacheStall, DMissBlockCyclesCounted) {
  MachineConfig cfg = machine(false, true);
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(kLoadProgram, "p")));
  sim.attach(0, &ctx);
  ASSERT_TRUE(sim.run_to_halt(1'000));
  EXPECT_GE(ctx.counters.dmiss_block_cycles, 19u);
  EXPECT_EQ(sim.dcache().stats().misses, 1u);
}

TEST(CacheStall, SmtFillsMissStallWithOtherThread) {
  // T0 takes a 20-cycle D-miss; T1 is a pure ALU loop. On the 2-thread SMT
  // machine T1 keeps issuing during T0's stall, so total cycles are far
  // below the sum of solo runs.
  const char* miss_prog =
      "c0 movi r1 = 0x4000\n"
      "c0 ldw r2 = 0[r1]\n"
      "c0 add r3 = r2, 1\n"
      "c0 ldw r2 = 256[r1]\n"
      "c0 add r3 = r2, 1\n"
      "c0 halt\n";
  const char* alu_prog =
      "c0 movi r1 = 40\n"
      "top:\n"
      "c0 add r2 = r2, 1\n"
      "c0 add r1 = r1, -1\n"
      "c0 cmpgt b0 = r1, 0\n"
      "nop\n"
      "c0 br b0, top\n"
      "c0 halt\n";
  MachineConfig cfg = machine(false, true, 2);
  Simulator sim(cfg);
  ThreadContext t0(0, test::shared(assemble(miss_prog, "t0")));
  ThreadContext t1(1, test::shared(assemble(alu_prog, "t1")));
  sim.attach(0, &t0);
  sim.attach(1, &t1);
  ASSERT_TRUE(sim.run_to_halt(10'000));
  const std::uint64_t together = sim.stats().cycles;

  const std::uint64_t solo0 = run_cycles(machine(false, true), miss_prog);
  const std::uint64_t solo1 = run_cycles(machine(false, true), alu_prog);
  EXPECT_LT(together, solo0 + solo1);
  // T1's loop (≈ 240 cycles) covers T0's two misses entirely.
  EXPECT_LE(together, std::max(solo0, solo1) + 10);
}

TEST(CacheStall, CapacityMissesOnBigWorkingSet) {
  // Stream over 2048 distinct 64 B lines (128 KiB): every access is a cold
  // miss; a 64 KiB cache retains none of an earlier pass either.
  MachineConfig cfg = machine(false, true);
  Simulator sim(cfg);
  const char* stream =
      "c0 movi r1 = 0x10000\n"
      "c0 movi r2 = 2048\n"
      "top:\n"
      "c0 ldw r3 = 0[r1]\n"
      "c0 add r1 = r1, 64\n"
      "c0 add r2 = r2, -1\n"
      "c0 cmpgt b0 = r2, 0\n"
      "nop\n"
      "c0 br b0, top\n"
      "c0 halt\n";
  ThreadContext ctx(0, test::shared(assemble(stream, "p")));
  sim.attach(0, &ctx);
  ASSERT_TRUE(sim.run_to_halt(200'000));
  EXPECT_EQ(sim.dcache().stats().misses, 2048u);
}

}  // namespace
}  // namespace vexsim
