// The fast-path cycle engine (Simulator::fast_forward) must be a pure
// wall-clock optimization: every statistic — machine-level, per-thread,
// cache, merge — and every architectural fingerprint must be bit-identical
// to the plain cycle-by-cycle loop. This is the core of the golden-stats
// contract the decode-cache/fast-path refactor is held to.
#include <gtest/gtest.h>

#include "harness/experiments.hpp"
#include "sim/simulator.hpp"
#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

TEST(FastForward, DriverStatsBitIdenticalAcrossTechniquesAndWorkloads) {
  // Small multiprogrammed runs across the technique space, including cache
  // misses, timeslice drains and respawns: stats must match exactly.
  harness::ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 3'000;
  opt.timeslice = 700;  // frequent drains exercise the limit clamping
  for (const char* workload : {"llmm", "hhhh"}) {
    for (const Technique t :
         {Technique::smt(), Technique::csmt(),
          Technique::ccsi(CommPolicy::kNoSplit),
          Technique::oosi(CommPolicy::kAlwaysSplit)}) {
      opt.fast_forward = false;
      const RunResult base = harness::run_workload(workload, 4, t, opt);
      opt.fast_forward = true;
      const RunResult fast = harness::run_workload(workload, 4, t, opt);
      test::expect_same_stats(base, fast,
                              std::string(workload) + "/" + t.name());
    }
  }
}

TEST(FastForward, SingleThreadMissHeavyRun) {
  // A single-thread run has the most skippable cycles (every D-miss block
  // and branch penalty idles the whole machine): the per-thread block
  // counters accrued arithmetically must equal the iterated ones.
  harness::ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 2'000;
  opt.timeslice = ~0ull;
  for (const char* bench : {"mcf", "bzip2"}) {
    opt.fast_forward = false;
    const RunResult base = harness::run_single(bench, false, opt);
    opt.fast_forward = true;
    const RunResult fast = harness::run_single(bench, false, opt);
    test::expect_same_stats(base, fast, bench);
  }
}

TEST(FastForward, SkipsIdleCyclesInOneCall) {
  // An I-miss leaves the only thread provably blocked for the miss penalty:
  // fast_forward must jump straight to the refill cycle and account every
  // skipped cycle as the iterated loop would.
  MachineConfig cfg = test::example_machine(2, 4, 1, Technique::smt());
  cfg.icache.perfect = false;  // cold ICache: first fetch misses
  cfg.validate();
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(
                           "c0 movi r1 = 1\n"
                           "c0 halt\n",
                           "p")));
  sim.attach(0, &ctx);
  sim.step();  // fetch misses; fetch_ready_at = 1 + miss_penalty
  EXPECT_EQ(ctx.counters.imiss_block_cycles, 1u);
  const std::uint64_t skipped = sim.fast_forward(~0ull);
  EXPECT_EQ(skipped, cfg.icache.miss_penalty - 1);
  EXPECT_EQ(sim.cycle(), 1u + skipped);
  EXPECT_EQ(sim.stats().vertical_waste_cycles, 1u + skipped);
  // Every skipped cycle would have counted an I-miss block in refill_slot.
  EXPECT_EQ(ctx.counters.imiss_block_cycles, 1u + skipped);
  sim.step();  // the fetch-ready cycle: instruction issues
  EXPECT_EQ(sim.stats().ops_issued, 1u);
}

TEST(FastForward, RespectsTheLimit) {
  MachineConfig cfg = test::example_machine(2, 4, 1, Technique::smt());
  cfg.icache.perfect = false;
  cfg.validate();
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(
                           "c0 movi r1 = 1\n"
                           "c0 halt\n",
                           "p")));
  sim.attach(0, &ctx);
  sim.step();  // miss at cycle 1; thread blocked until 1 + penalty
  const std::uint64_t limit = 5;
  EXPECT_EQ(sim.fast_forward(limit), limit - 2);  // skips cycles 2..limit-1
  EXPECT_EQ(sim.cycle(), limit - 1);
  EXPECT_EQ(sim.fast_forward(limit), 0u);  // already at the limit
}

TEST(FastForward, DisabledIsANoOp) {
  MachineConfig cfg = test::example_machine(2, 4, 1, Technique::smt());
  cfg.icache.perfect = false;
  cfg.validate();
  Simulator sim(cfg);
  sim.set_fast_forward(false);
  ThreadContext ctx(0, test::shared(assemble(
                           "c0 movi r1 = 1\n"
                           "c0 halt\n",
                           "p")));
  sim.attach(0, &ctx);
  sim.step();
  EXPECT_EQ(sim.fast_forward(~0ull), 0u);
  EXPECT_EQ(sim.cycle(), 1u);
}

TEST(FastForward, NeverSkipsWithWorkInFlight) {
  // A thread holding a partially issued instruction pins the clock: its
  // remaining parts merge every cycle, so nothing may be skipped.
  MachineConfig cfg = test::example_machine(2, 4, 1, Technique::smt());
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(
                           "c0 movi r1 = 1\n"
                           "c0 halt\n",
                           "p")));
  sim.attach(0, &ctx);
  ctx.issue.active = true;  // synthetic in-flight instruction
  EXPECT_EQ(sim.fast_forward(~0ull), 0u);
  ctx.issue.active = false;
}

// One ready thread whose three refill gates hold back to back, set directly
// because the engine never arms all three at once: cycles 1-3 wait out a
// D-miss block, 4-7 a branch penalty, 8-12 an I-fetch refill, and cycle 13
// issues. Each cycle is charged to the first gate that holds it; the branch
// penalty is charged to no counter.
struct GateWindows {
  MachineConfig cfg = test::example_machine(2, 4, 1, Technique::smt());
  Simulator sim{cfg};
  ThreadContext ctx{0, test::shared(assemble("c0 movi r1 = 1\n"
                                             "c0 halt\n",
                                             "p"))};

  GateWindows() {
    sim.attach(0, &ctx);
    ctx.mem_block_until = 4;
    ctx.next_issue_at = 8;
    ctx.fetch_ready_at = 13;
  }
};

TEST(FastForward, GateWindowsChargeTheFirstGateThatHolds) {
  GateWindows stepped;
  for (int i = 0; i < 12; ++i) ASSERT_EQ(stepped.sim.step(), 0);
  EXPECT_EQ(stepped.ctx.counters.dmiss_block_cycles, 3u);
  EXPECT_EQ(stepped.ctx.counters.imiss_block_cycles, 5u);

  GateWindows skipped;
  EXPECT_EQ(skipped.sim.fast_forward(~0ull), 12u);
  EXPECT_EQ(skipped.ctx.counters, stepped.ctx.counters);
  EXPECT_EQ(skipped.sim.stats(), stepped.sim.stats());
  EXPECT_EQ(skipped.sim.stats().vertical_waste_cycles, 12u);

  EXPECT_EQ(stepped.sim.step(), 1);  // cycle 13: every gate is open
  EXPECT_EQ(skipped.sim.step(), 1);
}

TEST(FastForward, SkipsEndingInsideAWindowChargeOnlyTheirOwnCycles) {
  // Three skips split at limits `a` and `b`, so spans start and end inside
  // every window, including spans that end below a later gate.
  for (std::uint64_t a = 1; a <= 13; ++a) {
    for (std::uint64_t b = a; b <= 13; ++b) {
      GateWindows w;
      const std::uint64_t first = w.sim.fast_forward(a);
      const std::uint64_t second = w.sim.fast_forward(b);
      const std::uint64_t third = w.sim.fast_forward(~0ull);
      const std::string at =
          "limits " + std::to_string(a) + ", " + std::to_string(b);
      EXPECT_EQ(first + second + third, 12u) << at;
      EXPECT_EQ(w.ctx.counters.dmiss_block_cycles, 3u) << at;
      EXPECT_EQ(w.ctx.counters.imiss_block_cycles, 5u) << at;
    }
  }
}

TEST(FastForward, DrainChargesNoThread) {
  // Under drain no thread starts an instruction, so no gate is charged: the
  // empty cycles count as drain cycles only.
  GateWindows stepped;
  stepped.sim.set_drain(true);
  for (int i = 0; i < 20; ++i) ASSERT_EQ(stepped.sim.step(), 0);
  GateWindows skipped;
  skipped.sim.set_drain(true);
  EXPECT_EQ(skipped.sim.fast_forward(21), 20u);
  for (const GateWindows* w : {&stepped, &skipped}) {
    EXPECT_EQ(w->ctx.counters, ThreadCounters{});
    EXPECT_EQ(w->sim.stats().drain_cycles, 20u);
    EXPECT_EQ(w->sim.stats().vertical_waste_cycles, 20u);
  }
}

}  // namespace
}  // namespace vexsim
