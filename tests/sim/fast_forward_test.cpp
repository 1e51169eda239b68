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

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.sim.cycles, b.sim.cycles) << what;
  EXPECT_EQ(a.sim.ops_issued, b.sim.ops_issued) << what;
  EXPECT_EQ(a.sim.instructions_retired, b.sim.instructions_retired) << what;
  EXPECT_EQ(a.sim.split_instructions, b.sim.split_instructions) << what;
  EXPECT_EQ(a.sim.vertical_waste_cycles, b.sim.vertical_waste_cycles) << what;
  EXPECT_EQ(a.sim.multi_thread_cycles, b.sim.multi_thread_cycles) << what;
  EXPECT_EQ(a.sim.memport_stall_cycles, b.sim.memport_stall_cycles) << what;
  EXPECT_EQ(a.sim.drain_cycles, b.sim.drain_cycles) << what;
  EXPECT_EQ(a.sim.taken_branches, b.sim.taken_branches) << what;
  EXPECT_EQ(a.sim.faults, b.sim.faults) << what;
  EXPECT_EQ(a.icache.hits, b.icache.hits) << what;
  EXPECT_EQ(a.icache.misses, b.icache.misses) << what;
  EXPECT_EQ(a.dcache.hits, b.dcache.hits) << what;
  EXPECT_EQ(a.dcache.misses, b.dcache.misses) << what;
  EXPECT_EQ(a.merge.full_selections, b.merge.full_selections) << what;
  EXPECT_EQ(a.merge.partial_selections, b.merge.partial_selections) << what;
  EXPECT_EQ(a.merge.blocked_selections, b.merge.blocked_selections) << what;
  EXPECT_EQ(a.merge.comm_nosplit_forced, b.merge.comm_nosplit_forced) << what;
  ASSERT_EQ(a.instances.size(), b.instances.size()) << what;
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].instructions, b.instances[i].instructions)
        << what << "/" << i;
    EXPECT_EQ(a.instances[i].respawns, b.instances[i].respawns)
        << what << "/" << i;
    EXPECT_EQ(a.instances[i].arch_fingerprint,
              b.instances[i].arch_fingerprint)
        << what << "/" << i;
    EXPECT_EQ(a.instances[i].counters.dmiss_block_cycles,
              b.instances[i].counters.dmiss_block_cycles)
        << what << "/" << i;
    EXPECT_EQ(a.instances[i].counters.imiss_block_cycles,
              b.instances[i].counters.imiss_block_cycles)
        << what << "/" << i;
    EXPECT_EQ(a.instances[i].counters.taken_branches,
              b.instances[i].counters.taken_branches)
        << what << "/" << i;
    EXPECT_EQ(a.instances[i].counters.split_instructions,
              b.instances[i].counters.split_instructions)
        << what << "/" << i;
  }
}

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
      expect_identical(base, fast, std::string(workload) + "/" + t.name());
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
    expect_identical(base, fast, bench);
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

}  // namespace
}  // namespace vexsim
