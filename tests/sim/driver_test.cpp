// Multiprogrammed driver: timeslicing, random replacement, respawn, budget
// termination (Section VI-A).
#include "sim/driver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

// A short counted loop: 10 iterations, ~43 VLIW instructions per completion.
std::shared_ptr<const Program> loop_program(const std::string& name) {
  return test::shared(assemble(
      "c0 movi r1 = 10\n"
      "top:\n"
      "c0 add r2 = r2, 1\n"
      "c0 add r1 = r1, -1\n"
      "c0 cmpgt b0 = r1, 0\n"
      "nop\n"
      "c0 br b0, top\n"
      "c0 halt\n",
      name));
}

MachineConfig machine(int threads) {
  return test::example_machine(4, 4, threads, Technique::smt());
}

TEST(Driver, SingleProgramRunsToBudget) {
  DriverParams params;
  params.budget = 500;
  params.timeslice = 1'000'000;
  params.max_cycles = 1'000'000;
  MultiprogramDriver driver(machine(1), {loop_program("a")}, params);
  const RunResult r = driver.run();
  ASSERT_EQ(r.instances.size(), 1u);
  EXPECT_GE(r.instances[0].instructions, 500u);
  EXPECT_GT(r.instances[0].respawns, 1u);  // 43 instructions per pass
  EXPECT_GT(r.ipc(), 0.0);
}

TEST(Driver, RespawnDisabledRunsOnce) {
  DriverParams params;
  params.budget = 1'000'000;
  params.respawn = false;
  params.max_cycles = 100'000;
  MultiprogramDriver driver(machine(1), {loop_program("a")}, params);
  const RunResult r = driver.run();
  EXPECT_EQ(r.instances[0].respawns, 0u);
  EXPECT_LT(r.instances[0].instructions, 100u);
}

TEST(Driver, AllInstancesProgressUnderTimeslicing) {
  // 4 programs on a 2-thread machine: the rotating schedule must give every
  // instance cycles.
  DriverParams params;
  params.budget = 400;
  params.timeslice = 60;
  params.max_cycles = 1'000'000;
  params.seed = 7;
  std::vector<std::shared_ptr<const Program>> programs;
  for (int i = 0; i < 4; ++i)
    programs.push_back(loop_program("p" + std::to_string(i)));
  MultiprogramDriver driver(machine(2), programs, params);
  const RunResult r = driver.run();
  for (const InstanceResult& inst : r.instances)
    EXPECT_GT(inst.instructions, 0u) << inst.name;
}

TEST(Driver, BudgetStopsTheRun) {
  DriverParams params;
  params.budget = 100;
  params.max_cycles = 1'000'000;
  MultiprogramDriver driver(machine(1), {loop_program("a")}, params);
  const RunResult r = driver.run();
  // Stops promptly once an instance crosses the budget.
  EXPECT_LT(r.instances[0].instructions, 100u + 50u);
}

// A straight-line program of three instructions, the last one a halt.
std::shared_ptr<const Program> three_step_program(const std::string& name) {
  return test::shared(assemble(
      "c0 add r1 = r1, 1\n"
      "c0 add r1 = r1, 2\n"
      "c0 halt\n",
      name));
}

TEST(Driver, BudgetCrossedByAHaltStopsOnThatCycle) {
  // One slot, two instances, respawn on: instance 0 retires its sixth
  // instruction on its second halt, exactly at the budget. The exit
  // handling detaches it (no respawn at the budget) and pulls instance 1
  // into the slot on that same cycle; the run must still stop there.
  DriverParams params;
  params.budget = 6;
  params.max_cycles = 100'000;
  MultiprogramDriver driver(
      machine(1), {three_step_program("a"), three_step_program("b")}, params);
  const RunResult r = driver.run();
  ASSERT_EQ(r.instances.size(), 2u);
  EXPECT_EQ(r.instances[0].instructions, 6u);
  EXPECT_EQ(r.instances[0].respawns, 1u);
  EXPECT_EQ(r.instances[1].instructions, 0u);
  EXPECT_EQ(r.sim.instructions_retired, 6u);
  int at_budget = 0;
  for (const InstanceResult& inst : r.instances)
    if (inst.instructions >= params.budget) ++at_budget;
  EXPECT_EQ(at_budget, 1);
  // The same instance alone ends on the same cycle (nothing left to run).
  MultiprogramDriver solo(machine(1), {three_step_program("a")}, params);
  EXPECT_EQ(r.sim.cycles, solo.run().sim.cycles);
}

TEST(Driver, DeterministicForSeed) {
  auto run_once = [](std::uint64_t seed) {
    DriverParams params;
    params.budget = 300;
    params.timeslice = 50;
    params.max_cycles = 1'000'000;
    params.seed = seed;
    std::vector<std::shared_ptr<const Program>> programs;
    for (int i = 0; i < 4; ++i)
      programs.push_back(loop_program("p" + std::to_string(i)));
    MultiprogramDriver driver(machine(2), programs, params);
    return driver.run();
  };
  const RunResult a = run_once(5);
  const RunResult b = run_once(5);
  EXPECT_EQ(a.sim.cycles, b.sim.cycles);
  EXPECT_EQ(a.sim.ops_issued, b.sim.ops_issued);
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].instructions, b.instances[i].instructions);
    EXPECT_EQ(a.instances[i].arch_fingerprint,
              b.instances[i].arch_fingerprint);
  }
}

TEST(Driver, TwoThreadsImproveThroughput) {
  auto ipc_for = [](int threads) {
    DriverParams params;
    params.budget = 400;
    params.timeslice = 1'000;
    params.max_cycles = 1'000'000;
    std::vector<std::shared_ptr<const Program>> programs = {
        loop_program("a"), loop_program("b")};
    MultiprogramDriver driver(machine(threads), programs, params);
    return driver.run().ipc();
  };
  // The loop is serial (IPC ≈ 1 alone); two threads merge nearly perfectly
  // at operation level, so machine throughput almost doubles.
  EXPECT_GT(ipc_for(2), ipc_for(1) * 1.5);
}

TEST(Driver, RunToCompletionMode) {
  DriverParams params;
  params.budget = 1'000'000;
  params.respawn = false;
  params.max_cycles = 100'000;
  std::vector<std::shared_ptr<const Program>> programs = {
      loop_program("a"), loop_program("b"), loop_program("c")};
  MultiprogramDriver driver(machine(2), programs, params);
  const RunResult r = driver.run();
  // All three ran to completion (the third was picked up when a slot freed).
  for (const InstanceResult& inst : r.instances) {
    EXPECT_GT(inst.instructions, 40u);
    EXPECT_FALSE(inst.faulted);
  }
}

TEST(Driver, WasteAccountingIdentity) {
  DriverParams params;
  params.budget = 300;
  params.max_cycles = 1'000'000;
  MultiprogramDriver driver(machine(1), {loop_program("a")}, params);
  const RunResult r = driver.run();
  // issued ops + wasted slots = cycles × width.
  const double total_slots =
      static_cast<double>(r.sim.cycles) * r.issue_width;
  const double vertical = static_cast<double>(r.sim.vertical_waste_cycles) *
                          r.issue_width;
  const double horizontal =
      r.sim.horizontal_waste_fraction(r.issue_width) * total_slots;
  EXPECT_NEAR(static_cast<double>(r.sim.ops_issued) + vertical + horizontal,
              total_slots, 1.0);
}

// Four loop programs on two threads, long enough for many deadline polls.
MultiprogramDriver polled_driver(bool fast_forward) {
  DriverParams params;
  params.budget = 20'000;
  params.timeslice = 700;
  params.max_cycles = 1'000'000;
  params.seed = 11;
  params.fast_forward = fast_forward;
  std::vector<std::shared_ptr<const Program>> programs;
  for (int i = 0; i < 4; ++i)
    programs.push_back(loop_program("p" + std::to_string(i)));
  return MultiprogramDriver(machine(2), programs, params);
}

TEST(Driver, SimulatorFollowsTheFastForwardParam) {
  // The harness turns fast-forward off through DriverParams alone, so the
  // driver must hand the setting to its simulator both ways.
  EXPECT_TRUE(polled_driver(true).simulator().fast_forward_enabled());
  EXPECT_FALSE(polled_driver(false).simulator().fast_forward_enabled());
}

TEST(Driver, PassedDeadlineThrowsBeforeTheFirstCycle) {
  MultiprogramDriver driver = polled_driver(true);
  EXPECT_THROW((void)driver.run(std::chrono::steady_clock::now()),
               DeadlineExceeded);
  for (std::size_t i = 0; i < driver.num_instances(); ++i)
    EXPECT_EQ(driver.instance(i).total_instructions, 0u) << i;
}

TEST(Driver, DeadlineStopsALongRunPromptly) {
  // Unbounded by its budget, this run would last ~10^8 cycles; the deadline
  // must end it at the first poll past 20 ms instead.
  DriverParams params;
  params.budget = ~0ull;
  params.max_cycles = 100'000'000;
  MultiprogramDriver driver(machine(1), {loop_program("a")}, params);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      (void)driver.run(start + std::chrono::milliseconds(20)),
      DeadlineExceeded);
  EXPECT_GT(driver.instance(0).total_instructions, 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(Driver, UnreachedDeadlineLeavesTheRunUnchanged) {
  // Polling reads the clock and nothing else: every statistic matches a run
  // without a deadline, under fast-forward and the cycle-by-cycle loop.
  for (const bool ff : {true, false}) {
    SCOPED_TRACE(ff ? "fast-forward" : "cycle by cycle");
    const RunResult plain = polled_driver(ff).run();
    const RunResult timed = polled_driver(ff).run(
        std::chrono::steady_clock::now() + std::chrono::hours(1));
    ASSERT_GT(plain.sim.cycles, 4 * MultiprogramDriver::kDeadlinePollCycles);
    EXPECT_EQ(timed.sim, plain.sim);
    EXPECT_EQ(timed.icache, plain.icache);
    EXPECT_EQ(timed.dcache, plain.dcache);
    EXPECT_EQ(timed.memory, plain.memory);
    EXPECT_EQ(timed.merge, plain.merge);
    ASSERT_EQ(timed.instances.size(), plain.instances.size());
    for (std::size_t i = 0; i < plain.instances.size(); ++i) {
      EXPECT_EQ(timed.instances[i].instructions,
                plain.instances[i].instructions) << i;
      EXPECT_EQ(timed.instances[i].respawns, plain.instances[i].respawns)
          << i;
      EXPECT_EQ(timed.instances[i].arch_fingerprint,
                plain.instances[i].arch_fingerprint) << i;
    }
  }
}

}  // namespace
}  // namespace vexsim
