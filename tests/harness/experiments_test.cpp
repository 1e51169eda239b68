#include "harness/experiments.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "support/test_util.hpp"
#include "util/check.hpp"

namespace vexsim::harness {
namespace {

Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Experiments, OptionsFromCliDefaults) {
  const auto opt = ExperimentOptions::from_cli(make_cli({}));
  EXPECT_EQ(opt.budget, 250'000u);
  EXPECT_EQ(opt.timeslice, 100'000u);
  EXPECT_EQ(opt.seed, 42u);
}

TEST(Experiments, PaperFlagRestoresPaperScale) {
  const auto opt = ExperimentOptions::from_cli(make_cli({"--paper"}));
  EXPECT_EQ(opt.budget, 200'000'000u);
  EXPECT_EQ(opt.timeslice, 5'000'000u);
  EXPECT_DOUBLE_EQ(opt.scale, 1.0);
}

TEST(Experiments, ExplicitFlagsOverride) {
  const auto opt = ExperimentOptions::from_cli(
      make_cli({"--quick", "--budget", "12345", "--seed=9"}));
  EXPECT_EQ(opt.budget, 12345u);
  EXPECT_EQ(opt.seed, 9u);
}

TEST(Experiments, RunLengthsBelowOneAreRejected) {
  // A negative run length must not wrap to 2^64 - 1 (a sweep that never
  // ends, or a machine that never switches contexts).
  for (const char* flag : {"--budget", "--timeslice"}) {
    for (const char* value : {"-1", "0"}) {
      try {
        (void)ExperimentOptions::from_cli(make_cli({"--quick", flag, value}));
        FAIL() << flag << " " << value << " was accepted";
      } catch (const CheckError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(flag), std::string::npos) << what;
      }
    }
  }
  const auto opt = ExperimentOptions::from_cli(
      make_cli({"--budget", "1", "--timeslice", "1"}));
  EXPECT_EQ(opt.budget, 1u);
  EXPECT_EQ(opt.timeslice, 1u);
}

TEST(Experiments, ScaleAtOrBelowZeroIsRejected) {
  // A meaningless scale must not run, nor key the cache and workload memo.
  for (const char* value : {"-1", "0"}) {
    try {
      (void)ExperimentOptions::from_cli(make_cli({"--quick", "--scale", value}));
      FAIL() << "--scale " << value << " was accepted";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--scale"), std::string::npos) << what;
    }
  }
  EXPECT_DOUBLE_EQ(
      ExperimentOptions::from_cli(make_cli({"--scale", "0.25"})).scale, 0.25);
}

TEST(Experiments, MachinesBeyondTheSimulatorsLimitsAreRejected) {
  // The simulator keeps per-context and per-cluster state in fixed arrays of
  // kMaxHwThreads and kMaxClusters entries.
  const ExperimentOptions opt;
  EXPECT_NO_THROW((void)opt.machine(kMaxHwThreads, Technique::smt()));
  EXPECT_THROW((void)opt.machine(kMaxHwThreads + 1, Technique::smt()),
               CheckError);
  ExperimentOptions wide;
  auto base = std::make_shared<MachineConfig>();
  base->clusters = kMaxClusters + 1;
  wide.base_machine = base;
  EXPECT_THROW((void)wide.machine(2, Technique::smt()), CheckError);
}

ExperimentOptions tiny() {
  ExperimentOptions opt;
  opt.scale = 0.02;
  opt.budget = 15'000;
  opt.timeslice = 8'000;
  opt.max_cycles = 20'000'000;
  return opt;
}

TEST(Experiments, RunSingleProducesSaneStats) {
  const RunResult r = run_single("djpeg", /*perfect=*/true, tiny());
  EXPECT_GT(r.ipc(), 0.5);
  EXPECT_EQ(r.issue_width, 16);
  EXPECT_EQ(r.instances.size(), 1u);
  EXPECT_GE(r.instances[0].instructions, tiny().budget);
}

TEST(Experiments, DriverParamsCarryEveryOption) {
  ExperimentOptions opt;
  opt.budget = 1'234;
  opt.timeslice = 567;
  opt.max_cycles = 89'000;
  opt.seed = 17;
  opt.fast_forward = false;
  const DriverParams p = driver_params(opt);
  EXPECT_EQ(p.budget, 1'234u);
  EXPECT_EQ(p.timeslice, 567u);
  EXPECT_EQ(p.max_cycles, 89'000u);
  EXPECT_EQ(p.seed, 17u);
  EXPECT_TRUE(p.respawn);
  EXPECT_FALSE(p.fast_forward);

  const DriverParams d = driver_params(ExperimentOptions{});
  EXPECT_TRUE(d.fast_forward);
}

TEST(Experiments, RunSingleHonoursFastForward) {
  // Real memory, so D-misses leave idle cycles for fast_forward to skip;
  // the statistics must not move. DriverParamsCarryEveryOption and
  // Driver.SimulatorFollowsTheFastForwardParam check that the setting
  // reaches the simulator.
  ExperimentOptions opt = tiny();
  opt.fast_forward = true;
  const RunResult skipping = run_single("djpeg", /*perfect=*/false, opt);
  opt.fast_forward = false;
  const RunResult stepping = run_single("djpeg", /*perfect=*/false, opt);
  ASSERT_EQ(skipping.instances.size(), 1u);
  test::expect_same_stats(skipping, stepping, "djpeg");
}

TEST(Experiments, RunWorkloadUsesFourInstances) {
  const RunResult r = run_workload("mmmm", 2, Technique::csmt(), tiny());
  EXPECT_EQ(r.instances.size(), 4u);
  EXPECT_GT(r.sim.multi_thread_cycles, 0u);
}

TEST(Experiments, SplitIssueNeverLosesMuch) {
  // Split-issue may reorder contention but must not regress meaningfully:
  // a standing sanity check on the whole pipeline.
  const ExperimentOptions opt = tiny();
  for (const char* w : {"llmm", "mmhh"}) {
    const double csmt = run_workload(w, 4, Technique::csmt(), opt).ipc();
    const double ccsi =
        run_workload(w, 4, Technique::ccsi(CommPolicy::kAlwaysSplit), opt)
            .ipc();
    EXPECT_GT(ccsi, csmt * 0.98) << w;
    const double smt = run_workload(w, 4, Technique::smt(), opt).ipc();
    const double oosi =
        run_workload(w, 4, Technique::oosi(CommPolicy::kAlwaysSplit), opt)
            .ipc();
    EXPECT_GT(oosi, smt * 0.98) << w;
  }
}

TEST(Experiments, OperationMergingBeatsClusterMerging) {
  // SMT ≥ CSMT (operation-level merging is strictly more permissive).
  const ExperimentOptions opt = tiny();
  const double csmt = run_workload("llmm", 4, Technique::csmt(), opt).ipc();
  const double smt = run_workload("llmm", 4, Technique::smt(), opt).ipc();
  EXPECT_GE(smt, csmt * 0.99);
}

}  // namespace
}  // namespace vexsim::harness
