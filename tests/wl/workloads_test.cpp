#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/experiments.hpp"
#include "workloads/registry.hpp"

namespace vexsim::wl {
namespace {

TEST(Workloads, NineMixesMatchFigure13b) {
  const auto& specs = paper_workloads();
  ASSERT_EQ(specs.size(), 9u);
  EXPECT_EQ(specs[0].name, "llll");
  EXPECT_EQ(specs[8].name, "hhhh");
  const WorkloadSpec llhh = workload("llhh");
  EXPECT_EQ(llhh.benchmarks,
            (std::vector<std::string>{"mcf", "blowfish", "x264", "idct"}));
  EXPECT_THROW((void)workload("zzzz"), CheckError);
}

TEST(Workloads, ResolvesSingleAndComposedComponentLists) {
  const WorkloadSpec single = workload("mcf");
  EXPECT_EQ(single.benchmarks, (std::vector<std::string>{"mcf"}));

  const WorkloadSpec mixed = workload("mcf+synth:i0.8-s3+idct");
  EXPECT_EQ(mixed.name, "mcf+synth:i0.8-s3+idct");
  EXPECT_EQ(mixed.benchmarks,
            (std::vector<std::string>{"mcf", "synth:i0.8-s3", "idct"}));

  // Six components fill a six-context machine.
  const WorkloadSpec six = workload(
      "synth:i0.9-s1+synth:i0.9-s2+synth:i0.5-s3+synth:i0.5-s4+"
      "synth:i0.1-s5+synth:i0.1-s6");
  EXPECT_EQ(six.benchmarks.size(), 6u);
}

TEST(Workloads, UnknownNamesListValidOnes) {
  try {
    (void)workload("zzzz");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("llll"), std::string::npos) << what;
    EXPECT_NE(what.find("hhhh"), std::string::npos) << what;
    EXPECT_NE(what.find("mcf"), std::string::npos) << what;
    EXPECT_NE(what.find("synth:"), std::string::npos) << what;
  }
  // A bad component inside a composed list is reported too.
  EXPECT_THROW((void)workload("mcf+nonesuch"), CheckError);
  EXPECT_THROW((void)workload("mcf+"), CheckError);
  // Malformed synth components propagate the grammar error.
  EXPECT_THROW((void)workload("synth:q1"), CheckError);

  try {
    (void)benchmark_info("nonesuch");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mcf"), std::string::npos) << what;
    EXPECT_NE(what.find("colorspace"), std::string::npos) << what;
  }
}

TEST(Workloads, VariableLengthMixFillsSixContexts) {
  harness::ExperimentOptions opt;
  opt.scale = 0.02;
  opt.budget = 8'000;
  opt.timeslice = 4'000;
  opt.max_cycles = 20'000'000;
  const RunResult r = harness::run_workload(
      "mcf+djpeg+idct+synth:i0.8-s1+synth:i0.4-s2+synth:i0.1-s3", 6,
      Technique::smt(), opt);
  EXPECT_GT(r.ipc(), 0.0);
  ASSERT_EQ(r.instances.size(), 6u);
  for (const auto& inst : r.instances) EXPECT_FALSE(inst.faulted);
}

TEST(Workloads, NamesEncodeIlpClasses) {
  // Each mix's label must match the classes of its benchmarks, in order.
  for (const WorkloadSpec& spec : paper_workloads()) {
    ASSERT_EQ(spec.name.size(), 4u);
    std::string derived;
    for (const std::string& bench : spec.benchmarks)
      derived += static_cast<char>(benchmark_info(bench).ilp);
    // Labels are sorted combinations; the multiset of classes must agree.
    std::string label = spec.name;
    std::sort(label.begin(), label.end());
    std::sort(derived.begin(), derived.end());
    EXPECT_EQ(label, derived) << spec.name;
  }
}

TEST(Workloads, BuildProducesFourPrograms) {
  const MachineConfig cfg = MachineConfig::paper(2, Technique::csmt());
  const auto programs = build_workload(workload("mmmm"), cfg, 0.02);
  ASSERT_EQ(programs.size(), 4u);
  for (const auto& p : programs) EXPECT_TRUE(p->finalized());
}

TEST(Workloads, MixRunsUnderSmt) {
  harness::ExperimentOptions opt;
  opt.scale = 0.02;
  opt.budget = 20'000;
  opt.timeslice = 10'000;
  opt.max_cycles = 20'000'000;
  const RunResult r =
      harness::run_workload("llmm", 2, Technique::smt(), opt);
  EXPECT_GT(r.ipc(), 0.5);
  EXPECT_EQ(r.instances.size(), 4u);
  for (const auto& inst : r.instances) EXPECT_FALSE(inst.faulted);
}

TEST(Workloads, MultithreadingBeatsSingleThread) {
  harness::ExperimentOptions opt;
  opt.scale = 0.02;
  opt.budget = 20'000;
  opt.timeslice = 5'000;
  opt.max_cycles = 20'000'000;
  const RunResult smt2 = harness::run_workload("llmm", 2, Technique::smt(), opt);
  const RunResult smt4 = harness::run_workload("llmm", 4, Technique::smt(), opt);
  // More thread contexts → more merging opportunities → higher IPC.
  EXPECT_GT(smt4.ipc(), smt2.ipc() * 0.95);
  EXPECT_GT(smt2.ipc(), 0.0);
}


TEST(Workloads, MemoKeyIncludesCompilerOptions) {
  // Regression: the benchmark memo once keyed only on (name, geometry,
  // latencies, scale); any compiler knob would silently serve a program
  // compiled with different settings.
  const MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  const auto greedy = make_benchmark("idct", cfg, 0.1,
                                     cc::CompilerOptions::parse("greedy"));
  const auto swp = make_benchmark("idct", cfg, 0.1,
                                  cc::CompilerOptions::parse("greedy_swp"));
  EXPECT_NE(greedy.get(), swp.get());
  EXPECT_TRUE(greedy->kernels.empty());
  EXPECT_FALSE(swp->kernels.empty());
  // Same options again: the memo must serve the same program object.
  const auto again = make_benchmark("idct", cfg, 0.1,
                                    cc::CompilerOptions::parse("greedy"));
  EXPECT_EQ(greedy.get(), again.get());
}

TEST(Workloads, SynthSpecCompilerFieldOverridesCaller) {
  const MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  // A spec that pins its compiler compiles the same program whatever the
  // caller passes — and shares one memo entry.
  const auto pinned_a =
      make_benchmark("synth:i0.5-m0.2-p0.7-s2-ccgreedy", cfg, 0.1,
                     cc::CompilerOptions::parse("cost_swp"));
  const auto pinned_b =
      make_benchmark("synth:i0.5-m0.2-p0.7-s2-ccgreedy", cfg, 0.1,
                     cc::CompilerOptions::parse("greedy"));
  EXPECT_EQ(pinned_a.get(), pinned_b.get());
}

TEST(Workloads, BuildWorkloadAggregatesCompileSummary) {
  const MachineConfig cfg = MachineConfig::paper(4, Technique::csmt());
  CompileSummary sum;
  const WorkloadSpec spec = workload("llmm");
  auto programs = build_workload(spec, cfg, 0.1, cc::CompilerOptions{}, &sum);
  ASSERT_EQ(programs.size(), 4u);
  EXPECT_TRUE(sum.present);
  std::uint64_t instr = 0;
  for (const auto& p : programs) instr += p->size();
  EXPECT_EQ(sum.instructions, instr);
  EXPECT_GT(sum.ops_per_instruction(), 1.0);
}

}  // namespace
}  // namespace vexsim::wl
