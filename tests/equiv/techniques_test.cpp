// The paper's central correctness claim, machine-checked: split-issue (at
// either granularity, with either communication policy) never changes
// execution semantics. Every technique must drive every thread to exactly
// the architectural state the reference interpreter computes.
#include <gtest/gtest.h>

#include "cc/compiler.hpp"
#include "cc/irgen.hpp"
#include "sim/driver.hpp"
#include "sim/reference.hpp"
#include "support/test_util.hpp"

namespace vexsim {
namespace {

using cc::GeneratedIr;
using cc::generate_ir;

std::shared_ptr<const Program> build_program(std::uint64_t seed,
                                             const MachineConfig& cfg) {
  const GeneratedIr gen = generate_ir(seed);
  Program prog = cc::compile(gen.fn, cfg);
  prog.add_data_words(gen.data_base, gen.init_words);
  return std::make_shared<const Program>(std::move(prog));
}

std::uint64_t reference_fingerprint(std::shared_ptr<const Program> prog,
                                    int clusters) {
  ThreadContext ctx(0, std::move(prog));
  ReferenceInterpreter ref(clusters);
  const RefResult r = ref.run(ctx, 50'000'000);
  EXPECT_TRUE(r.halted);
  return ctx.arch_fingerprint(clusters);
}

class TechniqueEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TechniqueEquivalence, AllTechniquesReachReferenceState) {
  const std::uint64_t seed = GetParam();
  // Four different programs sharing the machine.
  MachineConfig base = MachineConfig::paper(4, Technique::smt());
  base.branch_on_cluster0_only = false;
  std::vector<std::shared_ptr<const Program>> programs;
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 4; ++i) {
    programs.push_back(build_program(seed * 10 + static_cast<std::uint64_t>(i),
                                     base));
    expected.push_back(reference_fingerprint(programs.back(), base.clusters));
  }

  for (const Technique& t : Technique::kAll) {
    for (int threads : {2, 4}) {
      MachineConfig cfg = MachineConfig::paper(threads, t);
      cfg.branch_on_cluster0_only = false;
      DriverParams params;
      params.respawn = false;  // run each program exactly once
      params.budget = ~0ull;
      params.timeslice = 400;  // force context switches mid-run
      params.max_cycles = 50'000'000;
      params.seed = seed;
      MultiprogramDriver driver(cfg, programs, params);
      const RunResult result = driver.run();
      ASSERT_EQ(result.instances.size(), 4u);
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_FALSE(result.instances[i].faulted)
            << t.name() << " " << threads << "T seed " << seed;
        EXPECT_EQ(result.instances[i].arch_fingerprint, expected[i])
            << t.name() << " " << threads << "T program " << i << " seed "
            << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TechniqueEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(TechniqueEquivalenceExtra, RealCachesDoNotChangeResults) {
  // Timing features (cache misses, stalls) must never alter semantics.
  const std::uint64_t seed = 77;
  MachineConfig cfg =
      MachineConfig::paper(2, Technique::ccsi(CommPolicy::kAlwaysSplit));
  cfg.branch_on_cluster0_only = false;
  cfg.icache.perfect = false;
  cfg.dcache.perfect = false;
  std::vector<std::shared_ptr<const Program>> programs = {
      build_program(seed, cfg), build_program(seed + 1, cfg)};
  std::vector<std::uint64_t> expected = {
      reference_fingerprint(programs[0], cfg.clusters),
      reference_fingerprint(programs[1], cfg.clusters)};
  DriverParams params;
  params.respawn = false;
  params.budget = ~0ull;
  params.max_cycles = 50'000'000;
  MultiprogramDriver driver(cfg, programs, params);
  const RunResult result = driver.run();
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(result.instances[i].arch_fingerprint, expected[i]);
}

TEST(TechniqueEquivalenceExtra, RetiredInstructionCountsMatchReference) {
  const std::uint64_t seed = 31;
  MachineConfig cfg = MachineConfig::paper(2, Technique::oosi(CommPolicy::kAlwaysSplit));
  cfg.branch_on_cluster0_only = false;
  auto prog = build_program(seed, cfg);
  ThreadContext ref_ctx(0, prog);
  ReferenceInterpreter ref(cfg.clusters);
  const RefResult rr = ref.run(ref_ctx, 50'000'000);

  DriverParams params;
  params.respawn = false;
  params.budget = ~0ull;
  params.max_cycles = 50'000'000;
  MultiprogramDriver driver(cfg, {prog, prog}, params);
  const RunResult result = driver.run();
  for (const InstanceResult& inst : result.instances)
    EXPECT_EQ(inst.instructions, rr.instructions);
}

}  // namespace
}  // namespace vexsim
