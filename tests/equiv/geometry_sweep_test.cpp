// Equivalence across machine geometries: the correctness property must hold
// for any cluster count / issue width, not just the paper machine.
#include <gtest/gtest.h>

#include "cc/compiler.hpp"
#include "cc/irgen.hpp"
#include "sim/driver.hpp"
#include "sim/reference.hpp"
#include "support/test_util.hpp"

namespace vexsim {
namespace {

struct Geometry {
  int clusters;
  int issue;
};

class GeometryEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(GeometryEquivalence, StateMatchesReference) {
  const auto [clusters, issue, seed] = GetParam();
  MachineConfig cfg;
  cfg.clusters = clusters;
  cfg.cluster.issue_slots = issue;
  cfg.cluster.alus = issue;
  cfg.cluster.muls = std::max(1, issue / 2);
  cfg.cluster.mem_units = 1;
  cfg.hw_threads = 2;
  cfg.icache.perfect = false;
  cfg.dcache.perfect = false;
  cfg.validate();

  const cc::GeneratedIr gen = cc::generate_ir(seed);
  Program compiled = cc::compile(gen.fn, cfg);
  compiled.add_data_words(gen.data_base, gen.init_words);
  auto prog = std::make_shared<const Program>(std::move(compiled));

  ThreadContext ref_ctx(0, prog);
  ReferenceInterpreter ref(cfg.clusters);
  const RefResult rr = ref.run(ref_ctx, 50'000'000);
  ASSERT_TRUE(rr.halted);
  const std::uint64_t expected = ref_ctx.arch_fingerprint(cfg.clusters);

  for (const Technique t :
       {Technique::csmt(), Technique::ccsi(CommPolicy::kAlwaysSplit),
        Technique::smt(), Technique::oosi(CommPolicy::kAlwaysSplit)}) {
    MachineConfig run_cfg = cfg;
    run_cfg.technique = t;
    run_cfg.validate();
    DriverParams params;
    params.respawn = false;
    params.budget = ~0ull;
    params.timeslice = 700;
    params.max_cycles = 50'000'000;
    MultiprogramDriver driver(run_cfg, {prog, prog}, params);
    const RunResult result = driver.run();
    for (const InstanceResult& inst : result.instances) {
      EXPECT_FALSE(inst.faulted) << t.name();
      EXPECT_EQ(inst.arch_fingerprint, expected)
          << t.name() << " on " << clusters << "x" << issue << " seed "
          << seed;
      EXPECT_EQ(inst.instructions, rr.instructions) << t.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometryEquivalence,
    ::testing::Values(std::tuple{2, 2, 11ull}, std::tuple{2, 4, 12ull},
                      std::tuple{4, 2, 13ull}, std::tuple{4, 4, 14ull},
                      std::tuple{3, 3, 15ull}, std::tuple{8, 2, 16ull}));

}  // namespace
}  // namespace vexsim
