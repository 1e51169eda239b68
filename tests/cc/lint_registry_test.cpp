// Negative lint coverage: every registry kernel under every compiler
// pass-pipeline variant must produce a zero-finding lint report — the same
// invariant tools/vexlint gates in CI over the full grid, kept here at
// reduced scale so the fast suite exercises it on every run.
#include <gtest/gtest.h>

#include "cc/ir.hpp"
#include "cc/lint.hpp"
#include "cc/options.hpp"
#include "cc/pipeline.hpp"
#include "isa/config.hpp"
#include "support/test_util.hpp"
#include "workloads/registry.hpp"

namespace vexsim::cc {
namespace {

constexpr double kScale = 0.05;

class LintRegistryTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LintRegistryTest, EveryKernelIsFindingFree) {
  const MachineConfig cfg = MachineConfig::paper_single();
  const CompilerOptions opt = CompilerOptions::parse(GetParam());
  for (const wl::BenchmarkInfo& info : wl::benchmark_registry()) {
    const auto prog = wl::make_benchmark(info.name, cfg, kScale, opt);
    const LintReport report = lint_program(*prog, cfg);
    EXPECT_TRUE(report.findings.empty())
        << info.name << "/" << GetParam() << ": "
        << to_string(*prog, report.findings.front());
  }
}

TEST_P(LintRegistryTest, SynthSpecsAreFindingFree) {
  const MachineConfig cfg = MachineConfig::paper_single();
  const CompilerOptions opt = CompilerOptions::parse(GetParam());
  for (const char* spec :
       {"synth:i0.5-m0.2-p0.5-s1", "synth:i0.9-m0.1-b0.3-s2"}) {
    const auto prog = wl::make_benchmark(spec, cfg, kScale, opt);
    const LintReport report = lint_program(*prog, cfg);
    EXPECT_TRUE(report.findings.empty())
        << spec << "/" << GetParam() << ": "
        << to_string(*prog, report.findings.front());
  }
}

// With verify_each_pass, the static checkers run at every pass boundary —
// a clean compile must stay clean (and produce the identical program, since
// checking is diagnostic-only).
TEST_P(LintRegistryTest, VerifyEachPassIsCleanAndCodegenNeutral) {
  const MachineConfig cfg = MachineConfig::paper_single();
  CompilerOptions opt = CompilerOptions::parse(GetParam());
  const auto plain = wl::make_benchmark("idct", cfg, kScale, opt);
  opt.verify_each_pass = true;
  const auto checked = wl::make_benchmark("idct", cfg, kScale, opt);
  ASSERT_EQ(plain->size(), checked->size());
  for (std::size_t pc = 0; pc < plain->size(); ++pc)
    EXPECT_TRUE(test::same_insn(plain->insn(pc), checked->insn(pc)))
        << "pc " << pc;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, LintRegistryTest,
                         ::testing::Values("greedy", "cost", "cost_swp",
                                           "greedy_swp"));

IrFunction tiny_fn() {
  Builder b("tiny");
  const VReg base = b.movi(0x2000);
  const VReg x = b.load(Opcode::kLdw, base, 0, kMemSpaceReadOnly);
  const VReg y = b.mpyi(x, 5);
  b.store(Opcode::kStw, base, 64, y);
  b.halt();
  return std::move(b).take();
}

// A pass that corrupts the lowered IR must be caught at its own boundary,
// attributed by name — not at program-verify three passes later.
class ClobberPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "clobber"; }
  void run(PassContext& ctx) const override {
    ctx.lfn.blocks.at(0).body.at(0).cluster = 7;  // nonexistent cluster
  }
};

TEST(PipelineVerifyEachPass, AttributesViolationToTheGuiltyPass) {
  const MachineConfig cfg = MachineConfig::paper_single();
  CompilerOptions opt;
  opt.verify_each_pass = true;
  Pipeline pipeline;
  pipeline.add(make_ir_verify_pass())
      .add(make_cluster_assign_pass())
      .add(std::make_unique<ClobberPass>());
  PassContext ctx(cfg, opt, tiny_fn());
  try {
    pipeline.run_passes(ctx);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("after pass 'clobber'"), std::string::npos) << what;
    EXPECT_NE(what.find("nonexistent cluster 7"), std::string::npos) << what;
  }
}

TEST(PipelineVerifyEachPass, CleanPipelinePassesEveryBoundary) {
  const MachineConfig cfg = MachineConfig::paper_single();
  CompilerOptions opt = CompilerOptions::parse("cost_swp");
  opt.verify_each_pass = true;
  EXPECT_NO_THROW(
      (void)Pipeline::standard(opt).run(tiny_fn(), cfg, opt));
}

}  // namespace
}  // namespace vexsim::cc
