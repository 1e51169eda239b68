// The explicit pass pipeline: pass selection per CompilerOptions, partial
// pipelines exposing intermediate artifacts, and stats accounting.
#include <gtest/gtest.h>

#include "cc/pipeline.hpp"
#include "support/test_util.hpp"

namespace vexsim::cc {
namespace {

MachineConfig cfg4() {
  MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  cfg.branch_on_cluster0_only = false;
  return cfg;
}

IrFunction tiny_fn() {
  Builder b("tiny");
  const VReg base = b.movi(0x2000);
  const VReg x = b.load(Opcode::kLdw, base, 0, kMemSpaceReadOnly);
  const VReg y = b.mpyi(x, 5);
  b.store(Opcode::kStw, base, 64, y);
  b.halt();
  return std::move(b).take();
}

TEST(Pipeline, StandardPassOrder) {
  const std::vector<std::string> plain =
      Pipeline::standard(CompilerOptions::parse("greedy")).pass_names();
  const std::vector<std::string> expect_plain = {
      "ir-verify", "cluster-assign", "list-sched",
      "regalloc",  "emit",           "program-verify"};
  EXPECT_EQ(plain, expect_plain);

  const std::vector<std::string> swp =
      Pipeline::standard(CompilerOptions::parse("cost_swp")).pass_names();
  const std::vector<std::string> expect_swp = {
      "ir-verify", "cluster-assign", "modulo-sched", "list-sched",
      "regalloc",  "emit",           "program-verify"};
  EXPECT_EQ(swp, expect_swp);
}

TEST(Pipeline, PartialPipelineExposesArtifacts) {
  const MachineConfig cfg = cfg4();
  PassContext ctx(cfg, CompilerOptions{}, tiny_fn());
  Pipeline partial;
  partial.add(make_ir_verify_pass())
      .add(make_cluster_assign_pass())
      .add(make_list_sched_pass());
  partial.run_passes(ctx);
  ASSERT_FALSE(ctx.lfn.blocks.empty());
  ASSERT_EQ(ctx.sched.blocks.size(), ctx.lfn.blocks.size());
  EXPECT_EQ(ctx.prog.size(), 0u);  // emit has not run

  Pipeline rest;
  rest.add(make_regalloc_pass()).add(make_emit_pass()).add(
      make_program_verify_pass());
  rest.run_passes(ctx);
  EXPECT_NE(ctx.prog.size(), 0u);
  EXPECT_TRUE(ctx.prog.finalized());
}

TEST(Pipeline, RunMatchesCompileEntryPoint) {
  const MachineConfig cfg = cfg4();
  const CompilerOptions opt = CompilerOptions::parse("cost");
  CompileStats s1, s2;
  const Program a =
      Pipeline::standard(opt).run(tiny_fn(), cfg, opt, &s1);
  const Program b = compile(tiny_fn(), cfg, opt, &s2);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(s1.instructions, s2.instructions);
  EXPECT_EQ(s1.operations, s2.operations);
}

TEST(Pipeline, DefaultOptionsReproduceLegacyCompile) {
  // The two-argument compile() is the seed interface; it must be the
  // default pipeline exactly.
  const MachineConfig cfg = cfg4();
  CompileStats s1, s2;
  const Program a = compile(tiny_fn(), cfg, &s1);
  const Program b = compile(tiny_fn(), cfg, CompilerOptions{}, &s2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (int c = 0; c < cfg.clusters; ++c)
      EXPECT_EQ(a.insn(i).bundle(c).size(), b.insn(i).bundle(c).size());
  EXPECT_EQ(s1.instructions, s2.instructions);
}

TEST(Pipeline, StatsAccounting) {
  const MachineConfig cfg = cfg4();
  CompileStats stats;
  const Program prog = compile(tiny_fn(), cfg, CompilerOptions{}, &stats);
  EXPECT_EQ(stats.instructions, static_cast<int>(prog.size()));
  int ops = 0;
  for (std::size_t pc = 0; pc < prog.size(); ++pc)
    ops += prog.insn(pc).op_count();
  EXPECT_EQ(stats.operations, ops);
  EXPECT_EQ(stats.swp_loops, 0);
}

}  // namespace
}  // namespace vexsim::cc
