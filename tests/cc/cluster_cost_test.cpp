// Cost-model cluster assignment: legality on symmetric and asymmetric
// machines, capacity-proportional filling, and compile quality against the
// greedy baseline where the model is designed to win.
#include <gtest/gtest.h>

#include "cc/cluster_cost.hpp"
#include "cc/compiler.hpp"
#include "cc/irgen.hpp"
#include "cc/verifier.hpp"
#include "sim/reference.hpp"
#include "support/test_util.hpp"
#include "wl_synth/generate.hpp"

namespace vexsim::cc {
namespace {

MachineConfig asym_cfg() {
  MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  cfg.branch_on_cluster0_only = false;
  cfg.cluster_renaming = false;
  cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                           ClusterResourceConfig::for_issue_width(4),
                           ClusterResourceConfig::for_issue_width(2),
                           ClusterResourceConfig::for_issue_width(2)};
  cfg.validate();
  return cfg;
}

TEST(ClusterCost, HeightsFollowRawChains) {
  Builder b("h");
  const VReg x = b.movi(1);          // feeds a 3-op chain
  const VReg y = b.alui(Opcode::kAdd, x, 1);
  const VReg z = b.mpyi(y, 3);       // mul latency 2
  b.store(Opcode::kStw, b.movi(0x2000), 0, z);
  b.halt();
  const IrFunction fn = std::move(b).take();
  const std::vector<int> h = ir_block_heights(fn.blocks[0], LatencyConfig{});
  // The store defines nothing (height 0); each producer adds its own
  // latency on top of its highest reader.
  ASSERT_EQ(h.size(), 5u);
  EXPECT_GT(h[0], h[1]);
  EXPECT_GT(h[1], h[2]);
  EXPECT_EQ(h[2], 2);  // mul latency over the store's height of 0
  EXPECT_EQ(h[4], 0);  // the store itself
}

TEST(ClusterCost, RandomIrLegalOnAsymmetricMachine) {
  const MachineConfig cfg = asym_cfg();
  for (std::uint64_t seed = 900; seed < 910; ++seed) {
    const GeneratedIr gen = generate_ir(seed);
    const Program prog =
        compile(gen.fn, cfg, CompilerOptions::parse("cost"), nullptr);
    EXPECT_TRUE(verify_program(prog, cfg).empty()) << "seed " << seed;
  }
}

TEST(ClusterCost, BeatsGreedyDensityOnHighIlpSynth) {
  // The CI compile-quality gate in bench/abl_compiler.cpp enforces this
  // over the sweep; this is the unit-level version on one machine.
  const MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  int wins = 0, points = 0;
  for (const char* spec : {"synth:i0.8-m0.2-s1", "synth:i0.9-m0.2-s7",
                           "synth:i0.95-m0.1-s3"}) {
    CompileStats greedy, cost;
    (void)wl_synth::generate(wl_synth::parse_spec(spec), cfg, 0.1,
                             CompilerOptions::parse("greedy"), &greedy);
    (void)wl_synth::generate(wl_synth::parse_spec(spec), cfg, 0.1,
                             CompilerOptions::parse("cost"), &cost);
    ++points;
    EXPECT_GE(cost.ops_per_instruction(),
              greedy.ops_per_instruction() - 1e-9)
        << spec;
    if (cost.ops_per_instruction() > greedy.ops_per_instruction() + 1e-9)
      ++wins;
  }
  EXPECT_GT(wins, 0) << "cost model never improved density";
  (void)points;
}

TEST(ClusterCost, ShorterScheduleOnAsymmetricMachine) {
  // Greedy's flat load counter overloads the narrow clusters of the
  // 8+4+2+2 machine; the capacity-aware model must not be longer in
  // aggregate.
  const MachineConfig cfg = asym_cfg();
  int greedy_total = 0, cost_total = 0;
  for (const char* spec : {"synth:i0.8-m0.2-s1", "synth:i0.9-m0.2-s7",
                           "synth:i0.5-m0.2-b0.05-s1"}) {
    CompileStats greedy, cost;
    (void)wl_synth::generate(wl_synth::parse_spec(spec), cfg, 0.1,
                             CompilerOptions::parse("greedy"), &greedy);
    (void)wl_synth::generate(wl_synth::parse_spec(spec), cfg, 0.1,
                             CompilerOptions::parse("cost"), &cost);
    greedy_total += greedy.instructions;
    cost_total += cost.instructions;
  }
  EXPECT_LE(cost_total, greedy_total);
}

TEST(ClusterCost, ArchitecturallyExactOnAsymmetricMachine) {
  const MachineConfig cfg = asym_cfg();
  for (std::uint64_t seed = 920; seed < 926; ++seed) {
    const GeneratedIr gen = generate_ir(seed);
    Program prog =
        compile(gen.fn, cfg, CompilerOptions::parse("cost"), nullptr);
    prog.add_data_words(gen.data_base, gen.init_words);
    auto shared = std::make_shared<const Program>(std::move(prog));
    Simulator sim(cfg);
    ThreadContext sim_ctx(0, shared);
    sim.attach(0, &sim_ctx);
    ASSERT_TRUE(sim.run_to_halt(4'000'000)) << seed;
    ReferenceInterpreter ref(cfg.clusters);
    ThreadContext ref_ctx(0, shared);
    ASSERT_TRUE(ref.run(ref_ctx, 20'000'000).halted) << seed;
    EXPECT_EQ(sim_ctx.arch_fingerprint(cfg.clusters),
              ref_ctx.arch_fingerprint(cfg.clusters))
        << seed;
  }
}

}  // namespace
}  // namespace vexsim::cc
