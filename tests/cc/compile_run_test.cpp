// End-to-end compiler correctness: compiled programs must compute the same
// architectural state on the cycle-accurate simulator as on the reference
// interpreter, for hand-written kernels and for random IR.
#include <gtest/gtest.h>

#include "cc/compiler.hpp"
#include "cc/irgen.hpp"
#include "cc/verifier.hpp"
#include "sim/reference.hpp"
#include "support/test_util.hpp"

namespace vexsim::cc {
namespace {

MachineConfig paper_cfg() {
  MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  cfg.branch_on_cluster0_only = false;
  cfg.icache.perfect = true;
  cfg.dcache.perfect = true;
  return cfg;
}

std::shared_ptr<const Program> finalize_gen(const GeneratedIr& gen,
                                            const MachineConfig& cfg) {
  Program prog = compile(gen.fn, cfg);
  prog.add_data_words(gen.data_base, gen.init_words);
  return std::make_shared<const Program>(std::move(prog));
}

TEST(CompileRun, DotProductMatchesExpectedValue) {
  Builder b("dot");
  const VReg base = b.movi(0x2000);
  VReg acc = b.movi(0);
  for (int i = 0; i < 4; ++i) {
    const VReg x = b.load(Opcode::kLdw, base, i * 4, kMemSpaceReadOnly);
    const VReg y = b.load(Opcode::kLdw, base, 16 + i * 4, kMemSpaceReadOnly);
    acc = b.alu(Opcode::kAdd, acc, b.mpy(x, y));
  }
  b.store(Opcode::kStw, base, 64, acc);
  b.halt();
  const MachineConfig cfg = paper_cfg();
  Program prog = compile(std::move(b).take(), cfg);
  prog.add_data_words(0x2000, {1, 2, 3, 4, 10, 20, 30, 40});
  auto shared = std::make_shared<const Program>(std::move(prog));

  Simulator sim(cfg);
  ThreadContext ctx(0, shared);
  sim.attach(0, &ctx);
  ASSERT_TRUE(sim.run_to_halt(10'000));
  EXPECT_EQ(ctx.mem.peek_u32(0x2000 + 64), 1u * 10 + 2 * 20 + 3 * 30 + 4 * 40);
}

TEST(CompileRun, LoopKernelMatchesReference) {
  Builder b("loop");
  const VReg base = b.movi(0x2000);
  const VReg n = b.fresh_global();
  const VReg sum = b.fresh_global();
  b.assign_i(n, 16);
  b.assign_i(sum, 0);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);
  const VReg idx = b.alui(Opcode::kShl, n, 2);
  const VReg addr = b.alu(Opcode::kAdd, base, idx);
  const VReg x = b.load(Opcode::kLdw, addr, -4, kMemSpaceReadOnly);
  b.assign_alu(sum, Opcode::kAdd, sum, b.mpyi(x, 3));
  b.assign_alui(n, Opcode::kAdd, n, -1);
  const VReg more = b.cmpi_b(Opcode::kCmpgt, n, 0);
  b.branch(more, body);
  const int fin = b.new_block();
  b.switch_to(fin);
  b.store(Opcode::kStw, base, 256, sum);
  b.halt();

  const MachineConfig cfg = paper_cfg();
  Program prog = compile(std::move(b).take(), cfg);
  std::vector<std::uint32_t> words;
  for (std::uint32_t i = 0; i < 16; ++i) words.push_back(i * i + 1);
  prog.add_data_words(0x2000, words);
  auto shared = std::make_shared<const Program>(std::move(prog));

  Simulator sim(cfg);
  ThreadContext sim_ctx(0, shared);
  sim.attach(0, &sim_ctx);
  ASSERT_TRUE(sim.run_to_halt(100'000));

  ReferenceInterpreter ref(cfg.clusters);
  ThreadContext ref_ctx(0, shared);
  const RefResult rr = ref.run(ref_ctx, 1'000'000);
  ASSERT_TRUE(rr.halted);

  EXPECT_EQ(sim_ctx.arch_fingerprint(cfg.clusters),
            ref_ctx.arch_fingerprint(cfg.clusters));
  std::uint32_t expect = 0;
  for (std::uint32_t i = 0; i < 16; ++i) expect += 3 * (i * i + 1);
  EXPECT_EQ(sim_ctx.mem.peek_u32(0x2000 + 256), expect);
}

TEST(CompileRun, RandomIrSimulatorMatchesReference) {
  const MachineConfig cfg = paper_cfg();
  for (std::uint64_t seed = 100; seed < 116; ++seed) {
    const GeneratedIr gen = generate_ir(seed);
    const auto prog = finalize_gen(gen, cfg);

    Simulator sim(cfg);
    ThreadContext sim_ctx(0, prog);
    sim.attach(0, &sim_ctx);
    ASSERT_TRUE(sim.run_to_halt(2'000'000)) << "seed " << seed;
    ASSERT_EQ(sim_ctx.state, RunState::kHalted) << "seed " << seed;

    ReferenceInterpreter ref(cfg.clusters);
    ThreadContext ref_ctx(0, prog);
    const RefResult rr = ref.run(ref_ctx, 10'000'000);
    ASSERT_TRUE(rr.halted) << "seed " << seed;

    EXPECT_EQ(sim_ctx.arch_fingerprint(cfg.clusters),
              ref_ctx.arch_fingerprint(cfg.clusters))
        << "seed " << seed;
    EXPECT_EQ(sim_ctx.total_instructions, rr.instructions) << "seed " << seed;
  }
}

TEST(CompileRun, ClusterHintsProduceSameResults) {
  const MachineConfig cfg = paper_cfg();
  IrGenParams hinted;
  hinted.cluster_hints = true;
  for (std::uint64_t seed = 300; seed < 306; ++seed) {
    const GeneratedIr gen = generate_ir(seed, hinted);
    const auto prog = finalize_gen(gen, cfg);
    Simulator sim(cfg);
    ThreadContext sim_ctx(0, prog);
    sim.attach(0, &sim_ctx);
    ASSERT_TRUE(sim.run_to_halt(2'000'000)) << "seed " << seed;
    ReferenceInterpreter ref(cfg.clusters);
    ThreadContext ref_ctx(0, prog);
    ASSERT_TRUE(ref.run(ref_ctx, 10'000'000).halted) << "seed " << seed;
    EXPECT_EQ(sim_ctx.arch_fingerprint(cfg.clusters),
              ref_ctx.arch_fingerprint(cfg.clusters))
        << "seed " << seed;
  }
}

TEST(CompileRun, CompileStatsPopulated) {
  const GeneratedIr gen = generate_ir(55);
  CompileStats stats;
  const MachineConfig cfg = paper_cfg();
  const Program prog = compile(gen.fn, cfg, &stats);
  EXPECT_GT(stats.instructions, 0);
  EXPECT_GT(stats.operations, 0);
  EXPECT_EQ(stats.instructions, static_cast<int>(prog.size()));
  EXPECT_GT(stats.ops_per_instruction(), 0.5);
}

TEST(CompileRun, TwoClusterMachineWorksToo) {
  MachineConfig cfg = paper_cfg();
  cfg.clusters = 2;
  for (std::uint64_t seed = 400; seed < 406; ++seed) {
    const GeneratedIr gen = generate_ir(seed);
    const auto prog = finalize_gen(gen, cfg);
    Simulator sim(cfg);
    ThreadContext sim_ctx(0, prog);
    sim.attach(0, &sim_ctx);
    ASSERT_TRUE(sim.run_to_halt(2'000'000)) << "seed " << seed;
    ReferenceInterpreter ref(cfg.clusters);
    ThreadContext ref_ctx(0, prog);
    ASSERT_TRUE(ref.run(ref_ctx, 10'000'000).halted);
    EXPECT_EQ(sim_ctx.arch_fingerprint(cfg.clusters),
              ref_ctx.arch_fingerprint(cfg.clusters))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace vexsim::cc
