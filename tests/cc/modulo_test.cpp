// Iterative-modulo-scheduling correctness: pipelined loops must produce a
// valid kernel (metadata, verifier) and the exact architectural results of
// the unpipelined compile — against the reference interpreter, the
// cycle-accurate simulator, and across pipeline variants (memory state).
#include <gtest/gtest.h>

#include "cc/compiler.hpp"
#include "cc/irgen.hpp"
#include "cc/verifier.hpp"
#include "sim/reference.hpp"
#include "support/test_util.hpp"
#include "wl_synth/generate.hpp"

namespace vexsim::cc {
namespace {

MachineConfig test_cfg() {
  MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  cfg.branch_on_cluster0_only = false;
  cfg.icache.perfect = true;
  cfg.dcache.perfect = true;
  return cfg;
}

// A multiply-accumulate reduction loop with enough trips to enter the
// pipelined kernel.
IrFunction reduction_loop(int trips) {
  Builder b("reduce");
  const VReg base = b.movi(0x2000);
  const VReg n = b.fresh_global();
  const VReg sum = b.fresh_global();
  b.assign_i(n, trips);
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
  return std::move(b).take();
}

std::vector<std::uint32_t> reduction_data(int trips) {
  std::vector<std::uint32_t> words;
  for (int i = 0; i < trips; ++i)
    words.push_back(static_cast<std::uint32_t>(i * i + 1));
  return words;
}

std::uint32_t reduction_expect(int trips) {
  std::uint32_t expect = 0;
  for (int i = 0; i < trips; ++i)
    expect += 3u * static_cast<std::uint32_t>(i * i + 1);
  return expect;
}

// Compiles, runs on the simulator, cross-checks against the reference
// interpreter, and returns the final memory fingerprint.
std::uint64_t run_and_check(const Program& prog, const MachineConfig& cfg,
                            const char* what) {
  auto shared = std::make_shared<const Program>(prog);
  Simulator sim(cfg);
  ThreadContext sim_ctx(0, shared);
  sim.attach(0, &sim_ctx);
  EXPECT_TRUE(sim.run_to_halt(4'000'000)) << what;
  EXPECT_EQ(sim_ctx.state, RunState::kHalted) << what;

  ReferenceInterpreter ref(cfg.clusters);
  ThreadContext ref_ctx(0, shared);
  const RefResult rr = ref.run(ref_ctx, 20'000'000);
  EXPECT_TRUE(rr.halted) << what;
  EXPECT_EQ(sim_ctx.arch_fingerprint(cfg.clusters),
            ref_ctx.arch_fingerprint(cfg.clusters))
      << what;
  return sim_ctx.mem.fingerprint();
}

TEST(ModuloSched, ReductionLoopPipelines) {
  const MachineConfig cfg = test_cfg();
  const int trips = 64;
  CompilerOptions swp = CompilerOptions::parse("greedy_swp");
  CompileStats stats;
  Program prog = compile(reduction_loop(trips), cfg, swp, &stats);
  EXPECT_EQ(stats.swp_candidates, 1);
  ASSERT_EQ(stats.swp_loops, 1) << "fallbacks: " << stats.swp_fallbacks;
  ASSERT_EQ(prog.kernels.size(), 1u);
  const SoftwarePipelinedLoop& k = prog.kernels[0];
  EXPECT_GE(k.stages, 2);
  EXPECT_GE(k.ii, cfg.lat.cmp_to_branch + 1);
  verify_or_throw(prog, cfg);

  prog.add_data_words(0x2000, reduction_data(trips));
  auto shared = std::make_shared<const Program>(std::move(prog));
  Simulator sim(cfg);
  ThreadContext ctx(0, shared);
  sim.attach(0, &ctx);
  ASSERT_TRUE(sim.run_to_halt(1'000'000));
  EXPECT_EQ(ctx.mem.peek_u32(0x2000 + 256), reduction_expect(trips));
}

TEST(ModuloSched, PipelinedKernelBeatsListScheduleDensity) {
  const MachineConfig cfg = test_cfg();
  CompileStats plain_stats, swp_stats;
  Program plain = compile(reduction_loop(64), cfg, CompilerOptions{},
                          &plain_stats);
  Program swp = compile(reduction_loop(64), cfg,
                        CompilerOptions::parse("greedy_swp"), &swp_stats);
  ASSERT_EQ(swp_stats.swp_loops, 1);
  // The kernel must iterate faster than the list-scheduled loop body.
  ASSERT_EQ(swp.kernels.size(), 1u);
  EXPECT_LT(swp.kernels[0].ii, plain.size());
}

TEST(ModuloSched, ShortTripCountsTakeTheGuardPath) {
  const MachineConfig cfg = test_cfg();
  for (int trips = 1; trips <= 6; ++trips) {
    CompileStats stats;
    Program prog = compile(reduction_loop(trips), cfg,
                           CompilerOptions::parse("greedy_swp"), &stats);
    ASSERT_EQ(stats.swp_loops, 1) << "trips " << trips;
    prog.add_data_words(0x2000, reduction_data(trips));
    auto shared = std::make_shared<const Program>(std::move(prog));
    Simulator sim(cfg);
    ThreadContext ctx(0, shared);
    sim.attach(0, &ctx);
    ASSERT_TRUE(sim.run_to_halt(1'000'000)) << "trips " << trips;
    EXPECT_EQ(ctx.mem.peek_u32(0x2000 + 256), reduction_expect(trips))
        << "trips " << trips;
  }
}

TEST(ModuloSched, RandomIrAllVariantsAgree) {
  const MachineConfig cfg = test_cfg();
  for (std::uint64_t seed = 700; seed < 712; ++seed) {
    const GeneratedIr gen = generate_ir(seed);
    std::uint64_t mem_fp = 0;
    bool first = true;
    for (const char* variant :
         {"greedy", "cost", "greedy_swp", "cost_swp"}) {
      Program prog =
          compile(gen.fn, cfg, CompilerOptions::parse(variant), nullptr);
      verify_or_throw(prog, cfg);
      prog.add_data_words(gen.data_base, gen.init_words);
      const std::uint64_t fp = run_and_check(
          prog, cfg, (std::string(variant) + "/" + std::to_string(seed))
                         .c_str());
      // Register files differ across assignments, but the stored results
      // must be identical for every pipeline variant.
      if (first) {
        mem_fp = fp;
        first = false;
      } else {
        EXPECT_EQ(fp, mem_fp) << variant << " seed " << seed;
      }
    }
  }
}

TEST(ModuloSched, SynthProgramsPipelineAndAgree) {
  const MachineConfig cfg = test_cfg();
  // The p-dial spec computes induction-derived work off the accumulator
  // recurrence and must pipeline; the dense high-ILP spec is
  // recurrence-bound (every chain is loop-carried) and legitimately stays
  // on the list-scheduler path — but both must stay architecturally exact
  // under every pipeline variant.
  for (const char* spec_name :
       {"synth:i0.9-m0.2-s7", "synth:i0.3-m0.2-p0.7-s1"}) {
    const wl_synth::SynthSpec spec = wl_synth::parse_spec(spec_name);
    CompileStats swp_stats;
    Program swp = wl_synth::generate(spec, cfg, 0.05,
                                     CompilerOptions::parse("cost_swp"),
                                     &swp_stats);
    EXPECT_EQ(swp_stats.swp_candidates, 1) << spec_name;
    EXPECT_EQ(swp_stats.swp_loops + swp_stats.swp_fallbacks, 1) << spec_name;
    Program plain = wl_synth::generate(spec, cfg, 0.05, CompilerOptions{});
    const std::uint64_t fp_swp = run_and_check(swp, cfg, spec_name);
    const std::uint64_t fp_plain = run_and_check(plain, cfg, spec_name);
    EXPECT_EQ(fp_swp, fp_plain) << spec_name;
  }
  CompileStats stats;
  Program prog = wl_synth::generate(
      wl_synth::parse_spec("synth:i0.3-m0.2-p0.7-s1"), cfg, 0.05,
      CompilerOptions::parse("cost_swp"), &stats);
  EXPECT_EQ(stats.swp_loops, 1);
  EXPECT_EQ(prog.kernels.size(), 1u);
}

TEST(ModuloSched, NonCandidateLoopsFallBack) {
  // A loop whose condition is not a counted compare (uses branch_if_false)
  // must stay on the list-scheduler path, correctly compiled.
  Builder b("noncand");
  const VReg n = b.fresh_global();
  b.assign_i(n, 10);
  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);
  b.assign_alui(n, Opcode::kAdd, n, -1);
  const VReg done = b.cmpi_b(Opcode::kCmple, n, 0);
  b.branch(done, body, /*if_false=*/true);
  const int fin = b.new_block();
  b.switch_to(fin);
  b.store(Opcode::kStw, b.movi(0x2000), 0, n);
  b.halt();

  const MachineConfig cfg = test_cfg();
  CompileStats stats;
  Program prog = compile(std::move(b).take(), cfg,
                         CompilerOptions::parse("greedy_swp"), &stats);
  EXPECT_EQ(stats.swp_loops, 0);
  EXPECT_TRUE(prog.kernels.empty());
  (void)run_and_check(prog, cfg, "noncand");
}

TEST(ModuloSched, DecodedProgramKnowsRegions) {
  const MachineConfig cfg = test_cfg();
  Program prog = compile(reduction_loop(64), cfg,
                         CompilerOptions::parse("greedy_swp"), nullptr);
  ASSERT_EQ(prog.kernels.size(), 1u);
  const SoftwarePipelinedLoop& k = prog.kernels[0];
  const DecodedProgram& dec = *prog.decoded;
  EXPECT_EQ(dec.region_of(0), SwpRegion::kNone);
  EXPECT_EQ(dec.region_of(k.prologue_start), SwpRegion::kPrologue);
  EXPECT_EQ(dec.region_of(k.kernel_start), SwpRegion::kKernel);
  EXPECT_EQ(dec.region_of(k.kernel_start + k.ii), SwpRegion::kEpilogue);
  EXPECT_EQ(dec.region_of(k.epilogue_end), SwpRegion::kNone);
}

}  // namespace
}  // namespace vexsim::cc
