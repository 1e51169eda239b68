#include "wl_synth/generate.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cc/verifier.hpp"
#include "harness/experiments.hpp"
#include "util/check.hpp"
#include "workloads/registry.hpp"

namespace vexsim::wl_synth {
namespace {

// Full structural fingerprint: disassembly plus initial data bytes. Two
// programs with equal fingerprints are bit-identical as far as the
// simulator is concerned.
std::string fingerprint(const Program& prog) {
  std::string fp = to_string(prog);
  for (const DataSegment& seg : prog.data) {
    fp += "@" + std::to_string(seg.addr) + ":";
    fp.append(reinterpret_cast<const char*>(seg.bytes().data()),
              seg.bytes().size());
  }
  return fp;
}

MachineConfig asymmetric_cfg() {
  MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                           ClusterResourceConfig::for_issue_width(4),
                           ClusterResourceConfig::for_issue_width(2),
                           ClusterResourceConfig::for_issue_width(2)};
  cfg.cluster_renaming = false;
  cfg.validate();
  return cfg;
}

TEST(SynthGenerate, BitIdenticalAcrossRepeatedCalls) {
  const MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  const SynthSpec spec = parse_spec("synth:i0.7-m0.3-b0.1-c0.2-s42");
  const Program a = generate(spec, cfg, 0.1);
  const Program b = generate(spec, cfg, 0.1);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  // Spelling variants of the same spec generate the same program too.
  const Program c = generate(parse_spec("synth:c0.20-b0.10-m0.30-i0.70-s42"),
                             cfg, 0.1);
  EXPECT_EQ(fingerprint(a), fingerprint(c));
}

TEST(SynthGenerate, SeedAndDialsChangeTheProgram) {
  const MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  const Program base = generate(parse_spec("synth:i0.5-s1"), cfg, 0.1);
  EXPECT_NE(fingerprint(base),
            fingerprint(generate(parse_spec("synth:i0.5-s2"), cfg, 0.1)));
  EXPECT_NE(fingerprint(base),
            fingerprint(generate(parse_spec("synth:i0.9-s1"), cfg, 0.1)));
}

TEST(SynthGenerate, VerifierAcceptsSeedSweep) {
  const std::vector<MachineConfig> cfgs = {
      MachineConfig::paper(1, Technique::smt()),
      asymmetric_cfg(),
  };
  for (const MachineConfig& cfg : cfgs) {
    for (const double ilp : {0.0, 0.33, 0.66, 1.0}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SynthSpec spec;
        spec.ilp = ilp;
        spec.mem_intensity = 0.3;
        spec.branch_density = 0.1;
        spec.comm_density = 0.15;
        spec.seed = seed;
        const Program prog = generate(spec, cfg, 0.05);
        EXPECT_NO_THROW(cc::verify_or_throw(prog, cfg))
            << cfg.geometry_name() << " ilp " << ilp << " seed " << seed;
        EXPECT_NO_THROW(prog.validate(cfg.clusters));
        EXPECT_TRUE(prog.finalized());
      }
    }
  }
}

TEST(SynthGenerate, ChainCountFollowsIlpDial) {
  const MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  SynthSpec lo, mid, hi;
  lo.ilp = 0.0;
  mid.ilp = 0.5;
  hi.ilp = 1.0;
  EXPECT_EQ(chain_count(lo, cfg), 1);
  EXPECT_GT(chain_count(mid, cfg), chain_count(lo, cfg));
  EXPECT_GT(chain_count(hi, cfg), chain_count(mid, cfg));
  // Top of the dial oversubscribes the 16-wide machine to cover FU latency.
  EXPECT_GE(chain_count(hi, cfg), cfg.total_issue_width());
}

TEST(SynthGenerate, IlpDialMovesScheduleDensity) {
  const MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  auto density = [&](const char* name) {
    const Program prog = generate(parse_spec(name), cfg, 0.1);
    std::uint64_t ops = 0;
    for (std::size_t pc = 0; pc < prog.size(); ++pc)
      ops += static_cast<std::uint64_t>(prog.insn(pc).op_count());
    return static_cast<double>(ops) / static_cast<double>(prog.size());
  };
  // The static schedule of the high-ILP program packs markedly denser
  // instructions than the serial-chain program (deterministic property of
  // the generator + scheduler, no simulation involved).
  EXPECT_GT(density("synth:i0.95-m0.00-n96-s3"),
            2.0 * density("synth:i0.05-m0.00-n96-s3"));
}

TEST(SynthGenerate, RegistryBuildsAndMemoizesSynthSpecs) {
  const MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  const auto a = wl::make_benchmark("synth:i0.8-m0.3-s42", cfg, 0.05);
  const auto b = wl::make_benchmark("synth:i0.80-m0.30-s42", cfg, 0.05);
  EXPECT_EQ(a.get(), b.get());  // canonicalized cache key
  EXPECT_EQ(a->name, "synth:i0.8-m0.3-b0-c0-n64-s42");
  // Nearby dial values stay distinct programs (no precision aliasing).
  const auto c = wl::make_benchmark("synth:i0.8-m0.304-s42", cfg, 0.05);
  EXPECT_NE(a.get(), c.get());
  EXPECT_THROW((void)wl::make_benchmark("synth:zz", cfg, 0.05), CheckError);
}

TEST(SynthGenerate, RunsOnAsymmetricMachineEndToEnd) {
  MachineConfig cfg = asymmetric_cfg();
  harness::ExperimentOptions opt;
  opt.scale = 0.02;
  opt.budget = 5'000;
  opt.timeslice = 2'000;
  opt.max_cycles = 10'000'000;
  const RunResult r =
      harness::run_workload_on(cfg, "synth:i0.9-m0.2-s5", opt);
  EXPECT_GT(r.ipc(), 0.0);
  ASSERT_EQ(r.instances.size(), 1u);
  EXPECT_FALSE(r.instances[0].faulted);
}

}  // namespace
}  // namespace vexsim::wl_synth
