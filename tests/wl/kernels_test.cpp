// Benchmark kernel sanity: every Figure 13(a) stand-in compiles, verifies,
// runs deterministically, and lands in its paper ILP band.
#include "workloads/registry.hpp"

#include <gtest/gtest.h>

#include "cc/verifier.hpp"
#include "harness/experiments.hpp"

namespace vexsim::wl {
namespace {

harness::ExperimentOptions quick_opts() {
  harness::ExperimentOptions opt;
  opt.scale = 0.02;
  opt.budget = 30'000;
  opt.max_cycles = 10'000'000;
  return opt;
}

TEST(Kernels, RegistryHasTwelveBenchmarks) {
  EXPECT_EQ(benchmark_registry().size(), 12u);
  EXPECT_EQ(benchmark_info("colorspace").ilp, IlpClass::kHigh);
  EXPECT_EQ(benchmark_info("mcf").ilp, IlpClass::kLow);
  EXPECT_DOUBLE_EQ(benchmark_info("colorspace").paper_ipcp, 8.88);
  EXPECT_THROW((void)benchmark_info("nonesuch"), CheckError);
}

TEST(Kernels, AllCompileAndVerify) {
  const MachineConfig cfg = MachineConfig::paper_single();
  for (const BenchmarkInfo& info : benchmark_registry()) {
    const auto prog = make_benchmark(info.name, cfg, 0.02);
    ASSERT_NE(prog, nullptr);
    EXPECT_GT(prog->size(), 4u) << info.name;
    const auto issues = cc::verify_program(*prog, cfg);
    EXPECT_TRUE(issues.empty())
        << info.name << ": " << (issues.empty() ? "" : issues.front().what);
  }
}

TEST(Kernels, ProgramsAreMemoized) {
  const MachineConfig cfg = MachineConfig::paper_single();
  const auto a = make_benchmark("idct", cfg, 0.02);
  const auto b = make_benchmark("idct", cfg, 0.02);
  EXPECT_EQ(a.get(), b.get());
  const auto c = make_benchmark("idct", cfg, 0.03);
  EXPECT_NE(a.get(), c.get());
}

class KernelIlpBand : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelIlpBand, PerfectMemoryIpcInClassBand) {
  const BenchmarkInfo& info = benchmark_info(GetParam());
  const RunResult r = harness::run_single(info.name, /*perfect=*/true,
                                          quick_opts());
  const double ipc = r.ipc();
  switch (info.ilp) {
    case IlpClass::kLow:
      EXPECT_GT(ipc, 0.4) << info.name;
      EXPECT_LT(ipc, 2.2) << info.name;
      break;
    case IlpClass::kMedium:
      EXPECT_GT(ipc, 1.1) << info.name;
      EXPECT_LT(ipc, 3.2) << info.name;
      break;
    case IlpClass::kHigh:
      EXPECT_GT(ipc, 3.0) << info.name;
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelIlpBand,
    ::testing::Values("mcf", "bzip2", "blowfish", "gsmencode", "g721encode",
                      "g721decode", "cjpeg", "djpeg", "imgpipe", "x264",
                      "idct", "colorspace"));

TEST(Kernels, CacheSensitiveKernelsShowIpcGap) {
  // mcf, blowfish and cjpeg are the paper's cache-hostile benchmarks:
  // real-memory IPC must sit clearly below perfect-memory IPC.
  for (const char* name : {"mcf", "blowfish", "cjpeg"}) {
    const RunResult real = harness::run_single(name, false, quick_opts());
    const RunResult perfect = harness::run_single(name, true, quick_opts());
    EXPECT_LT(real.ipc(), perfect.ipc() * 0.93) << name;
  }
}

TEST(Kernels, CacheInsensitiveKernelsBarelyMove) {
  for (const char* name : {"gsmencode", "g721encode"}) {
    const RunResult real = harness::run_single(name, false, quick_opts());
    const RunResult perfect = harness::run_single(name, true, quick_opts());
    EXPECT_GT(real.ipc(), perfect.ipc() * 0.85) << name;
  }
}

TEST(Kernels, DeterministicAcrossRuns) {
  const RunResult a = harness::run_single("djpeg", true, quick_opts());
  const RunResult b = harness::run_single("djpeg", true, quick_opts());
  EXPECT_EQ(a.sim.cycles, b.sim.cycles);
  EXPECT_EQ(a.sim.ops_issued, b.sim.ops_issued);
  EXPECT_EQ(a.instances[0].arch_fingerprint, b.instances[0].arch_fingerprint);
}

TEST(Kernels, IlpClassOrderingHolds) {
  const double low = harness::run_single("gsmencode", true, quick_opts()).ipc();
  const double med =
      harness::run_single("g721encode", true, quick_opts()).ipc();
  const double high = harness::run_single("idct", true, quick_opts()).ipc();
  EXPECT_LT(low, med);
  EXPECT_LT(med, high);
}

}  // namespace
}  // namespace vexsim::wl
