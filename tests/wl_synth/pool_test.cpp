// Synth data pools are generated once per (seed, footprint) and shared by
// every program built from that spec: one immutable image, whatever the
// machine or the compiler variant, that no context's store ever reaches.
#include <gtest/gtest.h>

#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/thread_context.hpp"
#include "util/rng.hpp"
#include "wl_synth/generate.hpp"
#include "wl_synth/spec.hpp"

namespace vexsim::wl_synth {
namespace {

constexpr std::uint32_t kPoolBase = 0x0060'0000;  // generate.cpp's pool

MachineConfig sym4x4() { return MachineConfig::paper(1, Technique::smt()); }

MachineConfig asym8422() {
  MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                           ClusterResourceConfig::for_issue_width(4),
                           ClusterResourceConfig::for_issue_width(2),
                           ClusterResourceConfig::for_issue_width(2)};
  cfg.validate();
  return cfg;
}

MachineConfig two_by_four() {
  MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  cfg.clusters = 2;
  cfg.validate();
  return cfg;
}

// The pool segment of a generated program (its only data segment).
const DataSegment& pool_of(const Program& prog) {
  EXPECT_EQ(prog.data.size(), 1u);
  EXPECT_EQ(prog.data.front().addr, kPoolBase);
  return prog.data.front();
}

// The per-program pool generator every program ran before pools were
// shared: words from Rng(seed ^ salt), stored little-endian.
DataImage oracle_pool(std::uint64_t seed, int footprint_kib) {
  Rng rng(seed ^ 0xA5A5'5A5A'D1CE'BEEFull);
  DataImage bytes;
  for (int i = 0; i < footprint_kib * 1024 / 4; ++i) {
    const std::uint32_t w = rng.next_u32();
    for (int b = 0; b < 4; ++b)
      bytes.push_back(static_cast<std::uint8_t>(w >> (8 * b)));
  }
  return bytes;
}

std::uint32_t word_at(const ThreadContext& ctx, std::uint32_t addr) {
  std::uint32_t v = 0;
  EXPECT_TRUE(ctx.mem.load(addr, 4, v));
  return v;
}

std::uint32_t image_word(const DataImage& image, std::uint32_t offset) {
  return static_cast<std::uint32_t>(image[offset]) |
         static_cast<std::uint32_t>(image[offset + 1]) << 8 |
         static_cast<std::uint32_t>(image[offset + 2]) << 16 |
         static_cast<std::uint32_t>(image[offset + 3]) << 24;
}

TEST(SynthPool, OneImagePerSeedAndFootprint) {
  const SynthSpec spec = parse_spec("synth:i0.6-m0.3-s7001-f256");
  const Program base = generate(spec, sym4x4(), 0.02);
  const DataImage* const image = pool_of(base).image.get();
  ASSERT_NE(image, nullptr);
  // Any geometry, ILP dial or compiler variant: the same bytes, once.
  for (const MachineConfig& cfg : {sym4x4(), asym8422(), two_by_four()}) {
    for (const char* variant : {"greedy", "cost_swp"}) {
      const Program prog = generate(spec, cfg, 0.02,
                                    cc::CompilerOptions::parse(variant));
      EXPECT_EQ(pool_of(prog).image.get(), image)
          << cfg.geometry_name() << " " << variant;
    }
  }
  EXPECT_EQ(pool_of(generate(parse_spec("synth:i0.1-m0.5-s7001-f256"),
                             two_by_four(), 0.02))
                .image.get(),
            image);
  // Another seed or another footprint is another image.
  EXPECT_NE(pool_of(generate(parse_spec("synth:i0.6-m0.3-s7002-f256"),
                             sym4x4(), 0.02))
                .image.get(),
            image);
  EXPECT_NE(pool_of(generate(parse_spec("synth:i0.6-m0.3-s7001-f128"),
                             sym4x4(), 0.02))
                .image.get(),
            image);
}

TEST(SynthPool, BytesEqualThePerProgramGenerator) {
  for (const int kib : {64, 256, 1024}) {
    const SynthSpec spec =
        parse_spec("synth:i0.5-m0.2-s7101-f" + std::to_string(kib));
    const Program prog = generate(spec, asym8422(), 0.02);
    EXPECT_EQ(pool_of(prog).bytes(), oracle_pool(spec.seed, kib))
        << "f" << kib;
  }
}

TEST(SynthPool, StoresNeverReachTheImageOrAnotherContext) {
  const SynthSpec spec = parse_spec("synth:i0.5-m0.3-s7201-f64");
  auto a = std::make_shared<const Program>(generate(spec, sym4x4(), 0.02));
  auto b =
      std::make_shared<const Program>(generate(spec, two_by_four(), 0.02));
  ASSERT_EQ(pool_of(*a).image, pool_of(*b).image);
  const DataImage& image = pool_of(*a).bytes();
  const DataImage pristine = image;
  ThreadContext ca(0, a);
  ThreadContext cb(1, b);
  const std::vector<std::uint32_t> offsets = {0, 4, 0x1000, 0xFFFC};

  const auto scribble = [&](ThreadContext& ctx, std::uint32_t salt) {
    for (const std::uint32_t off : offsets)
      ASSERT_TRUE(ctx.mem.store(kPoolBase + off, 4, ~image_word(image, off)
                                                        ^ salt));
  };
  const auto expect_pristine = [&](const ThreadContext& ctx) {
    for (const std::uint32_t off : offsets)
      EXPECT_EQ(word_at(ctx, kPoolBase + off), image_word(pristine, off))
          << "offset 0x" << std::hex << off;
  };

  scribble(ca, 0);
  EXPECT_EQ(image, pristine);
  expect_pristine(cb);
  for (const std::uint32_t off : offsets)
    EXPECT_NE(word_at(ca, kPoolBase + off), image_word(pristine, off));

  ca.respawn();
  expect_pristine(ca);
  expect_pristine(cb);

  scribble(cb, 0x5A5A);
  EXPECT_EQ(image, pristine);
  expect_pristine(ca);
  cb.respawn();
  ca.respawn();
  expect_pristine(ca);
  expect_pristine(cb);
  EXPECT_EQ(image, pristine);
}

// Parallel sweep workers build programs for one spec on different machines
// at the same time; the pool memo must hand every one of them one image.
TEST(SynthPool, ConcurrentBuildsShareOneImage) {
  const SynthSpec spec = parse_spec("synth:i0.4-m0.3-n24-s7301-f128");
  const std::vector<MachineConfig> cfgs = {sym4x4(), asym8422(),
                                           two_by_four(), sym4x4()};
  std::vector<std::shared_ptr<const DataImage>> images(cfgs.size());
  std::vector<std::exception_ptr> errors(cfgs.size());
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < cfgs.size(); ++i)
    workers.emplace_back([&, i] {
      try {
        const Program prog = generate(spec, cfgs[i], 0.01);
        if (!prog.data.empty()) images[i] = prog.data[0].image;
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  for (std::thread& t : workers) t.join();
  for (const std::exception_ptr& e : errors)
    if (e != nullptr) std::rethrow_exception(e);
  ASSERT_NE(images[0], nullptr);
  for (const auto& image : images) EXPECT_EQ(image, images[0]);
  EXPECT_EQ(*images[0], oracle_pool(spec.seed, 128));
}

}  // namespace
}  // namespace vexsim::wl_synth
