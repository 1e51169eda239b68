#include "arch/thread_context.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "support/test_util.hpp"
#include "util/rng.hpp"
#include "vasm/assembler.hpp"
#include "workloads/registry.hpp"

namespace vexsim {
namespace {

std::shared_ptr<const Program> tiny_program() {
  Program p = assemble(
      "c0 movi r1 = 7\n"
      "c0 halt\n",
      "tiny");
  p.add_data_words(0x2000, {11, 22});
  return std::make_shared<const Program>(std::move(p));
}

TEST(ThreadContext, LoadsDataSegmentsOnConstruction) {
  ThreadContext ctx(0, tiny_program());
  EXPECT_EQ(ctx.mem.peek_u32(0x2000), 11u);
  EXPECT_EQ(ctx.mem.peek_u32(0x2004), 22u);
  EXPECT_EQ(ctx.pc, 0u);
  EXPECT_EQ(ctx.state, RunState::kReady);
  EXPECT_EQ(ctx.respawns, 0u);
}

TEST(ThreadContext, RespawnRestoresInitialState) {
  ThreadContext ctx(0, tiny_program());
  ctx.regs.set_gpr(0, 1, 99);
  ASSERT_TRUE(ctx.mem.store(0x2000, 4, 777));
  ctx.pc = 1;
  ctx.state = RunState::kHalted;
  ctx.total_instructions = 50;
  ctx.respawn();
  EXPECT_EQ(ctx.pc, 0u);
  EXPECT_EQ(ctx.state, RunState::kReady);
  EXPECT_EQ(ctx.regs.gpr(0, 1), 0u);
  EXPECT_EQ(ctx.mem.peek_u32(0x2000), 11u);
  EXPECT_EQ(ctx.total_instructions, 50u);  // cumulative across respawns
  EXPECT_EQ(ctx.respawns, 1u);
}

// --- Respawn restores the data image (property tests) ---------------------

constexpr std::uint32_t kPage = MainMemory::kPageSize;

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32() | 1);
  return bytes;
}

// A halting program whose data segments are `extents` ({addr, size}),
// filled with nonzero random bytes, in this order.
std::shared_ptr<const Program> segments_program(
    const std::vector<std::pair<std::uint32_t, std::size_t>>& extents,
    std::uint64_t seed) {
  Program p = assemble("c0 halt\n", "segments");
  Rng rng(seed);
  for (const auto& [addr, size] : extents)
    p.add_data(addr, random_bytes(rng, size));
  return test::shared(std::move(p));
}

// The data image, built without MainMemory: segments applied in program
// order, later ones on top.
std::map<std::uint32_t, std::uint8_t> image_of(const Program& p) {
  std::map<std::uint32_t, std::uint8_t> image;
  for (const DataSegment& seg : p.data)
    for (std::size_t i = 0; i < seg.bytes().size(); ++i)
      image[seg.addr + static_cast<std::uint32_t>(i)] = seg.bytes()[i];
  return image;
}

std::uint32_t byte_at(const MainMemory& mem, std::uint32_t addr) {
  std::uint32_t v = 0;
  EXPECT_TRUE(mem.load(addr, 1, v));
  return v;
}

// What a loaded context must hold: the image, and the arch fingerprint of
// a freshly constructed context.
struct LoadedImage {
  explicit LoadedImage(const std::shared_ptr<const Program>& program)
      : bytes(image_of(*program)),
        arch_fingerprint(
            ThreadContext(0, program).arch_fingerprint(kMaxClusters)) {}
  std::map<std::uint32_t, std::uint8_t> bytes;
  std::uint64_t arch_fingerprint;
};

// Every segment byte and every byte in `written` must match the image
// (addresses outside it read 0), and so must the arch fingerprint.
void expect_loaded_image(const ThreadContext& ctx, const LoadedImage& image,
                         const std::set<std::uint32_t>& written) {
  for (const auto& [addr, byte] : image.bytes)
    ASSERT_EQ(byte_at(ctx.mem, addr), byte) << "segment byte 0x" << std::hex
                                            << addr;
  for (const std::uint32_t addr : written) {
    const auto it = image.bytes.find(addr);
    ASSERT_EQ(byte_at(ctx.mem, addr),
              it == image.bytes.end() ? 0u : it->second)
        << "written byte 0x" << std::hex << addr;
  }
  EXPECT_EQ(ctx.arch_fingerprint(kMaxClusters), image.arch_fingerprint);
}

// Seeded stores (and pokes, which count as writes) near `targets`, then a
// respawn, `rounds` times; the image is checked after every respawn.
void scribble_and_respawn(const std::shared_ptr<const Program>& program,
                          const std::vector<std::uint32_t>& targets,
                          std::uint64_t seed, int rounds) {
  const LoadedImage image(program);
  ThreadContext ctx(0, program);
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    std::set<std::uint32_t> written;
    const int stores = 1 + static_cast<int>(rng.below(24));
    for (int i = 0; i < stores; ++i) {
      const int size = 1 << rng.below(3);
      const std::uint32_t target =
          targets[rng.below(static_cast<std::uint32_t>(targets.size()))];
      const std::uint32_t addr =
          (target + rng.below(256)) & ~static_cast<std::uint32_t>(size - 1);
      const std::uint32_t value = rng.next_u32();
      if (size == 4 && rng.below(4) == 0)
        ctx.mem.poke_u32(addr, value);
      else
        ASSERT_TRUE(ctx.mem.store(addr, size, value));
      for (int b = 0; b < size; ++b)
        written.insert(addr + static_cast<std::uint32_t>(b));
    }
    ctx.state = RunState::kHalted;
    ctx.respawn();
    ASSERT_EQ(ctx.respawns, static_cast<std::uint64_t>(round + 1));
    ASSERT_NO_FATAL_FAILURE(expect_loaded_image(ctx, image, written))
        << "seed " << seed << " round " << round;
  }
}

TEST(ThreadContextRespawn, StoreInsideASegmentPage) {
  const auto p = segments_program({{4 * kPage + 0x100, 0x400}}, 1);
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    scribble_and_respawn(p, {4 * kPage + 0x100, 4 * kPage + 0x480}, seed, 1);
}

TEST(ThreadContextRespawn, StoreOutsideEverySegmentReadsZero) {
  const auto p = segments_program({{4 * kPage, 0x100}}, 2);
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    scribble_and_respawn(p, {9 * kPage, 0x70 * kPage + 0x40}, seed, 1);
}

TEST(ThreadContextRespawn, SegmentStraddlingAPageBoundary) {
  // One segment across pages 5|6; each seed writes only one of the pages.
  const auto p = segments_program({{6 * kPage - 0x300, 0x600}}, 3);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    scribble_and_respawn(p, {6 * kPage - 0x300}, seed, 1);  // page 5 only
    scribble_and_respawn(p, {6 * kPage + 0x100}, seed, 1);  // page 6 only
  }
}

TEST(ThreadContextRespawn, OverlappingSegments) {
  // B overlaps A inside page 8, and C covers part of both across pages 7|8;
  // each respawn must re-apply them in order on whichever page was written.
  const auto p = segments_program({{8 * kPage - 0x200, 0x800},
                                   {8 * kPage + 0x100, 0x100},
                                   {8 * kPage - 0x80, 0x200}},
                                  4);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    scribble_and_respawn(p, {8 * kPage - 0x200}, seed, 1);
    scribble_and_respawn(p, {8 * kPage + 0x80}, seed, 1);
    scribble_and_respawn(p, {8 * kPage - 0x100, 8 * kPage + 0x100}, seed, 2);
  }
}

TEST(ThreadContextRespawn, ManyRespawnsInARow) {
  const auto p = segments_program({{2 * kPage - 0x800, 0x1000},
                                   {2 * kPage + 0x20, 0x100},
                                   {4 * kPage - 0x10, 0x20}},
                                  5);
  const std::vector<std::uint32_t> targets = {
      2 * kPage - 0x900, 2 * kPage,        2 * kPage + 0x700,
      3 * kPage + 0xF0,  4 * kPage - 0x80, 0x70 * kPage};
  for (std::uint64_t seed = 1; seed <= 2; ++seed)
    scribble_and_respawn(p, targets, seed, 100);
}

TEST(ThreadContextRespawn, AfterAFaultRollback) {
  // Stores commit, then an instruction stores and faults in the same
  // bundle (its store is suppressed by the rollback); the respawn must
  // still undo the committed stores.
  Program src = assemble(
      "c0 movi r1 = 0x30100 ; c1 movi r2 = 0x90000\n"
      "c0 stw 0[r1] = r1 ; c1 stw 0[r2] = r2\n"
      "c0 stw 4[r1] = r2 ; c1 ldw r3 = 0x10[r0]\n"
      "c0 halt\n",
      "faults");
  Rng rng(6);
  src.add_data(0x30000, random_bytes(rng, 0x200));
  const auto program = test::shared(std::move(src));
  const LoadedImage image(program);
  MachineConfig cfg = test::example_machine(2, 2, 1, Technique::smt());
  ThreadContext ctx(0, program);
  for (int run = 0; run < 3; ++run) {
    Simulator sim(cfg);
    sim.attach(0, &ctx);
    sim.run_to_halt(100);
    ASSERT_EQ(ctx.state, RunState::kFaulted);
    ASSERT_EQ(ctx.mem.peek_u32(0x30100), 0x30100u);
    ASSERT_EQ(ctx.mem.peek_u32(0x90000), 0x90000u);
    ctx.respawn();
    ASSERT_NO_FATAL_FAILURE(expect_loaded_image(
        ctx, image,
        {0x30100, 0x30101, 0x30102, 0x30103, 0x30104, 0x30105, 0x30106,
         0x30107, 0x90000, 0x90001, 0x90002, 0x90003}));
  }
}

// --- Copy-on-write: contexts read the program's images in place ----------

// A synth program with a 1 MiB pool (16 whole pages at 0x600000) whose
// stores all go to one output page outside it.
std::shared_ptr<const Program> f1024_program(const MachineConfig& cfg) {
  return wl::make_benchmark("synth:i0.5-m0.4-f1024-s7", cfg, 0.05);
}

std::uint32_t image_word(const DataSegment& seg, std::uint32_t offset) {
  std::uint32_t v = 0;
  std::memcpy(&v, seg.bytes().data() + offset, 4);
  return v;
}

TEST(ThreadContextCow, LoadingASynthProgramCopiesNoPage) {
  const auto program =
      f1024_program(MachineConfig::paper(1, Technique::smt()));
  ASSERT_EQ(program->data.size(), 1u);
  const DataSegment& pool = program->data[0];
  ASSERT_EQ(pool.bytes().size(), 1024u * 1024);
  ThreadContext ctx(0, program);
  EXPECT_EQ(ctx.mem.private_pages(), 0u);
  EXPECT_EQ(ctx.mem.peek_u32(pool.addr + 0x4'0010), image_word(pool, 0x4'0010));

  ASSERT_TRUE(ctx.mem.store(pool.addr + 0x4'0010, 4, 0x5EED));
  EXPECT_EQ(ctx.mem.private_pages(), 1u);
  EXPECT_EQ(ctx.mem.peek_u32(pool.addr + 0x4'0010), 0x5EEDu);
  EXPECT_EQ(ctx.mem.peek_u32(pool.addr + 0x4'0014), image_word(pool, 0x4'0014));
  EXPECT_NE(image_word(pool, 0x4'0010), 0x5EEDu);  // the pool is untouched
  ctx.respawn();
  EXPECT_EQ(ctx.mem.private_pages(), 0u);
  EXPECT_EQ(ctx.mem.peek_u32(pool.addr + 0x4'0010), image_word(pool, 0x4'0010));
}

TEST(ThreadContextCow, ThreadsRunningOneSharedProgramMatchOneThread) {
  // Two threads each run a context of the same program at once; both read
  // the shared pool in place and must end in the single-thread state.
  const MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  const auto program = f1024_program(cfg);
  const auto run = [&cfg, &program] {
    ThreadContext ctx(0, program);
    Simulator sim(cfg);
    sim.attach(0, &ctx);
    EXPECT_TRUE(sim.run_to_halt(2'000'000));
    EXPECT_EQ(ctx.state, RunState::kHalted);
    EXPECT_EQ(ctx.mem.private_pages(), 1u);  // the output page alone
    return ctx.arch_fingerprint(cfg.clusters);
  };
  const std::uint64_t alone = run();
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::thread ta([&] { a = run(); });
  std::thread tb([&] { b = run(); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, alone);
  EXPECT_EQ(b, alone);
}

TEST(ThreadContextCow, ThreadsBuildAndDigestContextsOverSharedImagesAtOnce) {
  // Four threads at once construct contexts, store one word in each and
  // digest its memory: two synth programs over one pool, and one registry
  // program. No other test builds these images, so the threads race to
  // compute and share their digest states; every digest must match a
  // memory poked with the same bytes.
  const MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  const std::vector<std::shared_ptr<const Program>> programs = {
      wl::make_benchmark("synth:i0.2-m0.4-f1024-s9173", cfg, 0.05),
      wl::make_benchmark("synth:i0.9-m0.6-f1024-s9173", cfg, 0.05),
      test::shared(wl::benchmark_info("blowfish").factory(cfg, {}))};
  ASSERT_EQ(programs[0]->data.size(), 1u);
  ASSERT_EQ(programs[0]->data[0].image, programs[1]->data[0].image);
  // The synth output page past the pool, a pool page, and blowfish's
  // stream, which it encrypts in place.
  const std::vector<std::uint32_t> stores = {0x70'0040, 0x64'0000, 0x52'0010};

  std::vector<std::vector<std::uint64_t>> want(programs.size());
  for (std::size_t p = 0; p < programs.size(); ++p) {
    for (const std::uint32_t addr : stores) {
      MainMemory poked;
      for (const DataSegment& seg : programs[p]->data)
        poked.poke_bytes(seg.addr, seg.bytes().data(), seg.bytes().size());
      poked.poke_u32(addr, addr ^ 0x5EED);
      want[p].push_back(poked.fingerprint());
    }
  }

  constexpr int kThreads = 4;
  std::latch start(kThreads);
  const auto work = [&](int t) {
    start.arrive_and_wait();
    for (int i = 0; i < 6; ++i) {
      const std::size_t p = static_cast<std::size_t>(t + i) % programs.size();
      const std::size_t s = static_cast<std::size_t>(t * 7 + i) % stores.size();
      ThreadContext ctx(t, programs[p]);
      ASSERT_TRUE(ctx.mem.store(stores[s], 4, stores[s] ^ 0x5EED));
      EXPECT_EQ(ctx.mem.fingerprint(), want[p][s])
          << "thread " << t << " program " << p << " store " << s;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(work, t);
  for (std::thread& thread : threads) thread.join();
}

TEST(ThreadContext, RequiresFinalizedProgram) {
  auto p = std::make_shared<Program>();
  p->name = "unfinalized";
  EXPECT_THROW(ThreadContext(0, p), CheckError);
}

TEST(ThreadContext, ArchFingerprintCoversRegsAndMemory) {
  ThreadContext a(0, tiny_program());
  ThreadContext b(1, tiny_program());
  EXPECT_EQ(a.arch_fingerprint(4), b.arch_fingerprint(4));
  a.regs.set_gpr(1, 2, 3);
  EXPECT_NE(a.arch_fingerprint(4), b.arch_fingerprint(4));
  b.regs.set_gpr(1, 2, 3);
  EXPECT_EQ(a.arch_fingerprint(4), b.arch_fingerprint(4));
  ASSERT_TRUE(a.mem.store(0x3000, 4, 1));
  EXPECT_NE(a.arch_fingerprint(4), b.arch_fingerprint(4));
}

TEST(ThreadContext, IssueProgressMask) {
  IssueProgress iss;
  EXPECT_EQ(iss.pending_cluster_mask(), 0u);
  iss.pending_ops[0] = 0b11;
  iss.pending_ops[3] = 0b1;
  EXPECT_EQ(iss.pending_cluster_mask(), 0b1001u);
}

}  // namespace
}  // namespace vexsim
