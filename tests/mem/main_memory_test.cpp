#include "mem/main_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace vexsim {
namespace {

TEST(MainMemory, ZeroInitialized) {
  const MainMemory mem;
  std::uint32_t v = 1;
  ASSERT_TRUE(mem.load(0x1000, 4, v));
  EXPECT_EQ(v, 0u);
}

TEST(MainMemory, StoreLoadWord) {
  MainMemory mem;
  ASSERT_TRUE(mem.store(0x2000, 4, 0xDEADBEEF));
  std::uint32_t v = 0;
  ASSERT_TRUE(mem.load(0x2000, 4, v));
  EXPECT_EQ(v, 0xDEADBEEFu);
}

TEST(MainMemory, LittleEndianBytes) {
  MainMemory mem;
  ASSERT_TRUE(mem.store(0x2000, 4, 0x11223344));
  std::uint32_t b = 0;
  ASSERT_TRUE(mem.load(0x2000, 1, b));
  EXPECT_EQ(b, 0x44u);
  ASSERT_TRUE(mem.load(0x2003, 1, b));
  EXPECT_EQ(b, 0x11u);
  ASSERT_TRUE(mem.load(0x2002, 2, b));
  EXPECT_EQ(b, 0x1122u);
}

TEST(MainMemory, MisalignedFaults) {
  MainMemory mem;
  std::uint32_t v = 0;
  EXPECT_FALSE(mem.load(0x2001, 4, v));
  EXPECT_FALSE(mem.load(0x2001, 2, v));
  EXPECT_TRUE(mem.load(0x2001, 1, v));
  EXPECT_FALSE(mem.store(0x2002, 4, 1));
  EXPECT_TRUE(mem.store(0x2002, 2, 1));
}

TEST(MainMemory, GuardPageFaults) {
  MainMemory mem;
  std::uint32_t v = 0;
  EXPECT_FALSE(mem.load(0x0, 4, v));
  EXPECT_FALSE(mem.load(0xFC, 4, v));
  EXPECT_FALSE(mem.store(0x10, 4, 1));
  EXPECT_TRUE(mem.load(0x100, 4, v));
}

TEST(MainMemory, SparsePagesIndependent) {
  MainMemory mem;
  ASSERT_TRUE(mem.store(0x0001'0000, 4, 1));
  ASSERT_TRUE(mem.store(0x7000'0000, 4, 2));
  std::uint32_t v = 0;
  ASSERT_TRUE(mem.load(0x0001'0000, 4, v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(mem.load(0x7000'0000, 4, v));
  EXPECT_EQ(v, 2u);
}

TEST(MainMemory, PokeBytesAcrossPages) {
  MainMemory mem;
  const std::uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint32_t addr = MainMemory::kPageSize - 4;
  mem.poke_bytes(addr, data, 8);
  std::uint32_t v = 0;
  ASSERT_TRUE(mem.load(addr, 4, v));
  EXPECT_EQ(v, 0x04030201u);
  ASSERT_TRUE(mem.load(addr + 4, 4, v));
  EXPECT_EQ(v, 0x08070605u);
}

TEST(MainMemory, FingerprintDetectsChanges) {
  MainMemory a, b;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  ASSERT_TRUE(a.store(0x3000, 4, 7));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  ASSERT_TRUE(b.store(0x3000, 4, 7));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(MainMemory, FingerprintIgnoresZeroWrites) {
  // Writing zeros allocates pages but leaves content equal to untouched
  // memory; the digest must not distinguish them.
  MainMemory a, b;
  ASSERT_TRUE(a.store(0x5000, 4, 0));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

// The digest as a plain FNV-1a byte loop over (page index, page bytes) in
// page order, all-zero pages skipped: the oracle for the zero-run folding.
std::uint64_t byte_loop_fingerprint(
    const std::map<std::uint32_t, std::vector<std::uint8_t>>& pages) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  for (const auto& [idx, bytes] : pages) {
    if (std::all_of(bytes.begin(), bytes.end(),
                    [](std::uint8_t b) { return b == 0; }))
      continue;
    for (int shift = 0; shift < 32; shift += 8)
      mix(static_cast<std::uint8_t>(idx >> shift));
    for (const std::uint8_t b : bytes) mix(b);
  }
  return h;
}

std::uint64_t fingerprint_of(
    const std::map<std::uint32_t, std::vector<std::uint8_t>>& pages) {
  MainMemory mem;
  for (const auto& [idx, bytes] : pages)
    mem.poke_bytes(idx << MainMemory::kPageBits, bytes.data(), bytes.size());
  return mem.fingerprint();
}

std::vector<std::uint8_t> nonzero_page(Rng& rng) {
  std::vector<std::uint8_t> page(MainMemory::kPageSize);
  for (auto& b : page) b = static_cast<std::uint8_t>(1 + rng.below(255));
  return page;
}

TEST(MainMemory, FingerprintFoldsZeroRunsLikeTheByteLoop) {
  constexpr std::size_t kPage = MainMemory::kPageSize;
  Rng rng(0xF1A7);
  for (const std::size_t len : {0, 1, 2, 63, 64, 65535, 65536}) {
    // Start, an unaligned start, middle and end of the page.
    for (const std::size_t at : {std::size_t{0}, std::size_t{3},
                                 (kPage - len) / 2, kPage - len}) {
      const std::size_t off = std::min(at, kPage - len);
      std::vector<std::uint8_t> page = nonzero_page(rng);
      std::fill_n(page.begin() + static_cast<std::ptrdiff_t>(off), len, 0);
      const std::map<std::uint32_t, std::vector<std::uint8_t>> pages = {
          {0x12, nonzero_page(rng)}, {0x60, page}};
      EXPECT_EQ(fingerprint_of(pages), byte_loop_fingerprint(pages))
          << "zero run of " << len << " at " << off;
    }
  }
  // Random pages: runs of zeros and of nonzero bytes, 1..300 bytes long.
  std::map<std::uint32_t, std::vector<std::uint8_t>> pages;
  for (std::uint32_t idx : {0x1u, 0x2u, 0x70u, 0x71u, 0xFFFFu}) {
    std::vector<std::uint8_t> page(kPage);
    for (std::size_t i = 0; i < kPage;) {
      const std::size_t run =
          std::min<std::size_t>(1 + rng.below(300), kPage - i);
      const bool zero = rng.chance(0.5);
      for (std::size_t k = 0; k < run; ++k, ++i)
        page[i] = zero ? 0 : static_cast<std::uint8_t>(rng.next_u32());
    }
    pages[idx] = std::move(page);
  }
  pages[0x3] = std::vector<std::uint8_t>(kPage, 0);  // skipped page
  EXPECT_EQ(fingerprint_of(pages), byte_loop_fingerprint(pages));
}

TEST(MainMemory, MovedFromMemoryKeepsNoPages) {
  // The source's page memo must not follow the pages into the destination
  // (the moved-from memories are used on purpose).
  MainMemory a;
  ASSERT_TRUE(a.store(0x2000, 4, 0x11111111));
  MainMemory b = std::move(a);
  ASSERT_TRUE(a.store(0x2000, 4, 0x22222222));
  EXPECT_EQ(b.peek_u32(0x2000), 0x11111111u);
  EXPECT_EQ(a.peek_u32(0x2000), 0x22222222u);

  MainMemory c;
  ASSERT_TRUE(c.store(0x2000, 4, 0x33333333));
  c = std::move(b);
  ASSERT_TRUE(b.store(0x2000, 4, 0x44444444));
  EXPECT_EQ(c.peek_u32(0x2000), 0x11111111u);
  EXPECT_EQ(b.peek_u32(0x2000), 0x44444444u);
}

using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
constexpr std::uint64_t kPage = MainMemory::kPageSize;
constexpr std::uint64_t kAll = std::uint64_t{1} << 32;

Ranges rewind_ranges(MainMemory& mem) {
  Ranges got;
  mem.rewind([&got](std::uint64_t lo, std::uint64_t hi) {
    got.emplace_back(lo, hi);
  });
  return got;
}

TEST(MainMemory, MoveTakesTheWrittenPagesAlong) {
  MainMemory a;
  EXPECT_EQ(rewind_ranges(a), (Ranges{{0, kAll}}));
  ASSERT_TRUE(a.store(3 * kPage, 4, 1));
  MainMemory b = std::move(a);
  EXPECT_EQ(rewind_ranges(b), (Ranges{{3 * kPage, 4 * kPage}}));
  EXPECT_EQ(rewind_ranges(a), (Ranges{{0, kAll}}));  // left cleared

  ASSERT_TRUE(b.store(5 * kPage, 4, 1));
  MainMemory c;
  EXPECT_EQ(rewind_ranges(c), (Ranges{{0, kAll}}));
  c = std::move(b);
  EXPECT_EQ(rewind_ranges(c), (Ranges{{5 * kPage, 6 * kPage}}));
  EXPECT_EQ(rewind_ranges(b), (Ranges{{0, kAll}}));
}

TEST(MainMemory, RewindDropsExactlyTheWrittenPages) {
  MainMemory mem;
  // A new memory counts every page as written; the reload's own pokes are
  // the loaded image, not writes.
  mem.rewind([&mem](std::uint64_t, std::uint64_t) {
    mem.poke_u32(2 * kPage + 8, 0xAAAA);
  });
  EXPECT_TRUE(rewind_ranges(mem).empty());
  EXPECT_EQ(mem.peek_u32(2 * kPage + 8), 0xAAAAu);  // unwritten pages stay

  ASSERT_TRUE(mem.store(7 * kPage + 4, 4, 1));
  mem.poke_u32(3 * kPage, 2);
  ASSERT_TRUE(mem.store(7 * kPage + 8, 2, 3));  // same page: listed once
  std::uint32_t v = 0;
  ASSERT_TRUE(mem.load(9 * kPage, 4, v));  // loads write nothing
  EXPECT_EQ(rewind_ranges(mem),
            (Ranges{{7 * kPage, 8 * kPage}, {3 * kPage, 4 * kPage}}));
  EXPECT_EQ(mem.peek_u32(7 * kPage + 4), 0u);  // dropped, not reloaded
  EXPECT_EQ(mem.peek_u32(3 * kPage), 0u);
  EXPECT_EQ(mem.peek_u32(2 * kPage + 8), 0xAAAAu);

  // A reload that recreates a dropped page leaves it unwritten.
  ASSERT_TRUE(mem.store(2 * kPage + 8, 4, 4));
  mem.rewind([&mem](std::uint64_t lo, std::uint64_t) {
    mem.poke_u32(static_cast<std::uint32_t>(lo) + 8, 0xAAAA);
  });
  EXPECT_EQ(mem.peek_u32(2 * kPage + 8), 0xAAAAu);
  EXPECT_TRUE(rewind_ranges(mem).empty());

  mem.clear();
  EXPECT_EQ(rewind_ranges(mem), (Ranges{{0, kAll}}));
}

TEST(MainMemory, ClearResets) {
  MainMemory mem;
  ASSERT_TRUE(mem.store(0x4000, 4, 9));
  mem.clear();
  std::uint32_t v = 1;
  ASSERT_TRUE(mem.load(0x4000, 4, v));
  EXPECT_EQ(v, 0u);
}

}  // namespace
}  // namespace vexsim
