#include "mem/main_memory.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

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
