#include "mem/main_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <new>
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

// --- Copy-on-write over a PageImage ---------------------------------------

constexpr std::uint32_t kPage = MainMemory::kPageSize;

using Extents = std::vector<std::pair<std::uint32_t, std::size_t>>;

// Segments at `extents` ({addr, size}), in this order, filled with nonzero
// seeded bytes.
std::vector<PageImage::Segment> seeded_segments(const Extents& extents,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PageImage::Segment> segments;
  for (const auto& [addr, size] : extents) {
    PageImage::Bytes bytes(size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(1 + rng.below(255));
    segments.push_back(
        {addr, std::make_shared<const PageImage::Bytes>(std::move(bytes))});
  }
  return segments;
}

// A memory whose private pages hold the segments: poked in order and
// clipped at 2^32, the way a context used to load its program.
MainMemory poked(const std::vector<PageImage::Segment>& segments) {
  MainMemory mem;
  for (const PageImage::Segment& seg : segments)
    mem.poke_bytes(seg.addr, seg.bytes->data(),
                   std::min<std::uint64_t>(seg.bytes->size(),
                                           (std::uint64_t{1} << 32) - seg.addr));
  return mem;
}

MainMemory backed_by(const std::shared_ptr<const PageImage>& image) {
  MainMemory mem;
  mem.reset(image);
  return mem;
}

TEST(MainMemoryCow, LoadAfterStoreToABasePageSeesTheStore) {
  const auto segments = seeded_segments({{4 * kPage, kPage}}, 1);
  const auto image = std::make_shared<const PageImage>(segments);
  MainMemory mem = backed_by(image);
  const std::uint32_t addr = 4 * kPage + 0x40;
  const std::uint32_t before = mem.peek_u32(addr);  // memo holds the base
  ASSERT_TRUE(mem.store(addr, 4, ~before));
  EXPECT_EQ(mem.peek_u32(addr), ~before);
  std::uint32_t b = 0;
  ASSERT_TRUE(mem.load(addr + 1, 1, b));
  EXPECT_EQ(b, (~before >> 8) & 0xFF);
}

TEST(MainMemoryCow, StoreCopiesOnlyItsPageAndLeavesTheBaseAlone) {
  const auto segments = seeded_segments({{4 * kPage, 2 * kPage}}, 2);
  const PageImage::Bytes original = *segments[0].bytes;
  const auto image = std::make_shared<const PageImage>(segments);
  MainMemory mem = backed_by(image);
  MainMemory other = backed_by(image);
  EXPECT_EQ(mem.private_pages(), 0u);

  const std::uint32_t addr = 5 * kPage + 0x100;
  ASSERT_TRUE(mem.store(addr, 4, 0xDEADBEEF));
  EXPECT_EQ(mem.private_pages(), 1u);
  for (std::uint32_t a = 4 * kPage; a < 6 * kPage; a += 4) {
    std::uint32_t want = 0;
    std::memcpy(&want, original.data() + (a - 4 * kPage), 4);
    if (a != addr) {
      ASSERT_EQ(mem.peek_u32(a), want) << std::hex << a;
    }
    ASSERT_EQ(other.peek_u32(a), want) << std::hex << a;
  }
  EXPECT_EQ(*segments[0].bytes, original);  // the image bytes are untouched
  EXPECT_EQ(other.private_pages(), 0u);

  mem.reset(image);
  EXPECT_EQ(mem.private_pages(), 0u);
  EXPECT_EQ(mem.fingerprint(), other.fingerprint());
}

TEST(MainMemoryCow, FingerprintMatchesPokedSegments) {
  const std::vector<Extents> layouts = {
      {{3 * kPage, kPage}},                      // one whole page
      {{3 * kPage + 0x10, 0x100}},               // part of a page
      {{6 * kPage - 0x300, 0x600}},              // straddles pages 5|6
      {{2 * kPage, 3 * kPage + 0x20}},           // whole pages and a tail
      {{8 * kPage - 0x200, 0x800},               // overlapping: B on A, C
       {8 * kPage + 0x100, 0x100},               // across both and the
       {8 * kPage - 0x80, 0x200}},               // 7|8 boundary
      {{9 * kPage, 2 * kPage}, {9 * kPage + 0x40, 0x10}},  // a hole in an
                                                           // aliased page
      {{0xFFFF'0000u, kPage}},                   // the last page
      {{0xFFFF'FF00u, 0x200}},                   // clipped at 2^32
      {{4 * kPage, 0}},                          // empty
  };
  for (std::size_t n = 0; n < layouts.size(); ++n) {
    const auto segments = seeded_segments(layouts[n], 10 + n);
    const auto image = std::make_shared<const PageImage>(segments);
    MainMemory mem = backed_by(image);
    MainMemory oracle = poked(segments);
    ASSERT_EQ(mem.fingerprint(), oracle.fingerprint()) << "layout " << n;
    ASSERT_EQ(mem.private_pages(), 0u);

    // Seeded stores on and around every segment, to both memories.
    Rng rng(100 + n);
    for (int i = 0; i < 64; ++i) {
      const auto& [addr, size] =
          layouts[n][rng.below(static_cast<std::uint32_t>(layouts[n].size()))];
      const std::uint32_t a =
          (addr - 0x80 + rng.below(static_cast<std::uint32_t>(size) + 0x100)) &
          ~3u;
      if (a < MainMemory::kGuardLimit) continue;
      const std::uint32_t v = rng.next_u32();
      ASSERT_TRUE(mem.store(a, 4, v));
      ASSERT_TRUE(oracle.store(a, 4, v));
      ASSERT_EQ(mem.peek_u32(a), v);
    }
    EXPECT_EQ(mem.fingerprint(), oracle.fingerprint()) << "layout " << n;
    mem.reset(image);
    EXPECT_EQ(mem.fingerprint(), poked(segments).fingerprint())
        << "layout " << n;
  }
}

TEST(MainMemoryCow, WholePagesAliasTheSegmentBytes) {
  // Page 1 of the first segment is wholly inside it; page 2 is covered
  // last by the second segment, whole; page 3 is partly covered.
  const auto segments =
      seeded_segments({{kPage, 2 * kPage + 0x10}, {2 * kPage, kPage}}, 3);
  const PageImage image(segments);
  ASSERT_EQ(image.pages().size(), 3u);
  EXPECT_EQ(image.page(1), segments[0].bytes->data());
  EXPECT_EQ(image.page(2), segments[1].bytes->data());
  EXPECT_NE(image.page(3), nullptr);
  EXPECT_EQ(image.page(3)[0], (*segments[0].bytes)[2 * kPage]);
  EXPECT_EQ(image.page(3)[0x10], 0);
  EXPECT_EQ(image.page(0), nullptr);
  EXPECT_EQ(image.page(4), nullptr);
}

TEST(MainMemory, MoveTakesThePrivatePagesAlong) {
  const auto image = std::make_shared<const PageImage>(
      seeded_segments({{3 * kPage, kPage}}, 4));
  MainMemory a = backed_by(image);
  ASSERT_TRUE(a.store(3 * kPage, 4, 1));
  ASSERT_TRUE(a.store(5 * kPage, 4, 2));
  MainMemory b = std::move(a);
  EXPECT_EQ(b.private_pages(), 2u);
  EXPECT_EQ(b.peek_u32(3 * kPage), 1u);
  EXPECT_EQ(b.peek_u32(5 * kPage), 2u);
  EXPECT_EQ(a.private_pages(), 0u);  // left with no base and no pages
  EXPECT_EQ(a.fingerprint(), MainMemory().fingerprint());

  MainMemory c = backed_by(image);
  ASSERT_TRUE(c.store(6 * kPage, 4, 3));
  c = std::move(b);
  EXPECT_EQ(c.private_pages(), 2u);
  EXPECT_EQ(c.peek_u32(6 * kPage), 0u);
  EXPECT_EQ(c.peek_u32(3 * kPage), 1u);
  EXPECT_EQ(b.private_pages(), 0u);
  EXPECT_EQ(b.fingerprint(), MainMemory().fingerprint());

  // A copy shares the base and copies the pages: neither sees the other's
  // stores.
  MainMemory d = c;
  ASSERT_TRUE(d.store(3 * kPage, 4, 7));
  ASSERT_TRUE(c.store(3 * kPage + 4, 4, 8));
  EXPECT_EQ(c.peek_u32(3 * kPage), 1u);
  EXPECT_EQ(d.peek_u32(3 * kPage + 4), image->page(3)[4] |
                                           image->page(3)[5] << 8 |
                                           image->page(3)[6] << 16 |
                                           image->page(3)[7] << 24);
}

TEST(MainMemory, ResetDropsExactlyThePrivatePages) {
  const auto segments = seeded_segments({{2 * kPage + 8, 4}}, 5);
  const auto image = std::make_shared<const PageImage>(segments);
  MainMemory mem = backed_by(image);
  const std::uint32_t loaded = mem.peek_u32(2 * kPage + 8);
  EXPECT_NE(loaded, 0u);

  ASSERT_TRUE(mem.store(7 * kPage + 4, 4, 1));
  mem.poke_u32(3 * kPage, 2);
  ASSERT_TRUE(mem.store(7 * kPage + 8, 2, 3));  // same page: copied once
  std::uint32_t v = 0;
  ASSERT_TRUE(mem.load(9 * kPage, 4, v));  // loads write nothing
  ASSERT_TRUE(mem.load(2 * kPage + 8, 4, v));
  EXPECT_EQ(mem.private_pages(), 2u);
  ASSERT_TRUE(mem.store(2 * kPage + 8, 4, 4));
  EXPECT_EQ(mem.private_pages(), 3u);

  mem.reset(image);
  EXPECT_EQ(mem.private_pages(), 0u);
  EXPECT_EQ(mem.peek_u32(7 * kPage + 4), 0u);
  EXPECT_EQ(mem.peek_u32(3 * kPage), 0u);
  EXPECT_EQ(mem.peek_u32(2 * kPage + 8), loaded);

  mem.reset(nullptr);
  EXPECT_EQ(mem.peek_u32(2 * kPage + 8), 0u);
  EXPECT_EQ(mem.fingerprint(), MainMemory().fingerprint());
}

TEST(MainMemory, ResetWithoutABaseClears) {
  MainMemory mem;
  ASSERT_TRUE(mem.store(0x4000, 4, 9));
  mem.reset(nullptr);
  std::uint32_t v = 1;
  ASSERT_TRUE(mem.load(0x4000, 4, v));
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(mem.private_pages(), 0u);
}

// --- The digest memo: image digest states shared by segment list ---------

using Pages = std::map<std::uint32_t, std::vector<std::uint8_t>>;

// The pages `segments` cover, built without PageImage: applied in order,
// later ones on top, clipped at 2^32.
Pages pages_of(const std::vector<PageImage::Segment>& segments) {
  Pages pages;
  for (const PageImage::Segment& seg : segments) {
    const std::uint64_t end = std::min<std::uint64_t>(
        seg.addr + seg.bytes->size(), std::uint64_t{1} << 32);
    for (std::uint64_t a = seg.addr; a < end;) {
      std::vector<std::uint8_t>& page =
          pages[static_cast<std::uint32_t>(a >> MainMemory::kPageBits)];
      page.resize(kPage);
      const std::uint64_t off = a & (kPage - 1);
      const std::uint64_t run = std::min<std::uint64_t>(kPage - off, end - a);
      std::copy_n(
          seg.bytes->begin() + static_cast<std::ptrdiff_t>(a - seg.addr), run,
          page.begin() + static_cast<std::ptrdiff_t>(off));
      a += run;
    }
  }
  return pages;
}

// Writes `value` at `addr` into the memory and into its oracle pages.
void store_both(MainMemory& mem, Pages& pages, std::uint32_t addr,
                std::uint32_t value) {
  ASSERT_TRUE(mem.store(addr, 4, value));
  std::vector<std::uint8_t>& page = pages[addr >> MainMemory::kPageBits];
  page.resize(kPage);
  for (std::uint32_t b = 0; b < 4; ++b)
    page[(addr & (kPage - 1)) + b] =
        static_cast<std::uint8_t>(value >> (8 * b));
}

// A memory over `image` after one store at each of `addrs` must digest like
// the byte loop over the same view, and so must the loaded image alone.
void expect_digests_like_the_byte_loop(
    const std::shared_ptr<const PageImage>& image,
    const std::vector<PageImage::Segment>& segments,
    const std::vector<std::uint32_t>& addrs, std::uint32_t value) {
  Pages pages = pages_of(segments);
  MainMemory mem = backed_by(image);
  ASSERT_EQ(mem.fingerprint(), byte_loop_fingerprint(pages));
  EXPECT_EQ(image->digest_states().back(), byte_loop_fingerprint(pages));
  for (const std::uint32_t addr : addrs) {
    ASSERT_NO_FATAL_FAILURE(store_both(mem, pages, addr, value));
    ASSERT_EQ(mem.fingerprint(), byte_loop_fingerprint(pages))
        << "after a store at 0x" << std::hex << addr;
  }
}

TEST(MainMemoryDigest, ImagesOverTheSameSegmentsShareTheirStates) {
  // Two images built separately from one segment list share one table of
  // states; an image over equal bytes in other DataImages gets its own.
  const auto segments = seeded_segments({{0x60 * kPage, 16 * kPage}}, 20);
  const auto a = std::make_shared<const PageImage>(segments);
  const auto b = std::make_shared<const PageImage>(segments);
  EXPECT_EQ(&a->digest_states(), &b->digest_states());
  ASSERT_EQ(a->digest_states().size(), a->pages().size() + 1);

  std::vector<PageImage::Segment> copies;
  for (const PageImage::Segment& seg : segments)
    copies.push_back(
        {seg.addr, std::make_shared<const PageImage::Bytes>(*seg.bytes)});
  const auto c = std::make_shared<const PageImage>(copies);
  EXPECT_NE(&a->digest_states(), &c->digest_states());
  EXPECT_EQ(a->digest_states(), c->digest_states());

  // Same bytes at another address: another digest.
  const auto moved = std::make_shared<const PageImage>(
      std::vector<PageImage::Segment>{{0x61 * kPage, segments[0].bytes}});
  EXPECT_NE(moved->digest_states().back(), a->digest_states().back());

  // Memories over either image digest their own stores.
  expect_digests_like_the_byte_loop(a, segments, {0x70 * kPage + 0x40}, 7);
  expect_digests_like_the_byte_loop(b, segments, {0x64 * kPage + 0x10}, 9);
  expect_digests_like_the_byte_loop(c, copies, {0x5F * kPage, 0x6F * kPage},
                                    11);
}

TEST(MainMemoryDigest, PrivatePagesBeforeBetweenAndAfterTheImage) {
  // Synth: a 1 MiB pool on pages 0x60-0x6F, stores to the output page 0x70.
  const auto synth = seeded_segments({{0x60 * kPage, 16 * kPage}}, 21);
  expect_digests_like_the_byte_loop(
      std::make_shared<const PageImage>(synth), synth,
      {0x70 * kPage, 0x70 * kPage + 0x100, 0x70 * kPage + 0xFFFC}, 0xABCD);
  // Blowfish: a 4 KiB S-box on page 0x50 and a 256 KiB stream on pages
  // 0x52-0x55, encrypted in place from its first page on.
  const auto blowfish =
      seeded_segments({{0x50 * kPage, 0x1000}, {0x52 * kPage, 4 * kPage}}, 22);
  const auto blowfish_image = std::make_shared<const PageImage>(blowfish);
  expect_digests_like_the_byte_loop(
      blowfish_image, blowfish,
      {0x52 * kPage, 0x52 * kPage + 8, 0x53 * kPage + 0x40, 0x55 * kPage + 4},
      0x5EED);
  // Before every image page, on the uncovered page between two, on the
  // first and the last image page, and past the image.
  for (const std::uint32_t addr :
       {0x10 * kPage + 0x20, 0x4F * kPage + 0xFFFC, 0x51 * kPage,
        0x50 * kPage + 0x2000, 0x55 * kPage + 0xFFFC, 0x56 * kPage,
        0xFFFF * kPage + 0x100})
    expect_digests_like_the_byte_loop(blowfish_image, blowfish, {addr},
                                      0x1234'5678);
  // Every page of the image written, in descending order.
  expect_digests_like_the_byte_loop(
      blowfish_image, blowfish,
      {0x55 * kPage, 0x54 * kPage, 0x53 * kPage, 0x52 * kPage, 0x50 * kPage},
      0x0BAD'F00D);
}

TEST(MainMemoryDigest, ZeroPagesAndZeroRunsAcrossWordAndPageEdges) {
  // Page 0x20 is all zero; page 0x21 ends in zeros that run on into the
  // start of page 0x22; zero runs start and end on and off word edges.
  PageImage::Bytes bytes(4 * kPage);
  Rng rng(23);
  for (std::size_t i = kPage; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(1 + rng.below(255));
  const std::pair<std::size_t, std::size_t> zeros[] = {
      {2 * kPage - 13, 2 * kPage + 21},    // across the 0x21|0x22 edge
      {kPage + 5, kPage + 13},             // off word edges, spans one
      {kPage + 16, kPage + 24},            // exactly one word
      {kPage + 31, kPage + 33},            // across a word edge
      {kPage + 0x100, kPage + 0x100 + 1},  // one byte
      {3 * kPage + 7, 3 * kPage + 0x4000}, // a long run
      {4 * kPage - 8, 4 * kPage},          // the page's last word
  };
  for (const auto& [from, to] : zeros)
    std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(from),
              bytes.begin() + static_cast<std::ptrdiff_t>(to), 0);
  const std::vector<PageImage::Segment> segments = {
      {0x20 * kPage,
       std::make_shared<const PageImage::Bytes>(std::move(bytes))},
      {0x30 * kPage,
       std::make_shared<const PageImage::Bytes>(kPage, std::uint8_t{0})}};
  const auto image = std::make_shared<const PageImage>(segments);
  ASSERT_EQ(image->pages().size(), 5u);
  // A zero page's state is the one below it: it adds nothing.
  EXPECT_EQ(image->digest_states()[0], image->digest_states()[1]);
  EXPECT_EQ(image->digest_states()[4], image->digest_states()[5]);

  for (const std::uint32_t addr :
       {0x20 * kPage + 0x40, 0x21 * kPage + 8, 0x22 * kPage + 12,
        0x23 * kPage + 0xFFF8, 0x30 * kPage + 4, 0x1F * kPage})
    expect_digests_like_the_byte_loop(image, segments, {addr}, 0x00C0'FFEE);
  // A zero written over nonzero image bytes, and a page zeroed by stores:
  // the private copy of page 0x21's first word, then a whole private page
  // of zeros, which digests like untouched memory.
  expect_digests_like_the_byte_loop(image, segments,
                                    {0x21 * kPage, 0x21 * kPage + 4}, 0);
  std::vector<std::uint32_t> zero_page;
  for (std::uint32_t off = 0; off < kPage; off += 4)
    zero_page.push_back(0x23 * kPage + off);
  Pages pages = pages_of(segments);
  MainMemory mem = backed_by(image);
  for (const std::uint32_t addr : zero_page)
    ASSERT_NO_FATAL_FAILURE(store_both(mem, pages, addr, 0));
  EXPECT_EQ(mem.fingerprint(), byte_loop_fingerprint(pages));
  EXPECT_EQ(mem.fingerprint(), image->digest_states()[3]);
}

TEST(MainMemoryDigest, ComposedPages) {
  // Overlapping segments and partial pages: pages 7, 8 and 0xB are
  // composed, 9 and 0xA alias the last segment's bytes.
  const Extents extents = {{8 * kPage - 0x200, 0x800},
                           {8 * kPage + 0x100, 0x100},
                           {8 * kPage - 0x80, 0x200},
                           {9 * kPage, 2 * kPage + 0x30}};
  const auto segments = seeded_segments(extents, 24);
  const auto image = std::make_shared<const PageImage>(segments);
  ASSERT_EQ(image->pages().size(), 5u);
  EXPECT_EQ(&image->digest_states(),
            &std::make_shared<const PageImage>(segments)->digest_states());
  for (const std::vector<std::uint32_t>& addrs :
       std::vector<std::vector<std::uint32_t>>{
           {8 * kPage - 0x100},
           {8 * kPage + 0x180},
           {0xB * kPage + 0x10, 0xB * kPage + 0x100},
           {6 * kPage, 0xA * kPage + 0x20},
           {0xC * kPage}})
    expect_digests_like_the_byte_loop(image, segments, addrs, 0xFEED'FACE);
}

TEST(MainMemoryDigest, ARecycledAllocationNeverServesADeadImagesStates) {
  // Each round builds different bytes in one slot, so every round's image
  // has the address the last one had, digests them, and drops every
  // segment and image. Only the image's owner tells the rounds apart: the
  // table must miss and never serve a dead image's states.
  alignas(PageImage::Bytes) unsigned char slot[sizeof(PageImage::Bytes)];
  for (std::uint64_t round = 0; round < 8; ++round) {
    const auto seeded =
        seeded_segments({{0x40 * kPage, 2 * kPage}}, 30 + round);
    const std::vector<PageImage::Segment> segments = {
        {seeded[0].addr,
         std::shared_ptr<const PageImage::Bytes>(
             new (slot) PageImage::Bytes(*seeded[0].bytes),
             [](const PageImage::Bytes* bytes) { std::destroy_at(bytes); })}};
    ASSERT_EQ(segments[0].bytes.get(),
              reinterpret_cast<const PageImage::Bytes*>(slot));
    expect_digests_like_the_byte_loop(
        std::make_shared<const PageImage>(segments), segments,
        {0x41 * kPage + 0x10, 0x42 * kPage}, 3);
  }
}

}  // namespace
}  // namespace vexsim
