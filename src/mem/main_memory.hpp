// Functional main memory: sparse, paged, little-endian, zero-initialized.
//
// Each benchmark thread owns a private address space (the evaluation runs
// multiprogrammed workloads, not shared-memory ones). Accesses below
// kGuardLimit or misaligned accesses fault — used by the precise-exception
// machinery and its tests.
//
// Copy-on-write: a memory is an immutable base (a PageImage holding the
// loaded program's initial contents, shared with every copy of the memory)
// plus the private pages this memory has written. A load reads the private
// page where one exists, the base page otherwise, and zero where neither
// does. The first store or poke to a page creates its private copy, from the
// base page or zero-filled. reset(base) drops every private page, so
// restoring a loaded image costs what the last run wrote, not the image's
// size, and nothing ever writes through the base.
//
// load/store are inline: they run once per executed memory operation, and
// with the page memo the whole fast path is a handful of instructions — a
// cross-TU call would cost more than the access.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace vexsim {

// An immutable initial memory image: page index -> kPageSize bytes, built
// once from segments (address, bytes) applied in order, later ones on top,
// and clipped at 2^32. A page that lies wholly inside the last segment
// covering it points into that segment's bytes, with no copy; every other
// covered page is composed once, zero-filled and then overlaid with each
// segment in order. The image keeps the segments' bytes alive.
//
// The image also carries the digest state MainMemory::fingerprint() reaches
// below each of its pages. The states depend only on the segments, so a
// process-wide table computes them once per distinct segment list (each
// segment by address and image identity) and every image built from that
// list shares them: the synth programs over one pool, or the contexts of
// one registry program.
class PageImage {
 public:
  // 64 KiB pages. MainMemory::fingerprint() mixes in the page index, so
  // another page size would change every memory digest, and with it every
  // arch_fingerprint and every cached record.
  static constexpr std::uint32_t kPageBits = 16;
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;

  using Bytes = std::vector<std::uint8_t>;
  struct Segment {
    std::uint32_t addr = 0;
    std::shared_ptr<const Bytes> bytes;  // never null
  };

  explicit PageImage(const std::vector<Segment>& segments);

  // The bytes of page `index`, or nullptr where no segment reaches it.
  [[nodiscard]] const std::uint8_t* page(std::uint32_t index) const;

  // Every covered page, ascending by index.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t,
                                            const std::uint8_t*>>&
  pages() const {
    return pages_;
  }

  // pages().size() + 1 states: entry k is the FNV-1a digest state after
  // pages()[0..k), so entry 0 is the offset basis and the last entry is the
  // digest of the image alone. Images over one segment list share one copy.
  [[nodiscard]] const std::vector<std::uint64_t>& digest_states() const {
    return *digest_states_;
  }

 private:
  std::vector<std::pair<std::uint32_t, const std::uint8_t*>> pages_;
  Bytes composed_;  // the composed pages, back to back
  std::vector<std::shared_ptr<const Bytes>> owners_;
  std::shared_ptr<const std::vector<std::uint64_t>> digest_states_;
};

class MainMemory {
 public:
  static constexpr std::uint32_t kPageBits = PageImage::kPageBits;
  static constexpr std::uint32_t kPageSize = PageImage::kPageSize;
  static constexpr std::uint32_t kGuardLimit = 0x100;  // null-page guard

  MainMemory() = default;
  // A copy shares the base and copies the private pages. No two memories
  // may share private pages through the memo: a copy starts with an empty
  // memo, and a moved-from memory keeps no base and no pages.
  MainMemory(const MainMemory& other)
      : base_(other.base_), private_(other.private_) {}
  MainMemory& operator=(const MainMemory& other) {
    base_ = other.base_;
    private_ = other.private_;
    reset_memo();
    return *this;
  }
  MainMemory(MainMemory&& other) noexcept
      : base_(std::move(other.base_)), private_(std::move(other.private_)) {
    other.reset(nullptr);
  }
  MainMemory& operator=(MainMemory&& other) noexcept {
    if (this == &other) return *this;
    base_ = std::move(other.base_);
    private_ = std::move(other.private_);
    reset_memo();
    other.reset(nullptr);
    return *this;
  }

  // size ∈ {1,2,4}. Returns false on fault (misaligned / guard page); the
  // value is sign- or zero-extended by the caller (ISA level), not here.
  [[nodiscard]] bool load(std::uint32_t addr, int size,
                          std::uint32_t& out) const {
    VEXSIM_CHECK(size == 1 || size == 2 || size == 4);
    if (addr < kGuardLimit) return false;
    if ((addr & (static_cast<std::uint32_t>(size) - 1)) != 0) return false;
    const std::uint8_t* const p = find_page(addr);
    if (p == nullptr) {
      out = 0;  // untouched memory reads as zero
      return true;
    }
    // A whole access never crosses a page: pages are 64 KiB and aligned, and
    // the alignment check above keeps a size-n access inside an n-byte unit.
    const std::uint32_t off = addr & (kPageSize - 1);
    if constexpr (std::endian::native == std::endian::little) {
      // The simulated machine is little-endian too: aligned accesses are a
      // straight memcpy (which the compiler lowers to a single load).
      if (size == 4) {
        std::uint32_t v = 0;
        std::memcpy(&v, p + off, 4);
        out = v;
        return true;
      }
      if (size == 2) {
        std::uint16_t v = 0;
        std::memcpy(&v, p + off, 2);
        out = v;
        return true;
      }
    }
    std::uint32_t v = 0;
    for (int i = size - 1; i >= 0; --i)
      v = (v << 8) | p[off + static_cast<std::uint32_t>(i)];
    out = v;
    return true;
  }

  [[nodiscard]] bool store(std::uint32_t addr, int size, std::uint32_t value) {
    VEXSIM_CHECK(size == 1 || size == 2 || size == 4);
    if (addr < kGuardLimit) return false;
    if ((addr & (static_cast<std::uint32_t>(size) - 1)) != 0) return false;
    std::uint8_t* const p = page_for(addr);
    const std::uint32_t off = addr & (kPageSize - 1);
    if constexpr (std::endian::native == std::endian::little) {
      if (size == 4) {
        std::memcpy(p + off, &value, 4);
        return true;
      }
      if (size == 2) {
        const auto v = static_cast<std::uint16_t>(value);
        std::memcpy(p + off, &v, 2);
        return true;
      }
    }
    for (int i = 0; i < size; ++i)
      p[off + static_cast<std::uint32_t>(i)] =
          static_cast<std::uint8_t>(value >> (8 * i));
    return true;
  }

  // Unchecked helpers for test and example setup. A poke writes like a
  // store.
  void poke_bytes(std::uint32_t addr, const std::uint8_t* bytes,
                  std::size_t n);
  void poke_u32(std::uint32_t addr, std::uint32_t value);
  [[nodiscard]] std::uint32_t peek_u32(std::uint32_t addr) const;

  // Drops every private page and reads `base` from now on (nothing, and so
  // all zeros, when null).
  void reset(std::shared_ptr<const PageImage> base) {
    base_ = std::move(base);
    private_.clear();
    reset_memo();
  }

  // Pages this memory owns: the ones written since the last reset().
  [[nodiscard]] std::size_t private_pages() const { return private_.size(); }

  // Deterministic digest of the memory's contents — used by equivalence
  // tests to compare final memory states across techniques. It starts from
  // the base's digest state below the first private page, so it hashes only
  // the private pages and the base pages after the first of them.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  static constexpr std::uint32_t kNoPage = ~0u;

  [[nodiscard]] const std::uint8_t* find_page(std::uint32_t addr) const {
    const std::uint32_t index = addr >> kPageBits;
    const std::uint32_t lane = index & (kMemoLanes - 1);
    if (index == load_index_[lane]) return load_page_[lane];
    const std::uint8_t* p = nullptr;
    if (const auto it = private_.find(index); it != private_.end())
      p = it->second.data();
    else if (base_ != nullptr)
      p = base_->page(index);
    if (p == nullptr) return nullptr;  // absence is not cached: a store
                                       // may create the page later
    load_index_[lane] = index;
    load_page_[lane] = p;
    return p;
  }

  // The private page to write `addr` into: past the memo, created from the
  // base page (or zero-filled) on the first write.
  std::uint8_t* page_for(std::uint32_t addr) {
    const std::uint32_t index = addr >> kPageBits;
    const std::uint32_t lane = index & (kMemoLanes - 1);
    if (index == store_index_[lane]) return store_page_[lane];
    return own_page(index, lane);
  }

  std::uint8_t* own_page(std::uint32_t index, std::uint32_t lane);

  void reset_memo() {
    load_index_.fill(kNoPage);
    load_page_.fill(nullptr);
    store_index_.fill(kNoPage);
    store_page_.fill(nullptr);
  }

  std::shared_ptr<const PageImage> base_;
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> private_;
  // Small direct-mapped page memos (indexed by the low page-index bits):
  // kernel working sets hammer a handful of pages, so the common access
  // skips the lookups. A load lane may hold a base page or a private one; a
  // store lane holds only private pages, and creating a private page points
  // the load lane of its index at it too, so a later load sees the store.
  // Private pages live in node-based storage, so cached pointers stay valid
  // until reset() drops the pages.
  static constexpr std::uint32_t kMemoLanes = 4;  // power of two
  mutable std::array<std::uint32_t, kMemoLanes> load_index_{
      kNoPage, kNoPage, kNoPage, kNoPage};
  mutable std::array<const std::uint8_t*, kMemoLanes> load_page_{};
  std::array<std::uint32_t, kMemoLanes> store_index_{kNoPage, kNoPage,
                                                     kNoPage, kNoPage};
  std::array<std::uint8_t*, kMemoLanes> store_page_{};
};

}  // namespace vexsim
