// Functional main memory: sparse, paged, little-endian, zero-initialized.
//
// Each benchmark thread owns a private address space (the evaluation runs
// multiprogrammed workloads, not shared-memory ones). Accesses below
// kGuardLimit or misaligned accesses fault — used by the precise-exception
// machinery and its tests.
//
// Written-page contract: the memory records every page a store or a poke
// has written since the last rewind(). A new or cleared memory counts every
// page as written. rewind() drops the written pages and hands their address
// ranges back to the owner to reload, so restoring a loaded image costs what
// the last run wrote, not the image's size; pages nobody wrote keep their
// bytes.
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

class MainMemory {
 public:
  static constexpr std::uint32_t kPageBits = 16;  // 64 KiB pages
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;
  static constexpr std::uint32_t kGuardLimit = 0x100;  // null-page guard

  MainMemory() = default;
  // No two memories may share page storage through the memo: a copy starts
  // with an empty memo, and a moved-from memory is left cleared.
  MainMemory(const MainMemory& other)
      : pages_(other.pages_),
        written_(other.written_),
        all_written_(other.all_written_) {}
  MainMemory& operator=(const MainMemory& other) {
    pages_ = other.pages_;
    written_ = other.written_;
    all_written_ = other.all_written_;
    reset_memo();
    return *this;
  }
  MainMemory(MainMemory&& other) noexcept
      : pages_(std::move(other.pages_)),
        written_(std::move(other.written_)),
        all_written_(other.all_written_) {
    other.clear();
  }
  MainMemory& operator=(MainMemory&& other) noexcept {
    if (this == &other) return *this;
    pages_ = std::move(other.pages_);
    written_ = std::move(other.written_);
    all_written_ = other.all_written_;
    reset_memo();
    other.clear();
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

  // Unchecked helpers for program loading and test setup. Pokes count as
  // writes.
  void poke_bytes(std::uint32_t addr, const std::uint8_t* bytes,
                  std::size_t n);
  void poke_u32(std::uint32_t addr, std::uint32_t value);
  [[nodiscard]] std::uint32_t peek_u32(std::uint32_t addr) const;

  // Drops every page, which leaves every page counted as written.
  void clear() {
    pages_.clear();
    written_.clear();
    all_written_ = true;
    reset_memo();
  }

  // Restores a loaded image: drops every page written since the last rewind
  // (all of memory, the first time and after clear()), then calls
  // reload(lo, hi) once per dropped address range [lo, hi) for the owner to
  // poke the image bytes that fall in it. Afterwards no page counts as
  // written, the reloaded ones included.
  template <class Reload>
  void rewind(Reload&& reload) {
    // reload() appends the pages it recreates to written_, after the
    // `dropped` entries whose pages are gone.
    std::size_t dropped = 0;
    if (all_written_) {
      clear();
      reload(std::uint64_t{0}, std::uint64_t{1} << 32);
    } else {
      dropped = written_.size();
      for (std::size_t i = 0; i < dropped; ++i) pages_.erase(written_[i]);
      reset_memo();
      for (std::size_t i = 0; i < dropped; ++i) {
        const std::uint64_t lo = std::uint64_t{written_[i]} << kPageBits;
        reload(lo, lo + kPageSize);
      }
    }
    for (std::size_t i = dropped; i < written_.size(); ++i)
      pages_.find(written_[i])->second.written = false;
    written_.clear();
    all_written_ = false;
  }

  // Deterministic digest of all touched pages — used by equivalence tests to
  // compare final memory states across techniques.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  struct Page {
    std::vector<std::uint8_t> bytes = std::vector<std::uint8_t>(kPageSize);
    bool written = false;  // listed in written_
  };
  static constexpr std::uint32_t kNoPage = ~0u;

  [[nodiscard]] const std::uint8_t* find_page(std::uint32_t addr) const {
    const std::uint32_t index = addr >> kPageBits;
    const std::uint32_t lane = index & (kMemoLanes - 1);
    if (index == cached_index_[lane]) return cached_page_[lane]->bytes.data();
    const auto it = pages_.find(index);
    if (it == pages_.end()) return nullptr;  // absence is not cached: a store
                                             // may create the page later
    cached_index_[lane] = index;
    cached_page_[lane] = const_cast<Page*>(&it->second);
    return it->second.bytes.data();
  }

  // The page to write `addr` into, created if absent and recorded as
  // written: past the memo, the only cost is one flag test.
  std::uint8_t* page_for(std::uint32_t addr) {
    const std::uint32_t index = addr >> kPageBits;
    const std::uint32_t lane = index & (kMemoLanes - 1);
    Page* p = cached_page_[lane];
    if (index != cached_index_[lane]) {
      p = &pages_[index];
      cached_index_[lane] = index;
      cached_page_[lane] = p;
    }
    if (!p->written) note_written(*p, index);
    return p->bytes.data();
  }

  void note_written(Page& p, std::uint32_t index);  // out of line: cold

  void reset_memo() {
    cached_index_.fill(kNoPage);
    cached_page_.fill(nullptr);
  }

  std::unordered_map<std::uint32_t, Page> pages_;
  // Indices of the pages whose `written` flag is set, in first-write order.
  // While all_written_ is set, every page counts as written regardless.
  std::vector<std::uint32_t> written_;
  bool all_written_ = true;
  // Small direct-mapped page memo (indexed by the low page-index bits):
  // kernel working sets hammer a handful of pages, so the common access
  // skips the hash lookup, and a load stream on one page no longer evicts
  // the memo for a store stream on another. Page storage is node-based
  // (unordered_map), so cached pointers stay valid until the page is
  // dropped (clear(), rewind()).
  static constexpr std::uint32_t kMemoLanes = 4;  // power of two
  mutable std::array<std::uint32_t, kMemoLanes> cached_index_{
      kNoPage, kNoPage, kNoPage, kNoPage};
  mutable std::array<Page*, kMemoLanes> cached_page_{};
};

}  // namespace vexsim
