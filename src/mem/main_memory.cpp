#include "mem/main_memory.hpp"

#include <algorithm>
#include <map>

namespace vexsim {

namespace {

// The part [lo, hi) of a segment's bytes that lies below 2^32.
std::pair<std::uint64_t, std::uint64_t> extent(
    const PageImage::Segment& seg) {
  const std::uint64_t lo = seg.addr;
  return {lo, std::min<std::uint64_t>(lo + seg.bytes->size(),
                                      std::uint64_t{1} << 32)};
}

}  // namespace

PageImage::PageImage(const std::vector<Segment>& segments) {
  // The last segment covering each page: if it covers the whole page, the
  // earlier ones are overwritten there and the page aliases its bytes.
  std::map<std::uint32_t, const Segment*> last;
  for (const Segment& seg : segments) {
    VEXSIM_CHECK(seg.bytes != nullptr);
    const auto [lo, hi] = extent(seg);
    if (lo == hi) continue;
    for (std::uint64_t index = lo >> kPageBits;
         index <= (hi - 1) >> kPageBits; ++index)
      last[static_cast<std::uint32_t>(index)] = &seg;
    owners_.push_back(seg.bytes);
  }
  const auto whole = [](std::uint32_t index, const Segment& seg) {
    const std::uint64_t page = std::uint64_t{index} << kPageBits;
    const auto [lo, hi] = extent(seg);
    return lo <= page && page + kPageSize <= hi;
  };
  std::size_t composed = 0;
  for (const auto& [index, seg] : last) composed += whole(index, *seg) ? 0 : 1;
  composed_.resize(composed * kPageSize);

  pages_.reserve(last.size());
  std::uint8_t* next = composed_.data();
  for (const auto& [index, top] : last) {
    const std::uint64_t page = std::uint64_t{index} << kPageBits;
    if (whole(index, *top)) {
      pages_.emplace_back(index, top->bytes->data() + (page - top->addr));
      continue;
    }
    for (const Segment& seg : segments) {
      const auto [lo, hi] = extent(seg);
      const std::uint64_t from = std::max(lo, page);
      const std::uint64_t to = std::min(hi, page + kPageSize);
      if (from < to)
        std::copy(seg.bytes->data() + (from - lo), seg.bytes->data() + (to - lo),
                  next + (from - page));
    }
    pages_.emplace_back(index, next);
    next += kPageSize;
  }
}

const std::uint8_t* PageImage::page(std::uint32_t index) const {
  const auto it = std::lower_bound(
      pages_.begin(), pages_.end(), index,
      [](const auto& entry, std::uint32_t i) { return entry.first < i; });
  return it != pages_.end() && it->first == index ? it->second : nullptr;
}

void MainMemory::poke_bytes(std::uint32_t addr, const std::uint8_t* bytes,
                            std::size_t n) {
  // Copy page-sized runs: one page lookup per 64 KiB instead of per byte.
  std::size_t i = 0;
  while (i < n) {
    const std::uint32_t a = addr + static_cast<std::uint32_t>(i);
    std::uint8_t* const p = page_for(a);
    const std::uint32_t off = a & (kPageSize - 1);
    const std::size_t run =
        std::min(n - i, static_cast<std::size_t>(kPageSize - off));
    std::copy(bytes + i, bytes + i + run, p + off);
    i += run;
  }
}

void MainMemory::poke_u32(std::uint32_t addr, std::uint32_t value) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(value), static_cast<std::uint8_t>(value >> 8),
      static_cast<std::uint8_t>(value >> 16),
      static_cast<std::uint8_t>(value >> 24)};
  poke_bytes(addr, bytes, 4);
}

std::uint32_t MainMemory::peek_u32(std::uint32_t addr) const {
  std::uint32_t v = 0;
  if (load(addr, 4, v)) return v;
  return 0;
}

std::uint8_t* MainMemory::own_page(std::uint32_t index, std::uint32_t lane) {
  auto it = private_.find(index);
  if (it == private_.end()) {
    const std::uint8_t* const base =
        base_ != nullptr ? base_->page(index) : nullptr;
    it = private_
             .emplace(index, base != nullptr
                                 ? std::vector<std::uint8_t>(base,
                                                             base + kPageSize)
                                 : std::vector<std::uint8_t>(kPageSize))
             .first;
  }
  std::uint8_t* const p = it->second.data();
  store_index_[lane] = index;
  store_page_[lane] = p;
  load_index_[lane] = index;  // the load lane may still hold the base page
  load_page_[lane] = p;
  return p;
}

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// kFnvPrime^k mod 2^64, by squaring.
std::uint64_t fnv_prime_pow(std::size_t k) {
  std::uint64_t result = 1;
  for (std::uint64_t base = kFnvPrime; k != 0; k >>= 1, base *= base)
    if ((k & 1) != 0) result *= base;
  return result;
}

}  // namespace

std::uint64_t MainMemory::fingerprint() const {
  // FNV-1a over (page index, page contents) of the merged view — the
  // private page where one exists, the base page otherwise — in page order,
  // so the digest is independent of hash-map iteration order and of which
  // pages a run copied.
  std::map<std::uint32_t, const std::uint8_t*> ordered;
  for (const auto& [idx, page] : private_) ordered.emplace(idx, page.data());
  if (base_ != nullptr)
    for (const auto& [idx, page] : base_->pages()) ordered.emplace(idx, page);
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= kFnvPrime;
  };
  for (const auto& [idx, page] : ordered) {
    const std::uint8_t* const end = page + kPageSize;
    if (std::all_of(page, end, [](std::uint8_t b) { return b == 0; }))
      continue;  // all-zero pages read like untouched memory
    mix(static_cast<std::uint8_t>(idx));
    mix(static_cast<std::uint8_t>(idx >> 8));
    mix(static_cast<std::uint8_t>(idx >> 16));
    mix(static_cast<std::uint8_t>(idx >> 24));
    // A zero byte leaves the xor a no-op, so a run of k zeros is k
    // multiplies by the prime: one multiply by its k-th power, same digest.
    const std::uint8_t* p = page;
    while (p != end) {
      if (*p != 0) {
        mix(*p++);
        continue;
      }
      const std::uint8_t* const run = p;
      while (p != end && *p == 0) ++p;
      h *= fnv_prime_pow(static_cast<std::size_t>(p - run));
    }
  }
  return h;
}

}  // namespace vexsim
