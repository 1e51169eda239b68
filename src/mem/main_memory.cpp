#include "mem/main_memory.hpp"

#include <algorithm>
#include <map>

namespace vexsim {

void MainMemory::poke_bytes(std::uint32_t addr, const std::uint8_t* bytes,
                            std::size_t n) {
  // Copy page-sized runs so loading a data segment costs one page lookup
  // per 64 KiB instead of one per byte (a first load pokes every segment).
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

void MainMemory::note_written(Page& p, std::uint32_t index) {
  p.written = true;
  written_.push_back(index);
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
  // FNV-1a over (page index, page contents), pages visited in sorted order
  // so the digest is independent of hash-map iteration order.
  std::map<std::uint32_t, const std::vector<std::uint8_t>*> ordered;
  for (const auto& [idx, page] : pages_) ordered.emplace(idx, &page.bytes);
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= kFnvPrime;
  };
  for (const auto& [idx, page] : ordered) {
    bool all_zero = true;
    for (std::uint8_t b : *page)
      if (b != 0) { all_zero = false; break; }
    if (all_zero) continue;  // untouched-but-allocated pages don't count
    mix(static_cast<std::uint8_t>(idx));
    mix(static_cast<std::uint8_t>(idx >> 8));
    mix(static_cast<std::uint8_t>(idx >> 16));
    mix(static_cast<std::uint8_t>(idx >> 24));
    // A zero byte leaves the xor a no-op, so a run of k zeros is k
    // multiplies by the prime: one multiply by its k-th power, same digest.
    const std::uint8_t* p = page->data();
    const std::uint8_t* const end = p + page->size();
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
