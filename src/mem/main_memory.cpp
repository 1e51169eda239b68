#include "mem/main_memory.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <span>

namespace vexsim {

namespace {

// The part [lo, hi) of a segment's bytes that lies below 2^32.
std::pair<std::uint64_t, std::uint64_t> extent(
    const PageImage::Segment& seg) {
  const std::uint64_t lo = seg.addr;
  return {lo, std::min<std::uint64_t>(lo + seg.bytes->size(),
                                      std::uint64_t{1} << 32)};
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// kFnvPrime^k mod 2^64, by squaring.
std::uint64_t fnv_prime_pow(std::size_t k) {
  std::uint64_t result = 1;
  for (std::uint64_t base = kFnvPrime; k != 0; k >>= 1, base *= base)
    if ((k & 1) != 0) result *= base;
  return result;
}

// Continues the FNV-1a digest `h` over page `index`: its four index bytes,
// then its contents. An all-zero page reads like untouched memory and is
// skipped. A zero byte leaves the xor a no-op, so a run of k zero bytes is
// k multiplies by the prime: the page is scanned a word at a time, and a
// run of zero words is one multiply by the prime's power, same digest.
std::uint64_t digest_page(std::uint64_t h, std::uint32_t index,
                          const std::uint8_t* page) {
  constexpr std::uint32_t kWord = sizeof(std::uint64_t);
  const auto zero_word = [page](std::uint32_t off) {
    std::uint64_t w = 0;
    std::memcpy(&w, page + off, kWord);
    return w == 0;
  };
  std::uint32_t off = 0;
  while (off != PageImage::kPageSize && zero_word(off)) off += kWord;
  if (off == PageImage::kPageSize) return h;
  for (int shift = 0; shift < 32; shift += 8) {
    h ^= static_cast<std::uint8_t>(index >> shift);
    h *= kFnvPrime;
  }
  std::size_t zeros = off;
  for (; off != PageImage::kPageSize; off += kWord) {
    if (zero_word(off)) {
      zeros += kWord;
      continue;
    }
    if (zeros != 0) {
      h *= fnv_prime_pow(zeros);
      zeros = 0;
    }
    for (std::uint32_t i = off; i != off + kWord; ++i) {
      h ^= page[i];
      h *= kFnvPrime;
    }
  }
  return h * fnv_prime_pow(zeros);
}

// A segment as the digest-state table keys it: by address and image. The
// weak_ptr, compared by owner, pins the image's control block, so a freed
// image whose address a new one reuses can never match the dead entry.
struct SegmentKey {
  std::uint32_t addr;
  const PageImage::Bytes* bytes;
  std::weak_ptr<const PageImage::Bytes> owner;
};

struct SegmentsLess {
  bool operator()(const std::vector<SegmentKey>& a,
                  const std::vector<SegmentKey>& b) const {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const SegmentKey& x, const SegmentKey& y) {
          if (x.addr != y.addr) return x.addr < y.addr;
          if (x.bytes != y.bytes) return std::less<>()(x.bytes, y.bytes);
          return x.owner.owner_before(y.owner);
        });
  }
};

// The digest states of the image `segments` make, whose pages are `pages`:
// computed on the first call for a segment list and shared by every later
// one while its images live. Entries whose images died are purged when a
// new one goes in. A list is digested once, under the lock: a second thread
// asking for it waits rather than digests it again.
std::shared_ptr<const std::vector<std::uint64_t>> shared_digest_states(
    const std::vector<PageImage::Segment>& segments,
    const std::vector<std::pair<std::uint32_t, const std::uint8_t*>>& pages) {
  static std::mutex mutex;
  static std::map<std::vector<SegmentKey>,
                  std::shared_ptr<const std::vector<std::uint64_t>>,
                  SegmentsLess>
      table;
  std::vector<SegmentKey> key;
  key.reserve(segments.size());
  for (const PageImage::Segment& seg : segments)
    key.push_back({seg.addr, seg.bytes.get(), seg.bytes});
  const std::lock_guard<std::mutex> lock(mutex);
  if (const auto it = table.find(key); it != table.end()) return it->second;
  std::erase_if(table, [](const auto& entry) {
    return std::any_of(entry.first.begin(), entry.first.end(),
                       [](const SegmentKey& k) { return k.owner.expired(); });
  });
  auto states = std::make_shared<std::vector<std::uint64_t>>();
  states->reserve(pages.size() + 1);
  states->push_back(kFnvBasis);
  for (const auto& [index, page] : pages)
    states->push_back(digest_page(states->back(), index, page));
  table.emplace(std::move(key), states);
  return states;
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
  digest_states_ = shared_digest_states(segments, pages_);
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

std::uint64_t MainMemory::fingerprint() const {
  // FNV-1a over (page index, page contents) of the merged view — the
  // private page where one exists, the base page otherwise — in page order,
  // so the digest is independent of hash-map iteration order and of which
  // pages a run copied. Below the first private page the view is the
  // base's, whose digest state there the base already holds.
  std::vector<std::pair<std::uint32_t, const std::uint8_t*>> written;
  written.reserve(private_.size());
  for (const auto& [index, page] : private_)
    written.emplace_back(index, page.data());
  std::sort(written.begin(), written.end());
  std::span<const std::pair<std::uint32_t, const std::uint8_t*>> base;
  if (base_ != nullptr) base = base_->pages();
  std::size_t k = base.size();
  if (!written.empty())
    k = static_cast<std::size_t>(
        std::lower_bound(base.begin(), base.end(), written.front().first,
                         [](const auto& page, std::uint32_t index) {
                           return page.first < index;
                         }) -
        base.begin());
  std::uint64_t h = base_ != nullptr ? base_->digest_states()[k] : kFnvBasis;
  auto w = written.begin();
  while (k != base.size() || w != written.end()) {
    if (w == written.end() || (k != base.size() && base[k].first < w->first)) {
      h = digest_page(h, base[k].first, base[k].second);
      ++k;
      continue;
    }
    if (k != base.size() && base[k].first == w->first) ++k;  // overwritten
    h = digest_page(h, w->first, w->second);
    ++w;
  }
  return h;
}

}  // namespace vexsim
