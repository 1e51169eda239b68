// Pluggable miss-handling behind the L1 caches.
//
// The simulator keeps the L1 hit path inline (Cache::access, the same
// memoized fast path as the seed); only a *miss* reaches the backend, which
// answers one question: at which absolute cycle is the line's data usable?
// The returned cycle feeds the per-thread pending-miss handles
// (fetch_ready_at / mem_block_until in arch/thread_context.hpp), so the
// whole model stays event-free — every completion is a scheduled cycle
// computed at access time, never a callback — and fast_forward's
// arithmetic idle-skip continues to work unchanged.
//
// Two implementations:
//   FixedLatencyBackend  the seed's flat CacheConfig::miss_penalty. The
//                        default; byte-identical to the pre-refactor
//                        simulator (golden suite enforced).
//   HierarchyBackend     non-blocking L1s fronted by bounded MSHRs (miss
//                        coalescing + structural stalls when full), one
//                        shared inclusive L2, and banked DRAM with
//                        row-buffer hit/closed/conflict timing and
//                        per-bank queues.
//
// fast_forward additionally consults next_event_after(): the earliest
// in-flight completion the backend still holds. The fixed backend has no
// state beyond the caches and returns kNoEvent (today's skip behaviour,
// bit-identical); the hierarchy backend clamps the skip horizon to its
// next MSHR completion so the clock never jumps a scheduled miss event.
// Stopping early is statistics-neutral — a stepped empty cycle accounts
// exactly like a skipped one (the fast_forward-vs-pure-loop equivalence
// suite pins this) — but keeps the skip honest about backend events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "isa/config.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/l2.hpp"
#include "mem/mshr.hpp"

namespace vexsim::mem {

// Aggregated hierarchy statistics for RunResult / sweep JSON. `present` is
// false for the fixed backend, and the serializers skip the whole block
// then, so pre-hierarchy goldens stay byte-identical.
struct MemoryStats {
  bool present = false;
  MshrStats imshr;
  MshrStats dmshr;
  CacheStats l2;
  DramStats dram;

  friend bool operator==(const MemoryStats&, const MemoryStats&) = default;
};

class MemoryBackend {
 public:
  // next_event_after() result when the backend holds no future completion.
  static constexpr std::uint64_t kNoEvent = ~0ull;

  MemoryBackend(const CacheConfig& icache, const CacheConfig& dcache)
      : icache_(icache), dcache_(dcache) {}
  virtual ~MemoryBackend() = default;
  MemoryBackend(const MemoryBackend&) = delete;
  MemoryBackend& operator=(const MemoryBackend&) = delete;

  // The L1 timing caches. Owned here so a backend can model their refill
  // traffic; the simulator calls Cache::access directly for the hit path
  // and surfaces them through Simulator::icache()/dcache().
  [[nodiscard]] Cache& icache() { return icache_; }
  [[nodiscard]] Cache& dcache() { return dcache_; }

  // An instruction fetch of `addr` missed the L1 at `cycle`: the cycle the
  // fetch can complete. Always > cycle.
  virtual std::uint64_t ifetch_miss(std::uint32_t asid, std::uint32_t addr,
                                    std::uint64_t cycle) = 0;

  // A data access of `addr` missed the L1 at `cycle`: the cycle the data
  // arrives. Called for stores too (the fill occupies the same machinery);
  // whether the thread blocks on a store miss is the simulator's policy
  // (MachineConfig::stall_on_store_miss). Always > cycle.
  virtual std::uint64_t dmem_miss(std::uint32_t asid, std::uint32_t addr,
                                  bool is_store, std::uint64_t cycle) = 0;

  // Earliest in-flight completion strictly after `cycle`, or kNoEvent.
  [[nodiscard]] virtual std::uint64_t next_event_after(
      std::uint64_t cycle) const = 0;

  // Hierarchy statistics; `present` is false for the fixed backend.
  [[nodiscard]] virtual MemoryStats memory_stats() const = 0;

 protected:
  Cache icache_;
  Cache dcache_;
};

// The seed model: every miss costs the L1's flat miss_penalty. A penalty of
// 0 answers cycle + 1 ("> cycle"); no later cycle sees a difference.
class FixedLatencyBackend final : public MemoryBackend {
 public:
  explicit FixedLatencyBackend(const MachineConfig& cfg)
      : MemoryBackend(cfg.icache, cfg.dcache),
        imiss_penalty_(std::max(cfg.icache.miss_penalty, 1u)),
        dmiss_penalty_(std::max(cfg.dcache.miss_penalty, 1u)) {}

  std::uint64_t ifetch_miss(std::uint32_t /*asid*/, std::uint32_t /*addr*/,
                            std::uint64_t cycle) override {
    return cycle + imiss_penalty_;
  }
  std::uint64_t dmem_miss(std::uint32_t /*asid*/, std::uint32_t /*addr*/,
                          bool /*is_store*/, std::uint64_t cycle) override {
    return cycle + dmiss_penalty_;
  }
  [[nodiscard]] std::uint64_t next_event_after(
      std::uint64_t /*cycle*/) const override {
    return kNoEvent;
  }
  [[nodiscard]] MemoryStats memory_stats() const override { return {}; }

 private:
  std::uint32_t imiss_penalty_;
  std::uint32_t dmiss_penalty_;
};

// MSHRs + shared inclusive L2 + banked DRAM (MemoryConfig parameters).
class HierarchyBackend final : public MemoryBackend {
 public:
  explicit HierarchyBackend(const MachineConfig& cfg);

  std::uint64_t ifetch_miss(std::uint32_t asid, std::uint32_t addr,
                            std::uint64_t cycle) override;
  std::uint64_t dmem_miss(std::uint32_t asid, std::uint32_t addr,
                          bool is_store, std::uint64_t cycle) override;
  [[nodiscard]] std::uint64_t next_event_after(
      std::uint64_t cycle) const override;
  [[nodiscard]] MemoryStats memory_stats() const override;

 private:
  // L2 lookup (then DRAM on an L2 miss) for a fill issued at `start`.
  std::uint64_t fill(std::uint32_t asid, std::uint32_t addr,
                     std::uint64_t start);

  MshrFile imshr_;
  MshrFile dmshr_;
  SharedL2 l2_;
  DramModel dram_;
};

// The backend selected by cfg.memory.backend.
[[nodiscard]] std::unique_ptr<MemoryBackend> make_backend(
    const MachineConfig& cfg);

}  // namespace vexsim::mem
