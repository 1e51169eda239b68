// The cycle-accurate SMT clustered VLIW machine.
//
// Pipeline model per cycle:
//   1. commit NUAL pending writes that become visible this cycle;
//   2. refill hardware slots whose thread can start its next instruction
//      (gated by branch penalty, D-miss block and ICache fetch);
//   3. merge: walk slots in rotating priority order, each contributing as
//      much pending work as the configured technique allows (MergeEngine);
//   4. execute the selected operations: operand read at issue, result write
//      scheduled `latency` cycles out (into the split delay buffer while the
//      owning instruction is still partially issued), D-cache timing,
//      send/recv channel transfers, branch resolution;
//   5. complete instructions whose last part issued: flush delay buffers
//      (counting memory-port conflicts for buffered stores → global stall),
//      retire, redirect PC, handle halt/fault.
//
// Faults (e.g. a load touching the guard page) roll the thread back to the
// instruction boundary: split-issued parts only ever wrote the delay
// buffers, so rollback = discard buffers (Section V-B).
//
// Phases 3 and 4 are one walk: each operation executes the moment it wins
// selection, as the merge hardware issues what its collision logic picks
// (Figure 7), and the walk appends a SelectedOp for it to the cycle's
// ExecPacket, so last_packet() is the cycle's issue record. Execution never
// writes state selection reads (issue masks, cluster use). Stores are staged
// and applied after the whole walk: same-cycle loads must see
// pre-instruction memory, and the buffered-store decision needs the
// cycle-final pending count.
//
// Fast path: step() always simulates exactly one cycle, but when every
// hardware context is provably blocked until a known future cycle (memory
// stall drain, D-miss block, I-miss refill, branch penalty), fast_forward()
// skips the idle span in one call. Both account idle cycles through one
// path, so the statistics are bit-identical either way: charge_gates()
// charges a thread's gated cycles (refill_slot() one, fast_forward() a span)
// and account_empty_cycles() counts the cycles that issue nothing. Drivers
// call fast_forward() before each step with a limit so the clock never jumps
// over an external decision point (timeslice expiry, max-cycles budget).
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "arch/thread_context.hpp"
#include "core/exec_packet.hpp"
#include "core/merge_engine.hpp"
#include "isa/config.hpp"
#include "mem/backend.hpp"
#include "mem/cache.hpp"
#include "sim/run_stats.hpp"
#include "util/inline_vec.hpp"

namespace vexsim {

class Simulator {
 public:
  explicit Simulator(const MachineConfig& cfg);

  // Slot management (contexts are owned by the caller / driver).
  void attach(int slot, ThreadContext* ctx);
  // Detaching flushes the context's in-flight pending writes (the drained
  // pipeline state is architecturally committed at a context switch).
  ThreadContext* detach(int slot);
  [[nodiscard]] ThreadContext* slot(int i) const {
    return slots_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int num_slots() const { return cfg_.hw_threads; }

  // Advance one cycle. Returns the number of operations issued.
  int step();

  // Advance the clock over cycles that provably cannot issue anything,
  // accounting them exactly as step() would, and stop so that the next
  // step() executes the first cycle that *can* act (or cycle `limit`,
  // whichever is earlier — external controllers pass their next decision
  // cycle). Returns the number of cycles skipped; 0 when the next cycle may
  // have work, when `limit` is reached, or when the fast path is disabled.
  std::uint64_t fast_forward(std::uint64_t limit);
  // Disabling makes fast_forward() a no-op: every cycle is then iterated by
  // step(). The stats must be bit-identical either way (golden suite).
  void set_fast_forward(bool on) { fast_forward_on_ = on; }
  [[nodiscard]] bool fast_forward_enabled() const { return fast_forward_on_; }

  // When true, no slot starts a *new* instruction (in-flight ones finish);
  // used by the driver to drain before a context switch.
  void set_drain(bool on) { drain_ = on; }
  [[nodiscard]] bool quiesced() const;

  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }
  // Count of threads that left the ready state (halt or fault) since
  // construction. The driver polls this instead of rescanning every
  // instance's state on each retiring cycle.
  [[nodiscard]] std::uint64_t thread_exit_events() const {
    return thread_exit_events_;
  }
  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] const SimStats& stats() const { return stats_; }
  [[nodiscard]] SimStats& stats() { return stats_; }
  [[nodiscard]] const MergeEngine& merge_engine() const { return merge_; }
  [[nodiscard]] Cache& icache() { return *icache_ptr_; }
  [[nodiscard]] Cache& dcache() { return *dcache_ptr_; }
  // The miss-handling backend behind the L1s (cfg.memory.backend). The
  // driver reads its memory_stats() into RunResult after a run.
  [[nodiscard]] const mem::MemoryBackend& memory_backend() const {
    return *backend_;
  }

  // Last cycle's issue record: every operation issued, in issue order, and
  // the per-cluster resource use (empty after a stalled cycle).
  [[nodiscard]] const ExecPacket& last_packet() const { return packet_; }

  // Convenience: run until all attached threads halt or `max_cycles` pass.
  // Returns true if everything halted.
  bool run_to_halt(std::uint64_t max_cycles);

 private:
  struct IssueSink;  // records and executes ops as they win selection

  // Commits every pending write whose latency window closed this cycle.
  // Inline: step() calls it for every thread with writes due (about two
  // calls per cycle on the paper's 4T mixes).
  void commit_pending_writes(ThreadContext& ctx) {
    const auto commit_one = [&](const PendingWrite& w) {
      if (ctx.issue.active && ctx.issue.seq == w.seq) {
        // The producing instruction is still partially issued: the result
        // goes to the split delay buffer (Figure 8) and drains at last-part.
        ctx.rf_buffer.push_back(
            BufferedRegWrite{w.to_breg, w.cluster, w.idx, w.value});
      } else if (w.to_breg) {
        ctx.regs.set_breg(w.cluster, w.idx, w.value != 0);
      } else {
        ctx.regs.set_gpr(w.cluster, w.idx, w.value);
      }
    };
    if (ctx.pending_writes.latest_visible_at() <= cycle_) {
      // Common case with short latencies: everything commits, nothing stays.
      ctx.pending_writes.drain_all(commit_one);
      return;
    }
    ctx.pending_writes.compact([&](const PendingWrite& w) {
      if (w.visible_at > cycle_) return true;  // still in its latency window
      commit_one(w);
      return false;
    });
  }
  // Passes the thread's refill gates (D-miss / branch-penalty / I-fetch) and
  // arms a fresh IssueProgress. Callers pre-filter null/halted/active/drain.
  void refill_slot(ThreadContext* ctx);
  // Charges cycles [from, to) to the first refill gate holding each: the
  // D-miss block, the branch penalty (no counter), then the I-fetch refill.
  static void charge_gates(ThreadContext& ctx, std::uint64_t from,
                           std::uint64_t to);
  // Accounts k cycles that issue nothing: cycles, vertical waste, and either
  // memory-port stall or, under drain, drain cycles.
  void account_empty_cycles(std::uint64_t k, bool port_stalled);
  // Executes one operation, read from the program's flat op table.
  void execute_op(const DecodedOp& dec, int logical_cluster,
                  int physical_cluster, ThreadContext& ctx);
  void apply_staged_stores();
  void complete_instruction(int slot, ThreadContext& ctx);
  void rollback_fault(ThreadContext& ctx);
  void write_result(ThreadContext& ctx, const Operation& op,
                    std::uint32_t value, int latency);
  void assert_no_pending_write(const ThreadContext& ctx, bool to_breg,
                               int cluster, int idx) const;

  // A store captured during execution; applied after the whole merge walk so
  // same-cycle loads observe pre-instruction memory. Whether it goes to the
  // split delay buffer is decided at apply time from the cycle-final pending
  // count.
  struct StagedStore {
    ThreadContext* ctx = nullptr;
    std::uint8_t cluster = 0;
    std::uint8_t size = 0;
    std::uint32_t addr = 0;
    std::uint32_t value = 0;
  };

  MachineConfig cfg_;
  MergeEngine merge_;
  // Miss handling is pluggable (mem/backend.hpp); the backend owns the L1
  // timing caches so it can model their refill traffic. The raw pointers
  // cache the L1s out of the unique_ptr so the hit path — the overwhelmingly
  // common case — stays a direct non-virtual Cache::access call, exactly the
  // seed's code shape; only misses pay a virtual dispatch.
  std::unique_ptr<mem::MemoryBackend> backend_;
  Cache* icache_ptr_;
  Cache* dcache_ptr_;
  std::array<ThreadContext*, kMaxHwThreads> slots_{};  // ≤ hw_threads used
  ExecPacket packet_;
  std::uint64_t cycle_ = 0;
  std::uint64_t stall_until_ = 0;  // global memory-port drain stall
  std::uint64_t thread_exit_events_ = 0;  // halts + faults (driver gating)
  int priority_base_ = 0;
  bool drain_ = false;
  bool fast_forward_on_ = true;
  // Result latency per operation class, resolved once from the config so the
  // execute path indexes a table instead of switching on the class.
  std::array<int, 6> lat_by_class_{};
  int lat_breg_result_ = 0;  // compare-to-branch contract latency
  // Static cluster-renaming rotation per hardware slot (Section IV).
  std::array<int, kMaxHwThreads> rotation_{};
  // Per-cycle memory-port pressure per physical cluster.
  std::array<int, kMaxClusters> mem_port_use_{};
  // Memory ports per physical cluster, hoisted from the config so the
  // per-cycle excess check doesn't re-read cluster_at().
  std::array<int, kMaxClusters> mem_units_{};
  // Stores staged this cycle (preallocated; at most one per selected op).
  InlineVec<StagedStore, kMaxTotalIssue> staged_;
  // Programs already validated against this machine (attach() cache). Held
  // as shared_ptrs so remembered addresses cannot be recycled.
  static constexpr std::size_t kMaxValidatedPrograms = 32;
  std::vector<std::shared_ptr<const Program>> validated_programs_;
  SimStats stats_;
};

}  // namespace vexsim
