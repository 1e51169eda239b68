// The merge engine: the paper's merging hardware (Figure 7) for every
// technique point in (merge level) × (split level) × (comm policy).
//
// Each cycle the simulator walks the hardware threads in priority order and
// calls select() for each; the engine adds as much of the thread's pending
// work to the cycle as the technique permits:
//
//   split = none      → the whole remaining instruction merges or nothing
//                        does (classic SMT / CSMT);
//   split = cluster   → each pending *bundle* merges independently into its
//                        cluster (CCSI / COSI) — no intra-bundle splitting;
//   split = operation → each pending *operation* merges independently
//                        (OOSI), one FU slot at a time.
//
// Under CommPolicy::kNoSplit, instructions containing send/recv operations
// are forced back to all-or-nothing regardless of the split level.
//
// Selection is written against a Sink, which decides what winning means. The
// simulator's sink records each winning operation in the cycle's ExecPacket
// and executes it at once, so selection and issue are one walk, as in the
// merge hardware; micro_merge_logic times the decisions alone with a sink
// that only counts. A Sink provides:
//
//   ResourceUse& used(std::size_t physical);   // the cycle's per-cluster use
//   void emit(const DecodedOp&, int logical, int physical);
//
// emit() receives the winning operation's entry in the program's flat op
// table (DecodedOp::op is the Operation itself); the reference stays valid
// while the thread's program lives. The engine reads operations only through
// that table (ThreadContext::decoded_ops()), never through VliwInstruction.
//
// Per-cluster capacities are packed into SWAR words once at construction
// (pack_limits), so a fits probe is one word subtract — asymmetric
// geometries no longer re-read cluster_at() inside the select loop.
//
// The engine also produces the paper's per-thread "last-part" signal: true
// when the selection completed the thread's instruction this cycle, which is
// when the delay buffers drain to the register file and memory.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "arch/thread_context.hpp"
#include "isa/config.hpp"
#include "isa/resources.hpp"

namespace vexsim {

struct SelectResult {
  int ops_selected = 0;
  bool selected_any = false;
  bool last_part = false;   // thread's instruction fully issued this cycle
};

struct MergeEngineStats {
  std::uint64_t full_selections = 0;     // instruction issued in one piece
  std::uint64_t partial_selections = 0;  // at least one bundle/op deferred
  std::uint64_t blocked_selections = 0;  // nothing could merge this cycle
  std::uint64_t comm_nosplit_forced = 0; // NS forced all-or-nothing
  friend bool operator==(const MergeEngineStats&,
                         const MergeEngineStats&) = default;
};

class MergeEngine {
 public:
  explicit MergeEngine(const MachineConfig& cfg) {
    cluster_level_merge_ = cfg.technique.merge == MergeLevel::kCluster;
    split_ = cfg.technique.split;
    comm_no_split_ = cfg.technique.comm == CommPolicy::kNoSplit;
    clusters_ = cfg.clusters;
    for (int c = 0; c < cfg.clusters; ++c)
      packed_limits_[static_cast<std::size_t>(c)] =
          ResourceUse::pack_limits(cfg.cluster_at(c), cfg.branch_units_at(c));
  }

  // Adds pending work of the thread to the cycle according to the technique.
  // `rotation` is the thread's static cluster-renaming rotation. Decisions
  // depend only on the sink's used() accounting, never on what emit() does.
  template <typename Sink>
  SelectResult select(ThreadContext& ctx, int rotation, Sink& sink) {
    SelectResult result;
    if (!ctx.issue.active || ctx.issue.pending_count == 0) return result;
    const DecodedInstruction& dec = *ctx.issue.dec;

    const int pending_before = ctx.issue.pending_count;
    const bool whole_instruction_pending =
        ctx.issue.pending_count == dec.op_count;

    SplitLevel split = split_;
    if (split != SplitLevel::kNone && comm_no_split_ && dec.has_comm) {
      split = SplitLevel::kNone;  // NS: never split communication instructions
      ++stats_.comm_nosplit_forced;
    }

    switch (split) {
      case SplitLevel::kNone:
        if (select_whole(ctx, rotation, sink))
          result.ops_selected = pending_before;
        break;
      case SplitLevel::kCluster:
        result.ops_selected = select_bundles(ctx, rotation, sink);
        break;
      case SplitLevel::kOperation:
        result.ops_selected = select_operations(ctx, rotation, sink);
        break;
    }

    result.selected_any = result.ops_selected > 0;
    result.last_part = ctx.issue.pending_count == 0;
    if (result.selected_any && !result.last_part) ctx.issue.was_split = true;
    // An instruction that completes now but issued parts in earlier cycles
    // was also split.
    if (result.last_part && !whole_instruction_pending)
      ctx.issue.was_split = true;

    if (!result.selected_any)
      ++stats_.blocked_selections;
    else if (result.last_part && whole_instruction_pending)
      ++stats_.full_selections;
    else
      ++stats_.partial_selections;
    return result;
  }

  [[nodiscard]] const MergeEngineStats& stats() const { return stats_; }

  // Both operands are below clusters_, so the wraparound is one conditional
  // subtract — no integer division in the select loop.
  [[nodiscard]] int physical_cluster(int logical, int rotation) const {
    const int sum = logical + rotation;
    return sum >= clusters_ ? sum - clusters_ : sum;
  }

  // Packed SWAR capacity word of a physical cluster (exposed for tests).
  [[nodiscard]] std::uint64_t packed_limits(int physical) const {
    return packed_limits_[static_cast<std::size_t>(physical)];
  }

 private:
  template <typename Sink>
  [[nodiscard]] bool bundle_fits(const ResourceUse& use, int physical,
                                 Sink& sink) const {
    const auto p = static_cast<std::size_t>(physical);
    if (cluster_level_merge_) {
      // Cluster-level CL: the physical cluster must be completely unused.
      return sink.used(p).empty();
    }
    return sink.used(p).fits_packed(use, packed_limits_[p]);
  }

  template <typename Sink>
  void take(ThreadContext& ctx, int cluster, std::uint8_t mask, int rotation,
            Sink& sink) {
    const DecodedBundle& db = ctx.issue.dec->bundle(cluster);
    const DecodedOp* const ops = ctx.decoded_ops() + db.first_op;
    const int physical = physical_cluster(cluster, rotation);
    const auto p = static_cast<std::size_t>(physical);
    const bool whole_bundle = mask == db.full_mask;
    if (whole_bundle) sink.used(p).add(db.whole_use);
    // Set bits in ascending position order: bundle order.
    for (std::uint8_t m = mask; m != 0;
         m = static_cast<std::uint8_t>(m & (m - 1))) {
      const DecodedOp& op = ops[std::countr_zero(static_cast<unsigned>(m))];
      if (!whole_bundle) sink.used(p).add(op.use);
      sink.emit(op, cluster, physical);
      --ctx.issue.pending_count;
    }
    const std::uint8_t left = static_cast<std::uint8_t>(
        ctx.issue.pending_ops[static_cast<std::size_t>(cluster)] & ~mask);
    ctx.issue.pending_ops[static_cast<std::size_t>(cluster)] = left;
    if (left == 0) ctx.issue.pending_clusters &= ~(1u << cluster);
  }

  // All-or-nothing selection (split disabled or NS-forced).
  template <typename Sink>
  bool select_whole(ThreadContext& ctx, int rotation, Sink& sink) {
    // First pass: every pending bundle must fit simultaneously. Accumulate
    // hypothetical use per physical cluster so two bundles of this thread
    // that rename onto the same physical cluster are rejected coherently
    // (cannot happen with rotation renaming, but keeps the check airtight).
    const std::uint32_t clusters = ctx.issue.pending_clusters;
    for (std::uint32_t m = clusters; m != 0; m &= m - 1) {
      const int c = std::countr_zero(m);
      const std::uint8_t mask =
          ctx.issue.pending_ops[static_cast<std::size_t>(c)];
      ResourceUse scratch;
      const ResourceUse& use = pending_use(ctx, c, mask, scratch);
      if (!bundle_fits(use, physical_cluster(c, rotation), sink)) return false;
    }
    for (std::uint32_t m = clusters; m != 0; m &= m - 1) {
      const int c = std::countr_zero(m);
      take(ctx, c, ctx.issue.pending_ops[static_cast<std::size_t>(c)],
           rotation, sink);
    }
    return true;
  }

  // Independent per-bundle selection (cluster-level split).
  template <typename Sink>
  int select_bundles(ThreadContext& ctx, int rotation, Sink& sink) {
    int selected = 0;
    for (std::uint32_t m = ctx.issue.pending_clusters; m != 0; m &= m - 1) {
      const int c = std::countr_zero(m);
      const std::uint8_t mask =
          ctx.issue.pending_ops[static_cast<std::size_t>(c)];
      ResourceUse scratch;
      const ResourceUse& use = pending_use(ctx, c, mask, scratch);
      if (!bundle_fits(use, physical_cluster(c, rotation), sink)) continue;
      const int before = ctx.issue.pending_count;
      take(ctx, c, mask, rotation, sink);
      selected += before - ctx.issue.pending_count;
    }
    return selected;
  }

  // Independent per-operation selection (operation-level split).
  template <typename Sink>
  int select_operations(ThreadContext& ctx, int rotation, Sink& sink) {
    const DecodedInstruction& dec = *ctx.issue.dec;
    int selected = 0;
    for (std::uint32_t cm = ctx.issue.pending_clusters; cm != 0;
         cm &= cm - 1) {
      const int c = std::countr_zero(cm);
      const std::uint8_t mask =
          ctx.issue.pending_ops[static_cast<std::size_t>(c)];
      const DecodedOp* const ops =
          ctx.decoded_ops() + dec.bundle(c).first_op;
      const int physical = physical_cluster(c, rotation);
      // Walk the set bits of the pending mask in ascending position order.
      for (std::uint8_t m = mask; m != 0;
           m = static_cast<std::uint8_t>(m & (m - 1))) {
        const auto i = static_cast<std::size_t>(
            std::countr_zero(static_cast<unsigned>(m)));
        if (!bundle_fits(ops[i].use, physical, sink)) continue;
        take(ctx, c, static_cast<std::uint8_t>(1u << i), rotation, sink);
        ++selected;
      }
    }
    return selected;
  }

  // Resource use of the pending subset of logical cluster `c`: returns the
  // decode cache's whole-bundle table when the mask is full (the only mask
  // whole/bundle selection ever produces), summing the ops' singleton uses
  // into `scratch` otherwise. Inline: this runs once per bundle probe in the
  // select loop.
  [[nodiscard]] const ResourceUse& pending_use(const ThreadContext& ctx,
                                               int c, std::uint8_t mask,
                                               ResourceUse& scratch) const {
    const DecodedBundle& db = ctx.issue.dec->bundle(c);
    if (mask == db.full_mask) return db.whole_use;
    const DecodedOp* const ops = ctx.decoded_ops() + db.first_op;
    scratch = ResourceUse{};
    for (std::uint8_t m = mask; m != 0;
         m = static_cast<std::uint8_t>(m & (m - 1)))
      scratch.add(ops[std::countr_zero(static_cast<unsigned>(m))].use);
    return scratch;
  }

  // Per-physical-cluster capacities in the packed SWAR form, hoisted from
  // the config once at construction (cluster_at() indirection would
  // otherwise run per fits probe on asymmetric machines). The technique
  // fields are hoisted for the same reason: select() runs per thread per
  // cycle and must not chase the config.
  std::array<std::uint64_t, kMaxClusters> packed_limits_{};
  bool cluster_level_merge_ = false;
  bool comm_no_split_ = false;
  SplitLevel split_ = SplitLevel::kNone;
  int clusters_ = 0;
  MergeEngineStats stats_;
};

}  // namespace vexsim
