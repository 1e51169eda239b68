#include "cc/schedule.hpp"

#include <algorithm>

#include "isa/resources.hpp"
#include "util/check.hpp"

namespace vexsim::cc {

namespace {

class BlockScheduler {
 public:
  BlockScheduler(const LBlock& block, const LFunction& fn,
                 const MachineConfig& cfg)
      : block_(block), fn_(fn), cfg_(cfg), ddg_(build_ddg(block, cfg.lat)) {}

  BlockSchedule run() {
    const int n = static_cast<int>(block_.body.size());
    BlockSchedule sched;
    sched.cycle_of.assign(static_cast<std::size_t>(n), -1);
    sched.chan_of.assign(static_cast<std::size_t>(n), -1);

    std::vector<int> earliest(static_cast<std::size_t>(ddg_.num_nodes), 0);
    std::vector<int> preds_left = ddg_.pred_count;
    std::vector<int> ready;  // body nodes whose preds are all scheduled
    for (int i = 0; i < n; ++i)
      if (preds_left[static_cast<std::size_t>(i)] == 0) ready.push_back(i);

    int scheduled = 0;
    int cycle = 0;
    while (scheduled < n) {
      // Highest priority first; stable by index for determinism.
      std::sort(ready.begin(), ready.end(), [&](int a, int b) {
        const int pa = ddg_.priority[static_cast<std::size_t>(a)];
        const int pb = ddg_.priority[static_cast<std::size_t>(b)];
        return pa != pb ? pa > pb : a < b;
      });
      bool placed_any = false;
      for (std::size_t r = 0; r < ready.size();) {
        const int i = ready[r];
        if (earliest[static_cast<std::size_t>(i)] > cycle ||
            !try_place(block_.body[static_cast<std::size_t>(i)], cycle,
                       &sched.chan_of[static_cast<std::size_t>(i)])) {
          ++r;
          continue;
        }
        sched.cycle_of[static_cast<std::size_t>(i)] = cycle;
        ++scheduled;
        placed_any = true;
        for (const DdgEdge& e : ddg_.succ[static_cast<std::size_t>(i)]) {
          auto& est = earliest[static_cast<std::size_t>(e.to)];
          est = std::max(est, cycle + e.latency);
          if (--preds_left[static_cast<std::size_t>(e.to)] == 0 &&
              e.to < n)
            ready.push_back(e.to);
        }
        ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(r));
      }
      if (!placed_any || scheduled < n) ++cycle;
      if (placed_any && scheduled == n) break;
      VEXSIM_CHECK_MSG(cycle < 1'000'000, fn_.name << ": scheduler diverged");
    }

    finish(sched);
    return sched;
  }

 private:
  // Resource tracking per cycle; grows on demand.
  [[nodiscard]] ResourceUse& use_at(int cycle, int cluster) {
    if (static_cast<std::size_t>(cycle) >= use_.size()) {
      use_.resize(static_cast<std::size_t>(cycle) + 1);
      copies_.resize(static_cast<std::size_t>(cycle) + 1, 0);
    }
    return use_[static_cast<std::size_t>(cycle)]
               [static_cast<std::size_t>(cluster)];
  }

  bool try_place(const LOp& op, int cycle, int* chan) {
    if (op.is_copy) {
      ResourceUse& snd = use_at(cycle, op.cluster);
      ResourceUse& rcv = use_at(cycle, op.copy_dst_cluster);
      const ResourceUse one = ResourceUse::one_slot();
      if (copies_[static_cast<std::size_t>(cycle)] >= kNumChannels)
        return false;
      if (!snd.fits_with(one, cfg_.cluster_at(op.cluster),
                         cfg_.branch_units_at(op.cluster)) ||
          !rcv.fits_with(one, cfg_.cluster_at(op.copy_dst_cluster),
                         cfg_.branch_units_at(op.copy_dst_cluster)))
        return false;
      snd.add(one);
      rcv.add(one);
      *chan = copies_[static_cast<std::size_t>(cycle)]++;
      return true;
    }
    Operation probe;
    probe.opc = op.opc;
    ResourceUse need;
    need.add(probe);
    ResourceUse& u = use_at(cycle, op.cluster);
    if (!u.fits_with(need, cfg_.cluster_at(op.cluster),
                     cfg_.branch_units_at(op.cluster)))
      return false;
    u.add(need);
    return true;
  }

  // Places the terminator and computes the padded block length.
  void finish(BlockSchedule& sched) {
    const int n = static_cast<int>(block_.body.size());
    int last_body = -1;
    for (int i = 0; i < n; ++i)
      last_body = std::max(last_body, sched.cycle_of[static_cast<std::size_t>(i)]);

    // Live-out padding: global defs (and copies into globals — none, copies
    // define locals) must complete before the block ends.
    int pad = -1;
    for (int i = 0; i < n; ++i) {
      const LOp& op = block_.body[static_cast<std::size_t>(i)];
      const bool defines = op.is_copy || has_dst(op.opc);
      if (!defines) continue;
      if (!fn_.info[static_cast<std::size_t>(op.dst)].global) continue;
      pad = std::max(pad, sched.cycle_of[static_cast<std::size_t>(i)] +
                              producer_latency(op, cfg_.lat) - 1);
    }

    const bool has_term_op = block_.term == Terminator::kBranch ||
                             block_.term == Terminator::kGoto ||
                             block_.term == Terminator::kHalt;
    if (has_term_op) {
      int t = std::max({last_body, pad,
                        earliest_term_cycle(sched)});
      t = std::max(t, 0);
      // The branch needs a slot + branch unit on logical cluster 0.
      Operation probe;
      probe.opc = Opcode::kGoto;
      ResourceUse need;
      need.add(probe);
      while (!use_at(t, 0).fits_with(need, cfg_.cluster_at(0),
                                     cfg_.branch_units_at(0)))
        ++t;
      use_at(t, 0).add(need);
      sched.term_cycle = t;
      sched.length = t + 1;
    } else {
      sched.term_cycle = -1;
      sched.length = std::max(last_body, pad) + 1;
      if (sched.length <= 0) sched.length = 0;
    }
  }

  [[nodiscard]] int earliest_term_cycle(const BlockSchedule& sched) const {
    // DDG terminator node carries the cmp→branch constraint.
    int est = 0;
    const int term = ddg_.terminator_node();
    for (int i = 0; i < term; ++i) {
      for (const DdgEdge& e : ddg_.succ[static_cast<std::size_t>(i)])
        if (e.to == term)
          est = std::max(
              est, sched.cycle_of[static_cast<std::size_t>(i)] + e.latency);
    }
    return est;
  }

  const LBlock& block_;
  const LFunction& fn_;
  const MachineConfig& cfg_;
  BlockDdg ddg_;
  std::vector<std::array<ResourceUse, kMaxClusters>> use_;
  std::vector<int> copies_;
};

}  // namespace

FunctionSchedule schedule(const LFunction& fn, const MachineConfig& cfg) {
  static const std::map<std::size_t, BlockSchedule> kNoPins;
  return schedule(fn, cfg, kNoPins);
}

BlockSchedule schedule_block(const LBlock& block, const LFunction& fn,
                             const MachineConfig& cfg) {
  return BlockScheduler(block, fn, cfg).run();
}

FunctionSchedule schedule(const LFunction& fn, const MachineConfig& cfg,
                          const std::map<std::size_t, BlockSchedule>& pinned) {
  FunctionSchedule out;
  out.blocks.reserve(fn.blocks.size());
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    if (const auto it = pinned.find(b); it != pinned.end()) {
      VEXSIM_CHECK_MSG(it->second.cycle_of.size() == fn.blocks[b].body.size(),
                       fn.name << ": pinned schedule for block " << b
                               << " does not match its body");
      out.blocks.push_back(it->second);
    } else {
      out.blocks.push_back(BlockScheduler(fn.blocks[b], fn, cfg).run());
    }
  }
  return out;
}

}  // namespace vexsim::cc
