#include "cc/modulo_sched.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <utility>
#include <vector>

#include "cc/ddg.hpp"
#include "isa/resources.hpp"
#include "util/check.hpp"

namespace vexsim::cc {

namespace {

// A dependence edge with an iteration distance: sched(to) + dist * II must
// be at least sched(from) + lat.
struct Edge {
  int from = 0;
  int to = 0;
  int lat = 0;
  int dist = 0;
};

// The canonical counted-loop shape: a self-branching block whose condition
// is a compare of a self-incremented global counter against an immediate.
struct Shape {
  bool ok = false;
  int counter_def = -1;  // body index of the self-increment
  int compare = -1;      // body index of the condition compare
  VReg counter = kNoVReg;
  int step = 0;            // counter increment per iteration (+1 / -1)
  std::int32_t limit = 0;  // compare immediate
};

bool reads_vreg(const LOp& op, VReg v) {
  if (op.is_copy) return op.src1 == v;
  if (reads_src1(op.opc) && op.src1 == v) return true;
  if (reads_src2(op.opc) && !op.src2_is_imm && op.src2 == v) return true;
  if ((op.opc == Opcode::kSlct || op.opc == Opcode::kSlctf) && op.bsrc == v)
    return true;
  return false;
}

bool defines(const LOp& op) { return op.is_copy || has_dst(op.opc); }

Shape recognize(const LFunction& fn, std::size_t b) {
  Shape s;
  // The loop needs a fallthrough successor for its exit path.
  if (b + 1 >= fn.blocks.size()) return s;
  const LBlock& blk = fn.blocks[b];
  if (blk.term != Terminator::kBranch || blk.branch_if_false ||
      blk.target != static_cast<int>(b) || blk.cond < 0 || blk.body.empty())
    return s;

  // Every vreg defined at most once in the block (cross-iteration edges
  // and the single-register promotion both assume one def per iteration).
  std::map<VReg, int> def_at;
  const int n = static_cast<int>(blk.body.size());
  for (int i = 0; i < n; ++i) {
    const LOp& op = blk.body[static_cast<std::size_t>(i)];
    if (!op.is_copy && is_branch(op.opc)) return s;
    if (defines(op)) {
      if (def_at.count(op.dst) != 0) return s;
      def_at[op.dst] = i;
    }
  }

  // The condition: one compare-to-breg, read by the terminator only.
  const auto cond_it = def_at.find(blk.cond);
  if (cond_it == def_at.end()) return s;
  const int ci = cond_it->second;
  const LOp& cmp = blk.body[static_cast<std::size_t>(ci)];
  if (cmp.is_copy || !cmp.dst_is_breg || !is_compare(cmp.opc) ||
      !cmp.src2_is_imm)
    return s;
  for (const LOp& op : blk.body)
    if (!op.is_copy &&
        (op.opc == Opcode::kSlct || op.opc == Opcode::kSlctf) &&
        op.bsrc == blk.cond)
      return s;

  // The counter: a global self-increment by ±1, updated before the
  // compare reads it. The compare may read the counter through a chain of
  // same-iteration inter-cluster copies (the branch lives on cluster 0,
  // the counter often elsewhere) — follow it to the root.
  VReg ctr = cmp.src1;
  int ctr_def = -1;
  {
    int consumer = ci;
    for (;;) {
      if (ctr < 0) return s;
      const auto it = def_at.find(ctr);
      // Defined before the loop (or in another block): not a counter.
      if (it == def_at.end() || it->second >= consumer) return s;
      const LOp& dop = blk.body[static_cast<std::size_t>(it->second)];
      if (dop.is_copy) {
        consumer = it->second;
        ctr = dop.src1;
        continue;
      }
      ctr_def = it->second;
      break;
    }
  }
  const LOp& inc = blk.body[static_cast<std::size_t>(ctr_def)];
  if (inc.opc != Opcode::kAdd || !inc.src2_is_imm || inc.src1 != inc.dst ||
      inc.imm == 0 || inc.imm > (1 << 20) || inc.imm < -(1 << 20))
    return s;
  if (!fn.info[static_cast<std::size_t>(ctr)].global) return s;
  // Guard/kernel immediate rewrites add step * stages; keep headroom.
  if (cmp.imm > (1 << 28) || cmp.imm < -(1 << 28)) return s;
  // Supported polarity: count down (any stride) while > limit, or count
  // up while < limit — strict monotone progress toward the bound, which
  // is what makes the trip count well defined.
  const int step = inc.imm;
  if (!((cmp.opc == Opcode::kCmpgt && step < 0) ||
        (cmp.opc == Opcode::kCmplt && step > 0)))
    return s;

  s.ok = true;
  s.counter = ctr;
  s.counter_def = ctr_def;
  s.compare = ci;
  s.step = step;
  s.limit = cmp.imm;
  return s;
}

// Dist-0 edges come from the block DDG; this adds the cross-iteration
// (distance-1) register and memory dependences. Self-edges become a lower
// bound on II instead.
std::vector<Edge> build_edges(const LBlock& blk, const LatencyConfig& lat,
                              int* min_ii) {
  const int n = static_cast<int>(blk.body.size());
  std::vector<Edge> edges;
  auto add = [&edges, min_ii](int f, int t, int l, int d) {
    if (f == t) {
      if (d > 0) *min_ii = std::max(*min_ii, (l + d - 1) / d);
      return;
    }
    edges.push_back(Edge{f, t, l, d});
  };

  const BlockDdg ddg = build_ddg(blk, lat);
  for (int i = 0; i < n; ++i)
    for (const DdgEdge& e : ddg.succ[static_cast<std::size_t>(i)])
      if (e.to < n) add(i, e.to, e.latency, 0);

  // Cross-iteration register dependences.
  for (int d = 0; d < n; ++d) {
    const LOp& def_op = blk.body[static_cast<std::size_t>(d)];
    if (!defines(def_op)) continue;
    const VReg v = def_op.dst;
    const int plat = producer_latency(def_op, lat);
    for (int u = 0; u < n; ++u) {
      if (u == d || !reads_vreg(blk.body[static_cast<std::size_t>(u)], v))
        continue;
      if (u < d) {
        // Reads the previous iteration's value: RAW at distance 1.
        add(d, u, plat, 1);
      } else {
        // Reads this iteration's value from the single architected
        // register: the next iteration's redefinition must not land
        // before the read (anti-dependence at distance 1).
        add(u, d, 0, 1);
      }
    }
    if (reads_vreg(def_op, v)) add(d, d, plat, 1);  // self-increment
  }

  // Cross-iteration memory dependences (conservative: every ordered pair
  // within an alias space, both directions across the back edge).
  for (int i = 0; i < n; ++i) {
    const LOp& a = blk.body[static_cast<std::size_t>(i)];
    if (a.is_copy || !is_mem(a.opc) || a.mem_space == kMemSpaceReadOnly)
      continue;
    for (int j = 0; j < n; ++j) {
      const LOp& bop = blk.body[static_cast<std::size_t>(j)];
      if (bop.is_copy || !is_mem(bop.opc) || bop.mem_space != a.mem_space)
        continue;
      if (is_store(a.opc))
        add(i, j, 1, 1);  // store → next-iteration load/store
      else if (is_store(bop.opc))
        add(i, j, 0, 1);  // load → next-iteration store
    }
  }
  return edges;
}

ResourceUse op_need(const LOp& op) {
  ResourceUse need;
  if (op.is_copy) return ResourceUse::one_slot();
  Operation probe;
  probe.opc = op.opc;
  need.add(probe);
  return need;
}

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Resource-constrained lower bound on II, including the reserved
// back-branch slot on cluster 0 and the copy-channel pool. Returns a large
// value when some class has demand but no units.
int res_mii(const LBlock& blk, const MachineConfig& cfg) {
  std::array<int, kMaxClusters> slots{}, alu{}, mul{}, mem{};
  int channels = 0;
  for (const LOp& op : blk.body) {
    if (op.is_copy) {
      ++slots[static_cast<std::size_t>(op.cluster)];
      ++slots[static_cast<std::size_t>(op.copy_dst_cluster)];
      ++channels;
      continue;
    }
    ++slots[static_cast<std::size_t>(op.cluster)];
    switch (op_class(op.opc)) {
      case OpClass::kAlu: ++alu[static_cast<std::size_t>(op.cluster)]; break;
      case OpClass::kMul: ++mul[static_cast<std::size_t>(op.cluster)]; break;
      case OpClass::kMem: ++mem[static_cast<std::size_t>(op.cluster)]; break;
      default: break;
    }
  }
  ++slots[0];  // the kernel back-branch
  constexpr int kInfeasible = 1 << 20;
  if (cfg.branch_units_at(0) <= 0) return kInfeasible;
  int mii = 1;
  for (int c = 0; c < cfg.clusters; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    const ClusterResourceConfig& res = cfg.cluster_at(c);
    auto need = [&mii](int count, int cap) {
      if (count == 0) return true;
      if (cap <= 0) return false;
      mii = std::max(mii, ceil_div(count, cap));
      return true;
    };
    if (!need(slots[cc], res.issue_slots) || !need(alu[cc], res.alus) ||
        !need(mul[cc], res.muls) || !need(mem[cc], res.mem_units))
      return kInfeasible;
  }
  if (channels > 0) mii = std::max(mii, ceil_div(channels, kNumChannels));
  return mii;
}

// Rau's HeightR priority at a given II: longest path to any sink over the
// distance-annotated edges (effective latency lat - dist*II). Iterating to
// a fixpoint doubles as the recurrence feasibility test — a circuit with
// positive effective latency (RecMII > II) never converges. Returns false
// when II is recurrence-infeasible.
bool height_r(const std::vector<Edge>& edges, int n, int II,
              std::vector<int>* height) {
  height->assign(static_cast<std::size_t>(n), 0);
  for (int pass = 0; pass <= n + 1; ++pass) {
    bool changed = false;
    for (const Edge& e : edges) {
      const int h =
          (*height)[static_cast<std::size_t>(e.to)] + e.lat - e.dist * II;
      if (h > (*height)[static_cast<std::size_t>(e.from)]) {
        (*height)[static_cast<std::size_t>(e.from)] = h;
        changed = true;
      }
    }
    if (!changed) return true;
  }
  return false;  // positive-latency circuit: II below the recurrence MII
}

// Rau-style iterative modulo scheduling at a fixed II. Returns flat
// schedule times (empty on failure). `cmp_index`'s modulo slot is
// restricted so the kernel branch can read its result in the same pass.
std::vector<int> try_ims(const LBlock& blk, const MachineConfig& cfg,
                         const std::vector<Edge>& edges, int II,
                         int cmp_index, int max_stages) {
  const int n = static_cast<int>(blk.body.size());
  const int cmp_slot_max = II - 1 - cfg.lat.cmp_to_branch;
  if (cmp_slot_max < 0) return {};
  std::vector<int> priority;
  if (!height_r(edges, n, II, &priority)) return {};
  // Schedules drifting past the stage budget cannot emit anyway; failing
  // fast turns resource-infeasible IIs into a quick move to II+1.
  const int t_cap = (max_stages + 2) * II;

  std::vector<std::vector<int>> in_of(static_cast<std::size_t>(n)),
      out_of(static_cast<std::size_t>(n));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    in_of[static_cast<std::size_t>(edges[e].to)].push_back(
        static_cast<int>(e));
    out_of[static_cast<std::size_t>(edges[e].from)].push_back(
        static_cast<int>(e));
  }

  std::vector<int> time(static_cast<std::size_t>(n), -1);
  std::vector<int> prev(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<int>> slot_ops(static_cast<std::size_t>(II));

  Operation br_probe;
  br_probe.opc = Opcode::kGoto;
  ResourceUse br_need;
  br_need.add(br_probe);

  auto fits = [&](int i, int m) {
    std::array<ResourceUse, kMaxClusters> use{};
    int channels = 0;
    auto put = [&use, &channels](const LOp& op) {
      if (op.is_copy) {
        const ResourceUse one = ResourceUse::one_slot();
        use[static_cast<std::size_t>(op.cluster)].add(one);
        use[static_cast<std::size_t>(op.copy_dst_cluster)].add(one);
        ++channels;
      } else {
        use[static_cast<std::size_t>(op.cluster)].add(op_need(op));
      }
    };
    for (int j : slot_ops[static_cast<std::size_t>(m)])
      put(blk.body[static_cast<std::size_t>(j)]);
    put(blk.body[static_cast<std::size_t>(i)]);
    if (m == II - 1) use[0].add(br_need);
    if (channels > kNumChannels) return false;
    for (int c = 0; c < cfg.clusters; ++c) {
      const ResourceUse empty;
      if (!empty.fits_with(use[static_cast<std::size_t>(c)],
                           cfg.cluster_at(c), cfg.branch_units_at(c)))
        return false;
    }
    return true;
  };

  auto unschedule = [&](int j) {
    auto& ops = slot_ops[static_cast<std::size_t>(time[
        static_cast<std::size_t>(j)] % II)];
    ops.erase(std::find(ops.begin(), ops.end(), j));
    time[static_cast<std::size_t>(j)] = -1;
  };

  int unscheduled = n;
  long budget = 200L * n + 64;
  while (unscheduled > 0) {
    if (budget-- <= 0) return {};
    // Highest priority unscheduled op; stable by index.
    int i = -1;
    for (int j = 0; j < n; ++j) {
      if (time[static_cast<std::size_t>(j)] >= 0) continue;
      if (i < 0 || priority[static_cast<std::size_t>(j)] >
                       priority[static_cast<std::size_t>(i)])
        i = j;
    }
    const bool is_cmp = i == cmp_index;

    int est = 0;
    for (int e : in_of[static_cast<std::size_t>(i)]) {
      const Edge& ed = edges[static_cast<std::size_t>(e)];
      if (time[static_cast<std::size_t>(ed.from)] < 0) continue;
      est = std::max(est, time[static_cast<std::size_t>(ed.from)] + ed.lat -
                              ed.dist * II);
    }
    if (prev[static_cast<std::size_t>(i)] >= 0)
      est = std::max(est, prev[static_cast<std::size_t>(i)] + 1);

    int placed = -1;
    for (int t = est; t < est + II; ++t) {
      if (is_cmp && t % II > cmp_slot_max) continue;
      if (fits(i, t % II)) {
        placed = t;
        break;
      }
    }
    if (placed < 0) {
      // Force placement: evict conflicting ops at the earliest legal slot,
      // lowest priority first (keeps critical recurrences intact).
      int t = est;
      while (is_cmp && t % II > cmp_slot_max) ++t;
      const int m = t % II;
      std::vector<int> present = slot_ops[static_cast<std::size_t>(m)];
      std::sort(present.begin(), present.end(), [&priority](int a, int b) {
        const int pa = priority[static_cast<std::size_t>(a)];
        const int pb = priority[static_cast<std::size_t>(b)];
        return pa != pb ? pa < pb : a < b;
      });
      const LOp& mine = blk.body[static_cast<std::size_t>(i)];
      for (int j : present) {
        if (fits(i, m)) break;
        const LOp& theirs = blk.body[static_cast<std::size_t>(j)];
        const bool contend =
            mine.is_copy || theirs.is_copy ||
            mine.cluster == theirs.cluster;
        if (!contend) continue;
        unschedule(j);
        ++unscheduled;
      }
      if (!fits(i, m)) return {};  // op cannot fit even in an empty slot
      placed = t;
    }
    if (placed > t_cap) return {};
    time[static_cast<std::size_t>(i)] = placed;
    prev[static_cast<std::size_t>(i)] = placed;
    slot_ops[static_cast<std::size_t>(placed % II)].push_back(i);
    --unscheduled;

    // Evict scheduled successors the placement now violates.
    for (int e : out_of[static_cast<std::size_t>(i)]) {
      const Edge& ed = edges[static_cast<std::size_t>(e)];
      const int to = ed.to;
      if (time[static_cast<std::size_t>(to)] < 0) continue;
      if (time[static_cast<std::size_t>(to)] < placed + ed.lat - ed.dist * II) {
        unschedule(to);
        ++unscheduled;
      }
    }
  }

  // Normalize so the earliest stage is stage 0 (modulo slots preserved).
  int t_min = time[0];
  for (int t : time) t_min = std::min(t_min, t);
  const int shift = (t_min / II) * II;
  for (int& t : time) t -= shift;
  return time;
}

// Branch registers are renamed per emitted instance, so a breg def and all
// its readers must land in one stage (one emitted block per instance).
bool breg_groups_stage_local(const LBlock& blk, const std::vector<int>& time,
                             int II, int cmp_index) {
  const int n = static_cast<int>(blk.body.size());
  for (int d = 0; d < n; ++d) {
    const LOp& def_op = blk.body[static_cast<std::size_t>(d)];
    if (d == cmp_index || def_op.is_copy || !has_dst(def_op.opc) ||
        !def_op.dst_is_breg)
      continue;
    for (int u = 0; u < n; ++u) {
      const LOp& use = blk.body[static_cast<std::size_t>(u)];
      if (use.is_copy ||
          (use.opc != Opcode::kSlct && use.opc != Opcode::kSlctf) ||
          use.bsrc != def_op.dst)
        continue;
      if (time[static_cast<std::size_t>(u)] / II !=
          time[static_cast<std::size_t>(d)] / II)
        return false;
    }
  }
  return true;
}

// Promoting the loop's values to stable global registers must leave room
// in every cluster's file (r62 downward, locals of other blocks from r1
// up). A conservative headroom check; the whole-function compile-time
// fallback catches anything it misses.
bool pressure_ok(const LFunction& fn, const LBlock& blk,
                 const MachineConfig& cfg) {
  std::array<int, kMaxClusters> globals{};
  for (VReg v = 0; v < fn.next_vreg; ++v) {
    const VRegInfo& vi = fn.info[static_cast<std::size_t>(v)];
    if (!vi.global) continue;
    const int home = vi.home_cluster >= 0 ? vi.home_cluster : 0;
    ++globals[static_cast<std::size_t>(home)];
  }
  for (const LOp& op : blk.body) {
    if (!defines(op) || op.dst_is_breg) continue;
    if (fn.info[static_cast<std::size_t>(op.dst)].global) continue;
    ++globals[static_cast<std::size_t>(op.def_cluster())];
  }
  for (int c = 0; c < cfg.clusters; ++c)
    if (globals[static_cast<std::size_t>(c)] > kNumGprs - 2 - 14) return false;
  return true;
}

// One emitted instance of a body op: at which flat cycle, for which
// iteration tag (breg renaming key).
struct Emitted {
  int cycle = 0;
  int op = 0;
  long tag = 0;
};

class PipelineEmitter {
 public:
  PipelineEmitter(LFunction& fn, std::size_t b, const Shape& shape,
                  std::vector<int> time, int ii, int stages)
      : fn_(fn), loop_(fn.blocks[b]), b_(b), shape_(shape),
        time_(std::move(time)), ii_(ii), sc_(stages) {}

  void run(ModuloResult& out, const MachineConfig& cfg) {
    promote_loop_values();

    LBlock guard = make_guard();
    LBlock skip;  // remainder path jumps over the pipelined blocks
    skip.term = Terminator::kGoto;
    skip.target = static_cast<int>(b_) + 6;

    LBlock prologue, kernel, epilogue;
    BlockSchedule ps, ks, es;
    emit_prologue(prologue, ps);
    emit_kernel(kernel, ks);
    emit_epilogue(epilogue, es, cfg);

    // Remap every target into the post-insertion index space (targets at
    // the loop head land on the guard, which keeps its old index).
    for (LBlock& blk : fn_.blocks)
      if (blk.target > static_cast<int>(b_)) blk.target += 5;

    LBlock orig = std::move(fn_.blocks[b_]);
    orig.target = static_cast<int>(b_) + 1;  // self, at its new position

    std::vector<LBlock> rebuilt;
    rebuilt.reserve(fn_.blocks.size() + 5);
    for (std::size_t i = 0; i < b_; ++i)
      rebuilt.push_back(std::move(fn_.blocks[i]));
    rebuilt.push_back(std::move(guard));
    rebuilt.push_back(std::move(orig));
    rebuilt.push_back(std::move(skip));
    rebuilt.push_back(std::move(prologue));
    rebuilt.push_back(std::move(kernel));
    rebuilt.push_back(std::move(epilogue));
    for (std::size_t i = b_ + 1; i < fn_.blocks.size(); ++i)
      rebuilt.push_back(std::move(fn_.blocks[i]));
    fn_.blocks = std::move(rebuilt);

    out.pinned[b_ + 3] = std::move(ps);
    out.pinned[b_ + 4] = std::move(ks);
    out.pinned[b_ + 5] = std::move(es);
    SwpLoop loop;
    loop.guard_block = b_;
    loop.orig_block = b_ + 1;
    loop.prologue_block = b_ + 3;
    loop.kernel_block = b_ + 4;
    loop.epilogue_block = b_ + 5;
    loop.ii = ii_;
    loop.stages = sc_;
    out.loops.push_back(loop);
  }

 private:
  // Every GPR the loop defines lives across emitted blocks (and across
  // overlapped iterations) in one stable register.
  void promote_loop_values() {
    for (const LOp& op : loop_.body) {
      if (!defines(op) || op.dst_is_breg) continue;
      VRegInfo& vi = fn_.info[static_cast<std::size_t>(op.dst)];
      if (!vi.global) {
        vi.global = true;
        vi.home_cluster = op.def_cluster();
      }
    }
  }

  VReg fresh_breg(int cluster) {
    const VReg v = fn_.next_vreg++;
    fn_.info.push_back(VRegInfo{/*is_breg=*/true, /*global=*/false,
                                cluster, 1});
    return v;
  }

  LBlock make_guard() {
    LBlock guard;
    VReg ctr = shape_.counter;
    const VRegInfo& ci = fn_.info[static_cast<std::size_t>(ctr)];
    const int home = ci.home_cluster >= 0 ? ci.home_cluster : 0;
    if (home != 0) {
      LOp cp;
      cp.opc = Opcode::kSend;
      cp.is_copy = true;
      cp.src1 = ctr;
      cp.cluster = home;
      cp.copy_dst_cluster = 0;
      cp.dst = fn_.next_vreg++;
      fn_.info.push_back(VRegInfo{});
      guard.body.push_back(cp);
      ctr = cp.dst;
      ++fn_.copies_inserted;
    }
    const LOp& cmp = loop_.body[static_cast<std::size_t>(shape_.compare)];
    LOp g;
    g.opc = cmp.opc;
    g.dst = fresh_breg(0);
    g.dst_is_breg = true;
    g.src1 = ctr;
    g.src2_is_imm = true;
    // The pipeline needs at least `stages` iterations (kernel runs
    // total - (stages-1) passes); shorter trips take the original loop.
    g.imm = shape_.limit - shape_.step * (sc_ - 1);
    g.cluster = 0;
    guard.body.push_back(g);
    guard.term = Terminator::kBranch;
    guard.cond = g.dst;
    guard.branch_if_false = false;
    guard.target = static_cast<int>(b_) + 3;
    return guard;
  }

  // Emits `entries` (sorted by cycle) into `blk`/`bs`, renaming breg
  // instances per tag and assigning copy channels per cycle.
  void emit_entries(std::vector<Emitted> entries, LBlock& blk,
                    BlockSchedule& bs, bool kernel) {
    std::sort(entries.begin(), entries.end(),
              [](const Emitted& a, const Emitted& b) {
                return a.cycle != b.cycle ? a.cycle < b.cycle : a.op < b.op;
              });
    std::map<std::pair<VReg, long>, VReg> breg_of;
    std::map<int, int> chan_at;
    for (const Emitted& e : entries) {
      LOp op = loop_.body[static_cast<std::size_t>(e.op)];
      if (!op.is_copy && has_dst(op.opc) && op.dst_is_breg) {
        const VReg renamed = fresh_breg(op.cluster);
        breg_of[{op.dst, e.tag}] = renamed;
        if (kernel && e.op == shape_.compare) {
          // Kernel exit test: the branch reads the condition computed by
          // the iteration `stage(compare)` steps ahead of the completing
          // one; shifting the immediate by step*stage makes it decide for
          // the completing iteration, stages-1 iterations early.
          op.imm = shape_.limit -
                   shape_.step * (time_[static_cast<std::size_t>(e.op)] / ii_);
          kernel_cond_ = renamed;
        }
        op.dst = renamed;
      }
      if (!op.is_copy &&
          (op.opc == Opcode::kSlct || op.opc == Opcode::kSlctf)) {
        const auto it = breg_of.find({op.bsrc, e.tag});
        VEXSIM_CHECK_MSG(it != breg_of.end(),
                         fn_.name << ": breg instance missing in pipelined "
                                     "loop emission");
        op.bsrc = it->second;
      }
      int chan = -1;
      if (op.is_copy) chan = chan_at[e.cycle]++;
      blk.body.push_back(op);
      bs.cycle_of.push_back(e.cycle);
      bs.chan_of.push_back(chan);
    }
  }

  void emit_prologue(LBlock& blk, BlockSchedule& bs) {
    const int n = static_cast<int>(loop_.body.size());
    std::vector<Emitted> entries;
    for (int j = 0; j + 1 < sc_; ++j) {
      for (int i = 0; i < n; ++i) {
        const int flat = j * ii_ + time_[static_cast<std::size_t>(i)];
        if (flat < (sc_ - 1) * ii_)
          entries.push_back(Emitted{flat, i, j});
      }
    }
    emit_entries(std::move(entries), blk, bs, false);
    bs.term_cycle = -1;
    bs.length = (sc_ - 1) * ii_;
    blk.term = Terminator::kFallthrough;
  }

  void emit_kernel(LBlock& blk, BlockSchedule& bs) {
    const int n = static_cast<int>(loop_.body.size());
    std::vector<Emitted> entries;
    for (int i = 0; i < n; ++i) {
      const int t = time_[static_cast<std::size_t>(i)];
      // One instance per op; breg groups are stage-local, so the stage
      // doubles as the renaming tag.
      entries.push_back(Emitted{t % ii_, i, t / ii_});
    }
    emit_entries(std::move(entries), blk, bs, true);
    VEXSIM_CHECK_MSG(kernel_cond_ >= 0,
                     fn_.name << ": pipelined kernel lost its exit compare");
    bs.term_cycle = ii_ - 1;
    bs.length = ii_;
    blk.term = Terminator::kBranch;
    blk.cond = kernel_cond_;
    blk.branch_if_false = false;
    blk.target = static_cast<int>(b_) + 4;
  }

  void emit_epilogue(LBlock& blk, BlockSchedule& bs,
                     const MachineConfig& cfg) {
    const int n = static_cast<int>(loop_.body.size());
    std::vector<Emitted> entries;
    // In-flight iteration k (k = 1 .. stages-1 past the completing one)
    // still owes its stages >= stages-k.
    for (int k = 1; k < sc_; ++k) {
      for (int i = 0; i < n; ++i) {
        const int t = time_[static_cast<std::size_t>(i)];
        if (t / ii_ >= sc_ - k)
          entries.push_back(Emitted{t + (k - sc_) * ii_, i, k});
      }
    }
    int pad = -1;
    for (const Emitted& e : entries) {
      const LOp& op = loop_.body[static_cast<std::size_t>(e.op)];
      if (defines(op))
        pad = std::max(pad, e.cycle + producer_latency(op, cfg.lat) - 1);
    }
    emit_entries(std::move(entries), blk, bs, false);
    bs.term_cycle = -1;
    bs.length = std::max((sc_ - 1) * ii_, pad + 1);
    blk.term = Terminator::kFallthrough;
  }

  LFunction& fn_;
  LBlock loop_;  // copy of the original loop block
  std::size_t b_;
  Shape shape_;
  std::vector<int> time_;
  int ii_;
  int sc_;
  VReg kernel_cond_ = kNoVReg;
};

}  // namespace

ModuloResult modulo_schedule_loops(LFunction& fn, const MachineConfig& cfg,
                                   const CompilerOptions& opt) {
  ModuloResult out;
  if (!opt.modulo_schedule) return out;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const Shape shape = recognize(fn, b);
    if (!shape.ok) continue;
    ++out.candidates;

    const LBlock& blk = fn.blocks[b];
    const int list_len = schedule_block(blk, fn, cfg).length;
    int min_ii = res_mii(blk, cfg);
    std::vector<Edge> edges = build_edges(blk, cfg.lat, &min_ii);
    min_ii = std::max(min_ii, cfg.lat.cmp_to_branch + 1);

    // Profitability margin: the kernel must beat the list-scheduled body
    // by at least two cycles and ~12% per iteration, or the guard,
    // prologue and epilogue overhead eats the win on realistic trip
    // counts.
    const int ii_max = std::min(opt.max_ii,
                                list_len - std::max(2, (list_len + 7) / 8));
    std::vector<int> time;
    int found_ii = 0;
    for (int ii = min_ii; ii <= ii_max; ++ii) {
      std::vector<int> t =
          try_ims(blk, cfg, edges, ii, shape.compare, opt.max_stages);
      if (t.empty()) continue;
      if (!breg_groups_stage_local(blk, t, ii, shape.compare)) continue;
      int t_max = 0;
      for (int v : t) t_max = std::max(t_max, v);
      const int stages = t_max / ii + 1;
      if (stages < 2 || stages > opt.max_stages) continue;
      // Amortization check at a conservative assumed trip count: the
      // per-iteration win must recoup the prologue/epilogue (and guard)
      // overhead — deep pipelines over marginal II gains lose on the
      // moderate trip counts the kernels actually run.
      constexpr int kAssumedTrips = 32;
      if ((list_len - ii) * kAssumedTrips <
          2 * (stages - 1) * ii + 16)
        continue;
      time = std::move(t);
      found_ii = ii;
      break;
    }
    if (time.empty() || !pressure_ok(fn, blk, cfg)) {
      ++out.fallbacks;
      continue;
    }

    int t_max = 0;
    for (int v : time) t_max = std::max(t_max, v);
    const int stages = t_max / found_ii + 1;
    PipelineEmitter emitter(fn, b, shape, std::move(time), found_ii, stages);
    emitter.run(out, cfg);
    b += 5;  // skip the blocks just inserted (incl. the self-looping kernel)
  }
  return out;
}

}  // namespace vexsim::cc
