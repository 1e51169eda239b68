#include "cc/dataflow.hpp"

#include <algorithm>
#include <set>

#include "util/check.hpp"

namespace vexsim::cc {

std::string loc_name(int loc) {
  return "c" + std::to_string(loc_cluster(loc)) +
         (loc_is_breg(loc) ? ":b" : ":r") + std::to_string(loc_reg(loc));
}

int LocSet::count() const {
  int n = 0;
  for (const std::uint64_t w : words_) n += std::popcount(w);
  return n;
}

bool LocSet::insert_all(const LocSet& other) {
  bool changed = false;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::uint64_t merged = words_[w] | other.words_[w];
    changed |= merged != words_[w];
    words_[w] = merged;
  }
  return changed;
}

void LocSet::intersect(const LocSet& other) {
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
}

void LocSet::subtract(const LocSet& other) {
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= ~other.words_[w];
}

namespace {

// The single control-flow operation of an instruction, if any (the verifier
// rejects instructions with more than one; this takes the first).
const Operation* control_op(const InstructionView& insn) {
  for (const Operation& op : insn.ops())
    if (is_branch(op.opc)) return &op;
  return nullptr;
}

bool target_in_range(const Program& prog, std::int32_t target) {
  return target >= 0 && static_cast<std::size_t>(target) < prog.size();
}

}  // namespace

Cfg Cfg::build(const Program& prog) {
  Cfg cfg;
  const std::size_t n = prog.size();
  cfg.block_of_.assign(n, 0);
  if (n == 0) return cfg;

  // Leaders: entry, every in-range branch target, and every instruction
  // following a control-flow operation.
  std::set<std::uint32_t> leaders;
  leaders.insert(0);
  for (std::size_t i = 0; i < n; ++i) {
    const Operation* ctl = control_op(prog.insn(i));
    if (ctl == nullptr) continue;
    if (i + 1 < n) leaders.insert(static_cast<std::uint32_t>(i + 1));
    if (ctl->opc != Opcode::kHalt && target_in_range(prog, ctl->imm))
      leaders.insert(static_cast<std::uint32_t>(ctl->imm));
  }

  for (auto it = leaders.begin(); it != leaders.end(); ++it) {
    CfgBlock block;
    block.first = *it;
    block.end = std::next(it) != leaders.end()
                    ? *std::next(it)
                    : static_cast<std::uint32_t>(n);
    const int id = static_cast<int>(cfg.blocks_.size());
    for (std::uint32_t pc = block.first; pc < block.end; ++pc)
      cfg.block_of_[pc] = id;
    cfg.blocks_.push_back(std::move(block));
  }

  auto add_edge = [&cfg](int from, int to) {
    CfgBlock& f = cfg.blocks_[static_cast<std::size_t>(from)];
    if (std::find(f.succs.begin(), f.succs.end(), to) != f.succs.end())
      return;
    f.succs.push_back(to);
    cfg.blocks_[static_cast<std::size_t>(to)].preds.push_back(from);
  };
  for (std::size_t b = 0; b < cfg.blocks_.size(); ++b) {
    const CfgBlock& block = cfg.blocks_[b];
    const Operation* ctl = control_op(prog.insn(block.end - 1));
    const bool has_next = block.end < n;
    if (ctl == nullptr) {
      if (has_next) add_edge(static_cast<int>(b), cfg.block_of_[block.end]);
      continue;
    }
    switch (ctl->opc) {
      case Opcode::kHalt:
        break;
      case Opcode::kGoto:
        if (target_in_range(prog, ctl->imm))
          add_edge(static_cast<int>(b),
                   cfg.block_of_[static_cast<std::size_t>(ctl->imm)]);
        break;
      default:  // br / brf: taken target plus fall-through
        if (target_in_range(prog, ctl->imm))
          add_edge(static_cast<int>(b),
                   cfg.block_of_[static_cast<std::size_t>(ctl->imm)]);
        if (has_next) add_edge(static_cast<int>(b), cfg.block_of_[block.end]);
        break;
    }
  }

  // Reachability from the entry block.
  cfg.reachable_.assign(cfg.blocks_.size(), false);
  std::vector<int> stack{0};
  cfg.reachable_[0] = true;
  while (!stack.empty()) {
    const int b = stack.back();
    stack.pop_back();
    for (const int s : cfg.blocks_[static_cast<std::size_t>(b)].succs) {
      if (cfg.reachable_[static_cast<std::size_t>(s)]) continue;
      cfg.reachable_[static_cast<std::size_t>(s)] = true;
      stack.push_back(s);
    }
  }
  return cfg;
}

Liveness solve_liveness(const Program& prog, const Cfg& cfg) {
  const std::size_t n = prog.size();
  Liveness out;
  out.live_in.assign(n, LocSet{});
  out.live_out.assign(n, LocSet{});
  if (n == 0) return out;

  // Block summaries: use = read before any write in the block,
  // def = written anywhere in the block.
  const std::size_t nb = cfg.size();
  std::vector<LocSet> use(nb), def(nb), block_in(nb), block_out(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    const CfgBlock& block = cfg.blocks()[b];
    for (std::uint32_t pc = block.first; pc < block.end; ++pc) {
      prog.insn(pc).for_each_op([&](const Operation& op) {
        for_each_read(op, [&](int loc) {
          if (!def[b].contains(loc)) use[b].insert(loc);
        });
      });
      prog.insn(pc).for_each_op([&](const Operation& op) {
        for_each_write(op, [&](int loc) { def[b].insert(loc); });
      });
    }
  }

  // Backward fixpoint on block boundaries.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t b = nb; b-- > 0;) {
      LocSet live_out_b;
      for (const int s : cfg.blocks()[b].succs)
        live_out_b.insert_all(block_in[static_cast<std::size_t>(s)]);
      LocSet live_in_b = live_out_b;
      live_in_b.subtract(def[b]);
      live_in_b.insert_all(use[b]);
      block_out[b] = live_out_b;
      if (live_in_b != block_in[b]) {
        block_in[b] = live_in_b;
        changed = true;
      }
    }
  }

  // Materialize per-instruction sets with one backward pass per block.
  for (std::size_t b = 0; b < nb; ++b) {
    const CfgBlock& block = cfg.blocks()[b];
    LocSet live = block_out[b];
    for (std::uint32_t pc = block.end; pc-- > block.first;) {
      out.live_out[pc] = live;
      prog.insn(pc).for_each_op([&](const Operation& op) {
        for_each_write(op, [&](int loc) { live.erase(loc); });
      });
      prog.insn(pc).for_each_op([&](const Operation& op) {
        for_each_read(op, [&](int loc) { live.insert(loc); });
      });
      out.live_in[pc] = live;
    }
  }
  return out;
}

Assigned solve_definitely_assigned(const Program& prog, const Cfg& cfg) {
  const std::size_t n = prog.size();
  Assigned out;
  out.assigned_in.assign(n, LocSet{});
  if (n == 0) return out;

  const std::size_t nb = cfg.size();
  std::vector<LocSet> def(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    const CfgBlock& block = cfg.blocks()[b];
    for (std::uint32_t pc = block.first; pc < block.end; ++pc)
      prog.insn(pc).for_each_op([&](const Operation& op) {
        for_each_write(op, [&](int loc) { def[b].insert(loc); });
      });
  }

  // Forward must-fixpoint: meet is intersection, top is the full set (so
  // unreachable blocks and not-yet-visited joins never veto). The entry
  // block starts from the empty set — cold machine state.
  std::vector<LocSet> block_in(nb), block_out(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    block_in[b].fill();
    block_out[b].fill();
  }
  block_in[0].clear();
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t b = 0; b < nb; ++b) {
      LocSet in;
      if (b == 0) {
        // Entry keeps its cold-state in-set even with back-edges into it.
        in.clear();
      } else {
        in.fill();
        for (const int p : cfg.blocks()[b].preds)
          in.intersect(block_out[static_cast<std::size_t>(p)]);
        if (cfg.blocks()[b].preds.empty()) in.fill();  // unreachable: top
      }
      LocSet outset = in;
      outset.insert_all(def[b]);
      if (in != block_in[b] || outset != block_out[b]) {
        block_in[b] = in;
        block_out[b] = outset;
        changed = true;
      }
    }
  }

  for (std::size_t b = 0; b < nb; ++b) {
    const CfgBlock& block = cfg.blocks()[b];
    LocSet assigned = block_in[b];
    for (std::uint32_t pc = block.first; pc < block.end; ++pc) {
      out.assigned_in[pc] = assigned;
      prog.insn(pc).for_each_op([&](const Operation& op) {
        for_each_write(op, [&](int loc) { assigned.insert(loc); });
      });
    }
  }
  return out;
}

namespace {

// Dynamically-sized bitset over definition ids.
class DefSet {
 public:
  explicit DefSet(std::size_t bits) : words_((bits + 63) / 64, 0) {}
  void insert(std::size_t d) { words_[d / 64] |= std::uint64_t{1} << (d % 64); }
  void erase(std::size_t d) { words_[d / 64] &= ~(std::uint64_t{1} << (d % 64)); }
  bool insert_all(const DefSet& other) {
    bool changed = false;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::uint64_t merged = words_[w] | other.words_[w];
      changed |= merged != words_[w];
      words_[w] = merged;
    }
    return changed;
  }
  void subtract(const DefSet& other) {
    for (std::size_t w = 0; w < words_.size(); ++w)
      words_[w] &= ~other.words_[w];
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        fn(w * 64 + static_cast<std::size_t>(b));
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace

std::vector<std::uint32_t> ReachingDefs::reaching(std::size_t pc,
                                                  int loc) const {
  std::vector<std::uint32_t> ids;
  for (const std::uint32_t d : reaching_in[pc])
    if (defs[d].loc == static_cast<std::uint16_t>(loc)) ids.push_back(d);
  return ids;
}

ReachingDefs solve_reaching_defs(const Program& prog, const Cfg& cfg) {
  ReachingDefs out;
  const std::size_t n = prog.size();
  out.reaching_in.assign(n, {});
  if (n == 0) return out;

  // Enumerate definitions: one per (instruction, written location).
  std::vector<std::vector<std::uint32_t>> defs_at(n);  // pc -> def ids
  std::vector<std::vector<std::uint32_t>> defs_of_loc(kMaxLocs);
  for (std::size_t pc = 0; pc < n; ++pc) {
    LocSet written;
    prog.insn(pc).for_each_op([&](const Operation& op) {
      for_each_write(op, [&](int loc) { written.insert(loc); });
    });
    written.for_each([&](int loc) {
      const auto id = static_cast<std::uint32_t>(out.defs.size());
      out.defs.push_back(
          {static_cast<std::uint32_t>(pc), static_cast<std::uint16_t>(loc)});
      defs_at[pc].push_back(id);
      defs_of_loc[static_cast<std::size_t>(loc)].push_back(id);
    });
  }
  const std::size_t nd = out.defs.size();

  const std::size_t nb = cfg.size();
  std::vector<DefSet> gen(nb, DefSet(nd)), kill(nb, DefSet(nd));
  for (std::size_t b = 0; b < nb; ++b) {
    const CfgBlock& block = cfg.blocks()[b];
    for (std::uint32_t pc = block.first; pc < block.end; ++pc) {
      for (const std::uint32_t d : defs_at[pc]) {
        // A later write in the same block supersedes earlier gens.
        for (const std::uint32_t other :
             defs_of_loc[out.defs[d].loc]) {
          kill[b].insert(other);
          gen[b].erase(other);
        }
        gen[b].insert(d);
      }
    }
  }

  std::vector<DefSet> block_in(nb, DefSet(nd)), block_out(nb, DefSet(nd));
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t b = 0; b < nb; ++b) {
      DefSet in(nd);
      for (const int p : cfg.blocks()[b].preds)
        in.insert_all(block_out[static_cast<std::size_t>(p)]);
      DefSet outset = in;
      outset.subtract(kill[b]);
      outset.insert_all(gen[b]);
      if (block_out[b].insert_all(outset)) changed = true;
      block_in[b].insert_all(in);
    }
  }

  for (std::size_t b = 0; b < nb; ++b) {
    const CfgBlock& block = cfg.blocks()[b];
    DefSet reach = block_in[b];
    for (std::uint32_t pc = block.first; pc < block.end; ++pc) {
      std::vector<std::uint32_t>& ids = out.reaching_in[pc];
      reach.for_each([&ids](std::size_t d) {
        ids.push_back(static_cast<std::uint32_t>(d));
      });
      std::sort(ids.begin(), ids.end());
      for (const std::uint32_t d : defs_at[pc]) {
        for (const std::uint32_t other : defs_of_loc[out.defs[d].loc])
          reach.erase(other);
        reach.insert(d);
      }
    }
  }
  return out;
}

PressureResult register_pressure(const Program& prog, const Liveness& live) {
  PressureResult out;
  for (std::size_t pc = 0; pc < prog.size(); ++pc) {
    std::array<int, kMaxClusters> gprs{};
    std::array<int, kMaxClusters> bregs{};
    live.live_in[pc].for_each([&](int loc) {
      auto& counts = loc_is_breg(loc) ? bregs : gprs;
      ++counts[static_cast<std::size_t>(loc_cluster(loc))];
    });
    for (std::size_t c = 0; c < kMaxClusters; ++c) {
      if (gprs[c] > out.max_gpr[c]) {
        out.max_gpr[c] = gprs[c];
        out.at_instr[c] = static_cast<std::uint32_t>(pc);
      }
      out.max_breg[c] = std::max(out.max_breg[c], bregs[c]);
    }
  }
  return out;
}

}  // namespace vexsim::cc
