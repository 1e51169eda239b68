#include "cc/lint.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <tuple>

#include "util/check.hpp"

namespace vexsim::cc {

namespace {

struct Reporter {
  std::vector<LintFinding>* findings;
  void operator()(const char* check, std::size_t pc,
                  const std::string& what) const {
    findings->push_back(LintFinding{check, pc, what});
  }
};

// ---- uninit-read ----------------------------------------------------------

void check_uninit_reads(const Program& prog, const Cfg& cfg,
                        const Assigned& assigned, const Reporter& report) {
  for (std::size_t pc = 0; pc < prog.size(); ++pc) {
    if (!cfg.reachable(cfg.block_of(pc))) continue;
    const LocSet& ok = assigned.assigned_in[pc];
    prog.insn(pc).for_each_op([&](const Operation& op) {
      for_each_read(op, [&](int loc) {
        if (!ok.contains(loc))
          report("uninit-read", pc,
                 std::string(opcode_name(op.opc)) + " reads " +
                     loc_name(loc) +
                     " before any definition on some path from entry");
      });
    });
  }
}

// ---- same-cycle-waw -------------------------------------------------------

void check_same_cycle_waw(const Program& prog, const Reporter& report) {
  for (std::size_t pc = 0; pc < prog.size(); ++pc) {
    LocSet written;
    prog.insn(pc).for_each_op([&](const Operation& op) {
      for_each_write(op, [&](int loc) {
        if (written.contains(loc))
          report("same-cycle-waw", pc,
                 "two operations write " + loc_name(loc) +
                     " in the same instruction");
        written.insert(loc);
      });
    });
  }
}

// ---- dead-copy ------------------------------------------------------------

void check_dead_copies(const Program& prog, const Liveness& live,
                       const Reporter& report) {
  for (std::size_t pc = 0; pc < prog.size(); ++pc) {
    prog.insn(pc).for_each_op([&](const Operation& op) {
      if (op.opc != Opcode::kRecv || op.dst == 0) return;
      const int loc = gpr_loc(op.cluster, op.dst);
      if (!live.live_out[pc].contains(loc))
        report("dead-copy", pc,
               "inter-cluster copy into " + loc_name(loc) + " (channel " +
                   std::to_string(op.chan) +
                   ") is never read before being overwritten");
    });
  }
}

// ---- dead-code / kernel-clobber ------------------------------------------

// Pure operations: recomputable, no memory/channel/control effect. Loads
// stay exempt (they perturb the cache model even when the value is dead).
bool pure_op(const Operation& op) {
  const OpClass cls = op.cls();
  return (cls == OpClass::kAlu || cls == OpClass::kMul) &&
         op.opc != Opcode::kNop;
}

// Intentional redundancy the cluster assigner emits by contract, exempt from
// the dead-write checks:
//   - predicate broadcast: branch-condition compares are cloned into every
//     cluster so each cluster owns the predicate locally (no cross-cluster
//     breg traffic); a clone being unread on some cluster is the expected
//     cost of the broadcast, not a bug. Whether a clone reads the *right
//     version* of its operands is the stale-clone check's job.
//   - constant rematerialization: movi is re-emitted per cluster instead of
//     being sent over a channel; an unread remat is a slot-filler artifact.
// Anything else pure with a dead result is an orphaned computation and a
// genuine pass bug.
bool rematerialization(const Operation& op) {
  return op.opc == Opcode::kMovi || (is_compare(op.opc) && op.writes_breg());
}

void check_dead_code(const Program& prog, const Cfg& cfg, const Liveness& live,
                     const Reporter& report) {
  for (std::size_t pc = 0; pc < prog.size(); ++pc) {
    if (!cfg.reachable(cfg.block_of(pc))) continue;
    const SwpRegion region = prog.decoded->region_of(pc);
    // Prologue/epilogue stages legitimately compute partial-iteration
    // results that drain unused; only straight-line code and the steady-
    // state kernel are held to strict deadness.
    if (region == SwpRegion::kPrologue || region == SwpRegion::kEpilogue)
      continue;
    prog.insn(pc).for_each_op([&](const Operation& op) {
      if (!pure_op(op) || rematerialization(op)) return;
      for_each_write(op, [&](int loc) {
        if (live.live_out[pc].contains(loc)) return;
        if (region == SwpRegion::kKernel)
          report("kernel-clobber", pc,
                 "kernel stage value " + loc_name(loc) + " written by " +
                     std::string(opcode_name(op.opc)) +
                     " is overwritten before any read (stage-overlap "
                     "register conflict)");
        else
          report("dead-code", pc,
                 std::string(opcode_name(op.opc)) + " result " +
                     loc_name(loc) + " is never read");
      });
    });
  }
}

// ---- unreachable ----------------------------------------------------------

void check_unreachable(const Program& prog, const Cfg& cfg,
                       const Reporter& report) {
  for (std::size_t b = 0; b < cfg.size(); ++b) {
    if (cfg.reachable(static_cast<int>(b))) continue;
    const CfgBlock& block = cfg.blocks()[b];
    for (std::uint32_t pc = block.first; pc < block.end; ++pc)
      if (!prog.insn(pc).empty())
        report("unreachable", pc,
               "instruction is unreachable from entry (" +
                   std::to_string(prog.insn(pc).op_count()) + " op(s))");
  }
}

// ---- stale-clone ----------------------------------------------------------

// Block-local value tracking: every register location holds a (origin
// location, version) pair, where version counts writes to the origin within
// the block. mov and send/recv pairs propagate values unchanged; any other
// write mints a fresh version of its own location. Two clone twins must
// read the *same version* whenever their operands provably share an origin;
// reading an older version is exactly the PR 5 re-localization bug. Origins
// that differ (e.g. operands localized in an earlier block) prove nothing
// and stay silent.
void check_stale_clones(const Program& prog, const Cfg& cfg,
                        const Reporter& report) {
  struct Value {
    int origin = -1;
    int version = 0;
  };

  for (std::size_t b = 0; b < cfg.size(); ++b) {
    const CfgBlock& block = cfg.blocks()[b];
    std::array<Value, kMaxLocs> val;
    for (int loc = 0; loc < kMaxLocs; ++loc) val[loc] = Value{loc, 0};
    std::array<int, kMaxLocs> writes{};

    // Clone twins keyed by the shape the cluster assigner's cloning
    // machinery preserves: destination breg index + opcode + immediate
    // shape for compares; source breg index + opcode for selects.
    struct Twin {
      std::size_t pc = 0;
      int cluster = 0;
      Value src1, src2;
      bool has_src2 = false;
    };
    std::map<std::tuple<bool, int, Opcode, bool, std::int32_t>, Twin> twins;

    auto check_operand = [&](const char* which, const Value& before,
                             const Value& now, std::size_t prev_pc,
                             std::size_t pc, const Operation& op) {
      if (before.origin != now.origin) return;  // unprovable: stay silent
      if (before.version == now.version) return;
      std::ostringstream os;
      os << "clone of instruction " << prev_pc << "'s "
         << opcode_name(op.opc) << " on cluster " << int(op.cluster)
         << " reads " << which << " version " << now.version << " of "
         << loc_name(now.origin) << " while its twin read version "
         << before.version
         << " — operand re-localized across an interleaving redefinition";
      report("stale-clone", pc, os.str());
    };

    for (std::uint32_t pc = block.first; pc < block.end; ++pc) {
      const InstructionView insn = prog.insn(pc);

      // Phase 1: reads observe pre-instruction state. Snapshot channel
      // payloads and run the clone consistency checks.
      std::array<Value, kNumChannels> chan_val;
      std::array<bool, kNumChannels> chan_set{};
      insn.for_each_op([&](const Operation& op) {
        if (op.opc == Opcode::kSend && !chan_set[op.chan]) {
          chan_set[op.chan] = true;
          chan_val[op.chan] = op.src1 == 0
                                  ? Value{-1, 0}
                                  : val[gpr_loc(op.cluster, op.src1)];
        }
      });
      insn.for_each_op([&](const Operation& op) {
        const bool cmp_clone = is_compare(op.opc) && op.writes_breg();
        const bool slct_clone =
            op.opc == Opcode::kSlct || op.opc == Opcode::kSlctf;
        if (!cmp_clone && !slct_clone) return;
        const int key_breg = cmp_clone ? op.dst : op.bsrc;
        const auto key = std::make_tuple(
            cmp_clone, key_breg, op.opc, op.src2_is_imm,
            op.src2_is_imm ? op.imm : 0);
        Twin now;
        now.pc = pc;
        now.cluster = op.cluster;
        now.src1 = op.src1 == 0 ? Value{-1, 0}
                                : val[gpr_loc(op.cluster, op.src1)];
        now.has_src2 = !op.src2_is_imm;
        if (now.has_src2)
          now.src2 = op.src2 == 0 ? Value{-1, 0}
                                  : val[gpr_loc(op.cluster, op.src2)];
        const auto it = twins.find(key);
        if (it == twins.end()) {
          twins.emplace(key, now);
        } else if (it->second.cluster == op.cluster) {
          // Same cluster re-defines the predicate: a new generation —
          // later clones pair with this one, not the stale entry.
          it->second = now;
        } else {
          const Twin& prev = it->second;
          if (now.src1.origin >= 0)
            check_operand("src1", prev.src1, now.src1, prev.pc, pc, op);
          if (now.has_src2 && now.src2.origin >= 0)
            check_operand("src2", prev.src2, now.src2, prev.pc, pc, op);
        }
      });

      // Phase 2: apply writes.
      insn.for_each_op([&](const Operation& op) {
        if (op.opc == Opcode::kRecv) {
          if (op.dst == 0) return;
          const int loc = gpr_loc(op.cluster, op.dst);
          val[loc] = chan_set[op.chan] && chan_val[op.chan].origin >= 0
                         ? chan_val[op.chan]
                         : Value{loc, ++writes[loc]};
          return;
        }
        if (op.opc == Opcode::kMov && op.src1 != 0) {
          if (op.dst == 0 || op.dst_is_breg) return;
          val[gpr_loc(op.cluster, op.dst)] =
              val[gpr_loc(op.cluster, op.src1)];
          return;
        }
        for_each_write(op, [&](int loc) {
          val[loc] = Value{loc, ++writes[loc]};
        });
      });
    }
  }
}

}  // namespace

std::string to_string(const Program& prog, const LintFinding& finding) {
  return prog.name + "[" + std::to_string(finding.instr) + "] " +
         finding.check + ": " + finding.what;
}

LintReport lint_program(const Program& prog, const MachineConfig& cfg) {
  (void)cfg;  // geometry legality is the verifier's concern
  LintReport report;
  if (prog.size() == 0) return report;

  const Cfg graph = Cfg::build(prog);
  const Liveness live = solve_liveness(prog, graph);
  const Assigned assigned = solve_definitely_assigned(prog, graph);
  report.pressure = register_pressure(prog, live);

  const Reporter reporter{&report.findings};
  check_uninit_reads(prog, graph, assigned, reporter);
  check_same_cycle_waw(prog, reporter);
  check_dead_copies(prog, live, reporter);
  check_dead_code(prog, graph, live, reporter);
  check_stale_clones(prog, graph, reporter);
  check_unreachable(prog, graph, reporter);

  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const LintFinding& a, const LintFinding& b) {
                     return a.instr < b.instr;
                   });
  return report;
}

void lint_or_throw(const Program& prog, const MachineConfig& cfg) {
  const LintReport report = lint_program(prog, cfg);
  if (report.findings.empty()) return;
  std::ostringstream os;
  os << prog.name << ": " << report.findings.size() << " lint finding(s):";
  for (const LintFinding& f : report.findings)
    os << "\n  [" << f.instr << "] " << f.check << ": " << f.what;
  throw CheckError(os.str());
}

std::vector<LintFinding> lint_lfunction(const LFunction& lfn,
                                        const MachineConfig& cfg) {
  std::vector<LintFinding> findings;
  std::size_t ordinal = 0;
  auto report = [&](std::size_t block, std::size_t op, const std::string& what) {
    findings.push_back(LintFinding{
        "lfunction", ordinal,
        lfn.name + " b" + std::to_string(block) + "[" + std::to_string(op) +
            "]: " + what});
  };
  auto vreg_ok = [&lfn](VReg v) { return v >= 0 && v < lfn.next_vreg; };

  for (std::size_t b = 0; b < lfn.blocks.size(); ++b) {
    const LBlock& block = lfn.blocks[b];
    for (std::size_t i = 0; i < block.body.size(); ++i, ++ordinal) {
      const LOp& op = block.body[i];
      if (op.cluster < 0 || op.cluster >= cfg.clusters)
        report(b, i, "op assigned to nonexistent cluster " +
                         std::to_string(op.cluster));
      if (op.is_copy) {
        if (op.copy_dst_cluster < 0 || op.copy_dst_cluster >= cfg.clusters)
          report(b, i, "copy to nonexistent cluster " +
                           std::to_string(op.copy_dst_cluster));
        else if (op.copy_dst_cluster == op.cluster)
          report(b, i, "self-copy: source and destination cluster " +
                           std::to_string(op.cluster));
        if (!vreg_ok(op.src1) || !vreg_ok(op.dst))
          report(b, i, "copy with out-of-range vreg");
        continue;
      }
      if (has_dst(op.opc) && !vreg_ok(op.dst))
        report(b, i, "dst vreg out of range");
      if (reads_src1(op.opc) && !vreg_ok(op.src1))
        report(b, i, "src1 vreg out of range");
      if (reads_src2(op.opc) && !op.src2_is_imm && !vreg_ok(op.src2))
        report(b, i, "src2 vreg out of range");
      if (reads_bsrc(op.opc) &&
          (op.opc == Opcode::kSlct || op.opc == Opcode::kSlctf) &&
          !vreg_ok(op.bsrc))
        report(b, i, "bsrc vreg out of range");
      if (has_dst(op.opc) && vreg_ok(op.dst) &&
          op.dst < static_cast<VReg>(lfn.info.size()) &&
          lfn.info[static_cast<std::size_t>(op.dst)].is_breg !=
              op.dst_is_breg)
        report(b, i, "dst breg/gpr class disagrees with vreg info");
    }
    if (block.term == Terminator::kBranch ||
        block.term == Terminator::kGoto) {
      if (block.target < 0 ||
          static_cast<std::size_t>(block.target) >= lfn.blocks.size())
        report(b, block.body.size(),
               "terminator targets nonexistent block " +
                   std::to_string(block.target));
    }
    if (block.term == Terminator::kBranch && !vreg_ok(block.cond))
      report(b, block.body.size(), "branch condition vreg out of range");
  }
  return findings;
}

}  // namespace vexsim::cc
