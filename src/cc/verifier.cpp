#include "cc/verifier.hpp"

#include <array>
#include <functional>
#include <map>
#include <sstream>
#include <tuple>

#include "isa/resources.hpp"
#include "util/check.hpp"

namespace vexsim::cc {

namespace {

// Cyclic steady-state replay of one software-pipelined kernel: every
// operand read must observe a value outside any other instruction's
// latency window, with writes wrapping around the kernel's modulo
// boundary. Latencies mirror the simulator's (LatencyConfig by class;
// breg writes use the compare-to-branch delay; send/recv land a comm
// latency after issue).
void verify_kernel_windows(
    const Program& prog, const SoftwarePipelinedLoop& k,
    const MachineConfig& cfg,
    const std::function<void(std::size_t, const std::string&)>& report) {
  struct Write {
    long issue = 0;
    long visible = 0;
  };
  // (breg?, cluster, index) -> latest write.
  std::map<std::tuple<bool, int, int>, Write> last;
  const int ii = k.ii;
  const int passes = 2 * k.stages + 2;  // windows settle within `stages`
  for (int pass = 0; pass < passes; ++pass) {
    for (int m = 0; m < ii; ++m) {
      const long t = static_cast<long>(pass) * ii + m;
      const std::size_t pc = k.kernel_start + static_cast<std::size_t>(m);
      const InstructionView insn = prog.insn(pc);
      auto check_read = [&](bool breg, int cluster, int idx) {
        const auto it = last.find({breg, cluster, idx});
        if (it == last.end()) return;
        // Reads at the write's own issue cycle are the same instruction
        // (one VLIW instruction per cycle per thread): legal same-cycle
        // old-value semantics. Anything strictly inside the window is the
        // bug the simulator would assert on.
        if (t > it->second.issue && t < it->second.visible)
          report(pc, "kernel steady-state read of " +
                         std::string(breg ? "b" : "r") + std::to_string(idx) +
                         " on cluster " + std::to_string(cluster) +
                         " inside a latency window (modulo wrap)");
      };
      // Reads first (same-cycle reads observe pre-instruction state).
      for (int c = 0; c < cfg.clusters; ++c) {
        for (const Operation& op : insn.bundle(c)) {
          if (reads_src1(op.opc) || op.opc == Opcode::kSend)
            check_read(false, c, op.src1);
          if (reads_src2(op.opc) && !op.src2_is_imm)
            check_read(false, c, op.src2);
          if (reads_bsrc(op.opc)) check_read(true, c, op.bsrc);
        }
      }
      for (int c = 0; c < cfg.clusters; ++c) {
        for (const Operation& op : insn.bundle(c)) {
          if (op.opc == Opcode::kRecv) {
            last[{false, c, op.dst}] = Write{t, t + cfg.lat.comm};
          } else if (op.writes_breg()) {
            last[{true, c, op.dst}] = Write{t, t + cfg.lat.cmp_to_branch};
          } else if (op.writes_gpr()) {
            last[{false, c, op.dst}] =
                Write{t, t + cfg.lat.for_class(op_class(op.opc))};
          }
        }
      }
    }
  }
}

}  // namespace

std::vector<VerifyIssue> verify_program(const Program& prog,
                                        const MachineConfig& cfg) {
  std::vector<VerifyIssue> issues;
  auto report = [&issues](std::size_t i, const std::string& what) {
    issues.push_back(VerifyIssue{i, what});
  };

  for (std::size_t i = 0; i < prog.size(); ++i) {
    const InstructionView insn = prog.insn(i);
    int branches = 0;
    std::array<int, kNumChannels> sends{};
    std::array<int, kNumChannels> recvs{};

    for (int c = 0; c < cfg.clusters; ++c) {
      const OpRange bundle = insn.bundle(c);
      if (bundle.empty()) continue;
      ResourceUse use;
      for (const Operation& op : bundle) {
        use.add(op);
        if (static_cast<int>(op.cluster) != c)
          report(i, "operation filed under wrong bundle");
        if (is_branch(op.opc)) ++branches;
        if (op.opc == Opcode::kSend) ++sends[op.chan];
        if (op.opc == Opcode::kRecv) ++recvs[op.chan];
        if (op.writes_gpr() && op.dst >= kNumGprs)
          report(i, "gpr index out of range");
        if (op.writes_breg() && op.dst >= kNumBregs)
          report(i, "breg index out of range");
        if (reads_bsrc(op.opc) && op.bsrc >= kNumBregs)
          report(i, "bsrc index out of range");
        if ((op.opc == Opcode::kBr || op.opc == Opcode::kBrf ||
             op.opc == Opcode::kGoto) &&
            (op.imm < 0 ||
             static_cast<std::size_t>(op.imm) >= prog.size()))
          report(i, "branch target out of range");
      }
      ResourceUse empty;
      if (!empty.fits_with(use, cfg.cluster_at(c), cfg.branch_units_at(c))) {
        std::ostringstream os;
        os << "cluster " << c << " overcommitted: slots=" << int(use.slots())
           << " alu=" << int(use.alu()) << " mul=" << int(use.mul())
           << " mem=" << int(use.mem()) << " br=" << int(use.br());
        report(i, os.str());
      }
    }
    // A bundle on a cluster beyond the machine's cluster count is illegal.
    for (int c = cfg.clusters; c < kMaxClusters; ++c)
      if (!insn.bundle(c).empty())
        report(i, "bundle on nonexistent cluster");

    if (branches > 1) report(i, "multiple control-flow ops in instruction");
    for (int ch = 0; ch < kNumChannels; ++ch) {
      if (sends[ch] != recvs[ch])
        report(i, "unpaired send/recv on channel " + std::to_string(ch));
      if (sends[ch] > 1) report(i, "channel reused within instruction");
    }
  }

  // Software-pipelined kernels: span sanity, the closing back-branch, and
  // the cyclic latency-window replay.
  for (const SoftwarePipelinedLoop& k : prog.kernels) {
    if (k.epilogue_end > prog.size() || k.ii < 1 || k.stages < 2 ||
        k.prologue_start > k.kernel_start ||
        k.kernel_start + k.ii > k.epilogue_end) {
      report(k.kernel_start, "malformed software-pipeline span");
      continue;
    }
    const std::size_t last = k.kernel_start + k.ii - 1;
    bool closes = false;
    for (int c = 0; c < cfg.clusters; ++c)
      for (const Operation& op : prog.insn(last).bundle(c))
        if ((op.opc == Opcode::kBr || op.opc == Opcode::kBrf) &&
            static_cast<std::uint32_t>(op.imm) == k.kernel_start)
          closes = true;
    if (!closes)
      report(last, "software-pipelined kernel does not close with a "
                   "back-branch to its first instruction");
    verify_kernel_windows(prog, k, cfg, report);
  }
  return issues;
}

void verify_or_throw(const Program& prog, const MachineConfig& cfg) {
  const auto issues = verify_program(prog, cfg);
  if (issues.empty()) return;
  // Aggregate every issue (with its instruction index) into one error, the
  // same shape run_sweep uses for point failures: a miscompile usually
  // trips several checks at once and the full list is what localizes it.
  std::ostringstream os;
  os << prog.name << ": " << issues.size() << " verifier issue(s):";
  for (const VerifyIssue& issue : issues)
    os << "\n  [" << issue.instr << "] " << issue.what;
  VEXSIM_CHECK_MSG(false, os.str());
}

}  // namespace vexsim::cc
