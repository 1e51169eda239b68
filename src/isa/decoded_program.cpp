#include "isa/decoded_program.hpp"

#include <algorithm>
#include <sstream>

#include "isa/opcode.hpp"
#include "util/check.hpp"

namespace vexsim {

DecodedOp DecodedProgram::decode_op(const Operation& op) {
  DecodedOp d;
  d.op = op;
  d.cls = op.cls();
  d.use.add(op);
  std::uint8_t flags = 0;
  if (reads_src1(op.opc)) flags |= DecodedOp::kReadsSrc1;
  // Operand b of the scalar evaluation: movi takes the immediate outright;
  // otherwise src2 is a register unless the encoding marked it immediate.
  if (op.opc == Opcode::kMovi) {
    flags |= DecodedOp::kSrc2Imm;
  } else if (reads_src2(op.opc)) {
    flags |= op.src2_is_imm ? DecodedOp::kSrc2Imm : DecodedOp::kSrc2Reg;
  }
  if (reads_bsrc(op.opc)) flags |= DecodedOp::kReadsBsrc;
  if (is_load(op.opc)) flags |= DecodedOp::kLoad;
  if (op.dst_is_breg) flags |= DecodedOp::kDstBreg;
  d.flags = flags;
  if (d.cls == OpClass::kMem)
    d.mem_size = static_cast<std::uint8_t>(mem_access_size(op.opc));
  return d;
}

DecodedProgram::DecodedProgram(const std::vector<VliwInstruction>& code,
                               const std::vector<SoftwarePipelinedLoop>&
                                   kernels) {
  if (!kernels.empty()) {
    regions_.assign(code.size(), SwpRegion::kNone);
    for (const SoftwarePipelinedLoop& k : kernels) {
      VEXSIM_CHECK_MSG(k.epilogue_end <= code.size(),
                       "software-pipeline span past end of code");
      for (std::uint32_t i = k.prologue_start; i < k.kernel_start; ++i)
        regions_[i] = SwpRegion::kPrologue;
      // Clamp: a malformed span (kernel_start + ii past epilogue_end) is
      // the verifier's to report; region tagging must not index past the
      // code it annotates.
      for (std::uint32_t i = k.kernel_start;
           i < std::min<std::uint64_t>(std::uint64_t{k.kernel_start} + k.ii,
                                       code.size());
           ++i)
        regions_[i] = SwpRegion::kKernel;
      for (std::uint32_t i = k.kernel_start + k.ii; i < k.epilogue_end; ++i)
        regions_[i] = SwpRegion::kEpilogue;
    }
  }
  std::size_t total_ops = 0;
  for (const VliwInstruction& insn : code)
    total_ops += static_cast<std::size_t>(insn.op_count());
  ops_.reserve(total_ops);
  insns_.reserve(code.size());
  for (const VliwInstruction& insn : code) {
    DecodedInstruction dec;
    int ops = 0;
    for (int c = 0; c < kMaxClusters; ++c) {
      const Bundle& bundle = insn.bundle(c);
      DecodedBundle& db = dec.bundles[static_cast<std::size_t>(c)];
      VEXSIM_CHECK(bundle.size() <= kMaxIssuePerCluster);
      db.first_op = static_cast<std::uint32_t>(ops_.size());
      db.full_mask =
          static_cast<std::uint8_t>((1u << bundle.size()) - 1u);
      for (const Operation& op : bundle) {
        ops_.push_back(decode_op(op));
        db.whole_use.add(op);
        if (op.cls() == OpClass::kComm) dec.has_comm = true;
        if (is_branch(op.opc)) dec.has_branch = true;
      }
      dec.full_masks[static_cast<std::size_t>(c)] = db.full_mask;
      if (db.full_mask != 0) dec.used_cluster_mask |= 1u << c;
      ops += static_cast<int>(bundle.size());
    }
    dec.op_count = static_cast<std::uint8_t>(ops);
    insns_.push_back(dec);
  }
}

std::string to_string(const InstructionView& insn) {
  if (insn.empty()) return "nop";
  std::ostringstream os;
  bool first = true;
  for (const Operation& op : insn.ops()) {
    if (!first) os << " ; ";
    first = false;
    os << to_string(op);
  }
  return os.str();
}

}  // namespace vexsim
