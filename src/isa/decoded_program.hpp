// The program's code: one flat table of DecodedOps and one per-instruction
// table, built once by Program::finalize() from the builder instructions and
// then the only form of the code that exists. The simulator's per-cycle hot
// paths (merge engine, operand fetch) index these tables instead of
// re-deriving facts from operations, and every other reader (validate, the
// verifier, lint, dataflow, the reference interpreter, disassembly, the
// encoder) walks them through an InstructionView.
//
// Layout: the table holds every operation of the program in instruction,
// cluster and bundle order, each carrying its Operation and the facts below.
// A DecodedInstruction holds per-cluster summaries only; bundle c's operation
// i is ops()[bundle(c).first_op + i], and an instruction's operations are the
// contiguous run starting at bundle(0).first_op. The table costs 32 B per
// actual operation plus 144 B per instruction, so a mostly-empty wide
// instruction stays small.
//
// What is cached, and why it is sufficient:
//
//  * Per cluster, the ResourceUse of the *whole* bundle plus a per-operation
//    singleton use. These are the only masks the merge hardware ever needs:
//    whole-instruction and per-bundle selection are all-or-nothing at bundle
//    granularity (the pending mask of a cluster is either full or empty), and
//    operation-level selection probes one operation at a time.
//  * Per operation, the dataflow facts execute() would otherwise re-derive
//    from opcode classification every cycle: operand-read flags, the operand-b
//    source (register vs immediate), the operation class, and the memory
//    access size.
//  * Per instruction, the op count and has_comm/has_branch summaries that
//    gate split-issue policy (CommPolicy::kNoSplit) and completion.
//
// The tables are immutable and machine-independent (no latencies, no cluster
// limits), so one DecodedProgram serves every simulator configuration the
// program runs on.
#pragma once

#include <bit>
#include <cstdint>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/resources.hpp"

namespace vexsim {

// One software-pipelined loop's instruction spans, recorded by the
// compiler's modulo-scheduling pass: [prologue_start, kernel_start) fills
// the pipeline, [kernel_start, kernel_start + ii) is the steady-state
// kernel (`stages` iterations in flight, back-branch in its last
// instruction), and [kernel_start + ii, epilogue_end) drains it. The
// verifier replays the kernel cyclically against this metadata; the decode
// cache exposes the region of each instruction.
struct SoftwarePipelinedLoop {
  std::uint32_t prologue_start = 0;
  std::uint32_t kernel_start = 0;
  std::uint32_t epilogue_end = 0;  // one past the last epilogue instruction
  std::uint16_t ii = 0;            // kernel length in instructions
  std::uint16_t stages = 0;        // overlapped iterations in steady state
};

enum class SwpRegion : std::uint8_t { kNone, kPrologue, kKernel, kEpilogue };

// One operation and its dataflow facts, resolved once at decode.
struct DecodedOp {
  // Flag bits mirror the opcode.hpp classification helpers.
  static constexpr std::uint8_t kReadsSrc1 = 1u << 0;  // reads gpr[src1]
  static constexpr std::uint8_t kSrc2Reg = 1u << 1;    // operand b = gpr[src2]
  static constexpr std::uint8_t kSrc2Imm = 1u << 2;    // operand b = imm
  static constexpr std::uint8_t kReadsBsrc = 1u << 3;  // reads breg[bsrc]
  static constexpr std::uint8_t kLoad = 1u << 4;       // memory read
  static constexpr std::uint8_t kDstBreg = 1u << 5;    // writes a breg

  Operation op;
  OpClass cls = OpClass::kNop;
  std::uint8_t flags = 0;
  std::uint8_t mem_size = 0;  // access bytes for kMem, else 0
  ResourceUse use;            // singleton use (slots = 1)

  [[nodiscard]] bool has(std::uint8_t flag) const {
    return (flags & flag) != 0;
  }

  friend bool operator==(const DecodedOp&, const DecodedOp&) = default;
};

// One cluster's slice of a decoded instruction: its operations are
// DecodedProgram::ops()[first_op, first_op + popcount(full_mask)).
struct DecodedBundle {
  ResourceUse whole_use;        // use of the complete bundle
  std::uint32_t first_op = 0;   // index of the bundle's first op in ops()
  std::uint8_t full_mask = 0;   // (1 << bundle.size()) - 1

  friend bool operator==(const DecodedBundle&, const DecodedBundle&) = default;
};

struct DecodedInstruction {
  std::array<DecodedBundle, kMaxClusters> bundles;
  // bundles[c].full_mask, gathered contiguously: issue-progress refill is
  // one 8-byte copy instead of a per-cluster walk.
  std::array<std::uint8_t, kMaxClusters> full_masks{};
  std::uint32_t used_cluster_mask = 0;  // clusters with a non-empty bundle
  std::uint8_t op_count = 0;
  bool has_comm = false;    // subject of the NS comm policy
  bool has_branch = false;

  [[nodiscard]] const DecodedBundle& bundle(int cluster) const {
    return bundles[static_cast<std::size_t>(cluster)];
  }

  friend bool operator==(const DecodedInstruction&,
                         const DecodedInstruction&) = default;
};

// The operations of one bundle, or of a whole instruction: a range of
// `const Operation&` over a slice of the flat table. Copies no operation.
using OpRange = std::ranges::transform_view<std::span<const DecodedOp>,
                                            Operation DecodedOp::*>;

// A lightweight read-only view of one instruction: raw pointers into the
// program's shared tables, valid while the Program lives (the same rule as
// ThreadContext's views). Operations come in cluster and bundle order.
class InstructionView {
 public:
  InstructionView(const DecodedInstruction& insn, const DecodedOp* ops)
      : insn_(&insn), ops_(ops) {}

  [[nodiscard]] OpRange bundle(int cluster) const {
    const DecodedBundle& b = insn_->bundle(cluster);
    return slice(b.first_op,
                 static_cast<std::size_t>(std::popcount(b.full_mask)));
  }
  // Every operation of the instruction.
  [[nodiscard]] OpRange ops() const {
    return slice(insn_->bundles[0].first_op, insn_->op_count);
  }
  template <typename Fn>
  void for_each_op(Fn&& fn) const {
    for (const Operation& op : ops()) fn(op);
  }

  [[nodiscard]] int op_count() const { return insn_->op_count; }
  [[nodiscard]] bool empty() const { return insn_->op_count == 0; }

 private:
  [[nodiscard]] OpRange slice(std::size_t first, std::size_t n) const {
    return OpRange(std::span<const DecodedOp>(ops_ + first, n),
                   &DecodedOp::op);
  }

  const DecodedInstruction* insn_;
  const DecodedOp* ops_;
};

// Renders as one assembler line: ops joined by " ; ", "nop" when empty.
[[nodiscard]] std::string to_string(const InstructionView& insn);

class DecodedProgram {
 public:
  // Packs the builder instructions into the tables.
  explicit DecodedProgram(const std::vector<VliwInstruction>& code,
                          const std::vector<SoftwarePipelinedLoop>& kernels =
                              {});

  [[nodiscard]] const DecodedInstruction& insn(std::size_t pc) const {
    return insns_[pc];
  }
  [[nodiscard]] const DecodedInstruction* data() const {
    return insns_.data();
  }
  [[nodiscard]] std::size_t size() const { return insns_.size(); }
  [[nodiscard]] InstructionView view(std::size_t pc) const {
    return InstructionView(insns_[pc], ops_.data());
  }
  // The flat op table (see the layout note above).
  [[nodiscard]] const DecodedOp* ops() const { return ops_.data(); }
  [[nodiscard]] std::size_t op_count() const { return ops_.size(); }

  // Software-pipeline region of an instruction (prologue/epilogue-aware
  // decode: tools and the verifier ask, the cycle hot paths never do).
  [[nodiscard]] SwpRegion region_of(std::size_t pc) const {
    return regions_.empty() ? SwpRegion::kNone : regions_[pc];
  }

  // Decode of a single operation; exposed so tests can cross-check the
  // cached flags against the opcode.hpp classification functions.
  [[nodiscard]] static DecodedOp decode_op(const Operation& op);

 private:
  std::vector<DecodedInstruction> insns_;
  std::vector<DecodedOp> ops_;
  // Empty when the program has no pipelined loops (the common case).
  std::vector<SwpRegion> regions_;
};

}  // namespace vexsim
