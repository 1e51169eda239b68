#include "isa/encoding.hpp"

#include "util/check.hpp"

namespace vexsim {

namespace {
// Field layout within a 64-bit operation word.
//   [7:0]   opcode        [11:8]  cluster      [12]    dst_is_breg
//   [20:13] dst           [28:21] src1         [29]    src2_is_imm
//   [37:30] src2          [41:38] bsrc         [45:42] chan
//   [46]    imm extension word follows         [47]    stop bit
//   [63:48] inline signed 16-bit immediate
constexpr int kOpcodeShift = 0;
constexpr int kClusterShift = 8;
constexpr int kDstBregShift = 12;
constexpr int kDstShift = 13;
constexpr int kSrc1Shift = 21;
constexpr int kSrc2ImmShift = 29;
constexpr int kSrc2Shift = 30;
constexpr int kBsrcShift = 38;
constexpr int kChanShift = 42;
constexpr int kExtShift = 46;
constexpr int kStopShift = 47;
constexpr int kImm16Shift = 48;

bool imm_fits16(std::int32_t v) { return v >= -32768 && v <= 32767; }

std::uint64_t encode_op(const Operation& op, bool stop, bool* needs_ext) {
  std::uint64_t w = 0;
  w |= static_cast<std::uint64_t>(op.opc) << kOpcodeShift;
  w |= static_cast<std::uint64_t>(op.cluster) << kClusterShift;
  w |= static_cast<std::uint64_t>(op.dst_is_breg) << kDstBregShift;
  w |= static_cast<std::uint64_t>(op.dst) << kDstShift;
  w |= static_cast<std::uint64_t>(op.src1) << kSrc1Shift;
  w |= static_cast<std::uint64_t>(op.src2_is_imm) << kSrc2ImmShift;
  w |= static_cast<std::uint64_t>(op.src2) << kSrc2Shift;
  w |= static_cast<std::uint64_t>(op.bsrc) << kBsrcShift;
  w |= static_cast<std::uint64_t>(op.chan) << kChanShift;
  *needs_ext = !imm_fits16(op.imm);
  if (*needs_ext) {
    w |= 1ull << kExtShift;
  } else {
    w |= (static_cast<std::uint64_t>(op.imm) & 0xFFFFull) << kImm16Shift;
  }
  if (stop) w |= 1ull << kStopShift;
  return w;
}

Operation decode_op(std::uint64_t w, bool* stop, bool* has_ext) {
  Operation op;
  op.opc = static_cast<Opcode>((w >> kOpcodeShift) & 0xFF);
  VEXSIM_CHECK(op.opc < Opcode::kCount);
  op.cluster = static_cast<std::uint8_t>((w >> kClusterShift) & 0xF);
  op.dst_is_breg = ((w >> kDstBregShift) & 1) != 0;
  op.dst = static_cast<std::uint8_t>((w >> kDstShift) & 0xFF);
  op.src1 = static_cast<std::uint8_t>((w >> kSrc1Shift) & 0xFF);
  op.src2_is_imm = ((w >> kSrc2ImmShift) & 1) != 0;
  op.src2 = static_cast<std::uint8_t>((w >> kSrc2Shift) & 0xFF);
  op.bsrc = static_cast<std::uint8_t>((w >> kBsrcShift) & 0xF);
  op.chan = static_cast<std::uint8_t>((w >> kChanShift) & 0xF);
  *has_ext = ((w >> kExtShift) & 1) != 0;
  *stop = ((w >> kStopShift) & 1) != 0;
  if (!*has_ext) {
    const auto imm16 = static_cast<std::uint16_t>((w >> kImm16Shift) & 0xFFFF);
    op.imm = static_cast<std::int16_t>(imm16);
  }
  return op;
}
}  // namespace

std::uint32_t encoded_size_bytes(const InstructionView& insn) {
  std::uint32_t words = 0;
  insn.for_each_op([&words](const Operation& op) {
    words += imm_fits16(op.imm) ? 1u : 2u;
  });
  if (words == 0) words = 1;  // explicit vertical nop
  return words * 8;
}

void encode(const InstructionView& insn, std::vector<std::uint64_t>& out) {
  const int total = insn.op_count();
  if (total == 0) {
    bool ext = false;
    out.push_back(encode_op(Operation{}, /*stop=*/true, &ext));
    return;
  }
  int emitted = 0;
  insn.for_each_op([&](const Operation& op) {
    ++emitted;
    bool needs_ext = false;
    out.push_back(encode_op(op, /*stop=*/emitted == total, &needs_ext));
    if (needs_ext)
      out.push_back(static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(op.imm)));
  });
}

VliwInstruction decode(std::span<const std::uint64_t> words,
                       std::size_t& pos) {
  VliwInstruction insn;
  bool stop = false;
  while (!stop) {
    VEXSIM_CHECK_MSG(pos < words.size(), "truncated instruction stream");
    bool has_ext = false;
    Operation op = decode_op(words[pos++], &stop, &has_ext);
    if (has_ext) {
      VEXSIM_CHECK_MSG(pos < words.size(), "missing immediate extension");
      op.imm = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(words[pos++] & 0xFFFFFFFFull));
    }
    if (!op.is_nop()) insn.add(op);
  }
  return insn;
}

}  // namespace vexsim
