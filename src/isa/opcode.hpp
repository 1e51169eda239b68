// Opcode set of the vexsim ISA.
//
// Modeled on the VEX / HP-ST ST200 32-bit clustered integer VLIW ISA
// (Fisher/Faraboschi/Young). The subset below covers every operation class
// the paper's evaluation depends on: single-cycle ALU ops, 2-cycle multiply
// and memory ops, two-phase branches (compare sets a branch register, the
// branch reads it), and explicit inter-cluster send/recv copy pairs.
#pragma once

#include <cstdint>
#include <string_view>

namespace vexsim {

enum class Opcode : std::uint8_t {
  kNop = 0,
  // ALU, latency 1.
  kAdd, kSub, kAnd, kAndc, kOr, kXor,
  kShl, kShr, kShru,
  kMin, kMax, kMinu, kMaxu,
  kMov,   // dst = src1
  kMovi,  // dst = imm
  kSxtb, kSxth, kZxtb, kZxth,
  // Comparisons, latency 1; dst is a GPR (0/1) or a branch register.
  kCmpeq, kCmpne, kCmplt, kCmple, kCmpgt, kCmpge, kCmpltu, kCmpgeu,
  // Select via branch register: dst = bsrc ? src1 : src2  (slctf inverts).
  kSlct, kSlctf,
  // Multiply, latency 2. mpyl = low 32 bits, mpyh = high 32 bits.
  kMpyl, kMpyh,
  // Memory, latency 2. Address = gpr[src1] + imm.
  kLdw, kLdh, kLdhu, kLdb, kLdbu,
  kStw, kSth, kStb,  // value in src2 (register only)
  // Control flow. br/brf read a branch register (bsrc); imm = target index.
  kBr, kBrf, kGoto, kHalt,
  // Inter-cluster copy pair; matched by channel id within one instruction.
  kSend,  // reads gpr[src1], pushes onto channel `chan`
  kRecv,  // pops channel `chan` into gpr[dst]
  kCount
};

enum class OpClass : std::uint8_t { kNop, kAlu, kMul, kMem, kBranch, kComm };

[[nodiscard]] OpClass op_class(Opcode opc);
[[nodiscard]] std::string_view opcode_name(Opcode opc);
// Returns kCount when the name is unknown.
[[nodiscard]] Opcode opcode_from_name(std::string_view name);

[[nodiscard]] bool is_load(Opcode opc);
[[nodiscard]] bool is_store(Opcode opc);
[[nodiscard]] bool is_mem(Opcode opc);
[[nodiscard]] bool is_compare(Opcode opc);
[[nodiscard]] bool is_branch(Opcode opc);  // br, brf, goto, halt
[[nodiscard]] bool is_conditional_branch(Opcode opc);

// Dataflow shape of an opcode, used by the assembler, the disassembler, the
// DDG builder and the simulator operand fetch.
[[nodiscard]] bool has_dst(Opcode opc);       // writes a GPR or branch register
[[nodiscard]] bool reads_src1(Opcode opc);
[[nodiscard]] bool reads_src2(Opcode opc);    // src2 may be an immediate
[[nodiscard]] bool reads_bsrc(Opcode opc);    // slct/slctf/br/brf

// Access size in bytes for a memory opcode.
[[nodiscard]] int mem_access_size(Opcode opc);

}  // namespace vexsim
