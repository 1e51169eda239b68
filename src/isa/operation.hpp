// A single RISC-like operation, the atomic unit of a VLIW instruction.
#pragma once

#include <cstdint>
#include <string>

#include "isa/opcode.hpp"

namespace vexsim {

inline constexpr int kMaxClusters = 8;
inline constexpr int kMaxIssuePerCluster = 8;
inline constexpr int kMaxHwThreads = 8;
inline constexpr int kMaxTotalIssue = kMaxClusters * kMaxIssuePerCluster;
inline constexpr int kNumGprs = 64;   // per cluster; gpr 0 is hardwired to 0
inline constexpr int kNumBregs = 8;   // per cluster
inline constexpr int kNumChannels = 8;  // inter-cluster copy channels

struct Operation {
  Opcode opc = Opcode::kNop;
  std::uint8_t cluster = 0;     // logical cluster the op is scheduled on
  std::uint8_t dst = 0;         // GPR index, or branch-register index
  bool dst_is_breg = false;     // comparisons may target a branch register
  std::uint8_t src1 = 0;        // GPR
  std::uint8_t src2 = 0;        // GPR, unless src2_is_imm
  bool src2_is_imm = false;
  std::uint8_t bsrc = 0;        // branch register read by slct/slctf/br/brf
  std::uint8_t chan = 0;        // send/recv channel id
  std::int32_t imm = 0;         // immediate / address offset / branch target

  friend bool operator==(const Operation&, const Operation&) = default;

  [[nodiscard]] OpClass cls() const { return op_class(opc); }
  [[nodiscard]] bool is_nop() const { return opc == Opcode::kNop; }
  [[nodiscard]] bool writes_gpr() const { return has_dst(opc) && !dst_is_breg; }
  [[nodiscard]] bool writes_breg() const { return has_dst(opc) && dst_is_breg; }
};

// Convenience constructors used by tests, examples and the compiler backend.
namespace ops {
Operation alu(Opcode opc, int cluster, int dst, int src1, int src2);
Operation alui(Opcode opc, int cluster, int dst, int src1, std::int32_t imm);
Operation movi(int cluster, int dst, std::int32_t imm);
Operation mov(int cluster, int dst, int src);
Operation cmp_breg(Opcode opc, int cluster, int breg, int src1, int src2);
Operation cmpi_breg(Opcode opc, int cluster, int breg, int src1,
                    std::int32_t imm);
Operation slct(int cluster, int dst, int bsrc, int src1, int src2);
Operation load(Opcode opc, int cluster, int dst, int base, std::int32_t off);
Operation store(Opcode opc, int cluster, int base, std::int32_t off, int val);
Operation mpyl(int cluster, int dst, int src1, int src2);
Operation br(int cluster, int bsrc, std::int32_t target);
Operation brf(int cluster, int bsrc, std::int32_t target);
Operation jump(int cluster, std::int32_t target);
Operation halt(int cluster);
Operation send(int cluster, int src, int chan);
Operation recv(int cluster, int dst, int chan);
}  // namespace ops

// Renders an op in assembler syntax, e.g. "c0 add r3 = r1, r2".
[[nodiscard]] std::string to_string(const Operation& op);

}  // namespace vexsim
