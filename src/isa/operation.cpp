#include "isa/operation.hpp"

#include <sstream>

#include "util/check.hpp"

namespace vexsim {
namespace ops {

namespace {
Operation base(Opcode opc, int cluster) {
  VEXSIM_CHECK(cluster >= 0 && cluster < kMaxClusters);
  Operation op;
  op.opc = opc;
  op.cluster = static_cast<std::uint8_t>(cluster);
  return op;
}
}  // namespace

Operation alu(Opcode opc, int cluster, int dst, int src1, int src2) {
  Operation op = base(opc, cluster);
  op.dst = static_cast<std::uint8_t>(dst);
  op.src1 = static_cast<std::uint8_t>(src1);
  op.src2 = static_cast<std::uint8_t>(src2);
  return op;
}

Operation alui(Opcode opc, int cluster, int dst, int src1, std::int32_t imm) {
  Operation op = base(opc, cluster);
  op.dst = static_cast<std::uint8_t>(dst);
  op.src1 = static_cast<std::uint8_t>(src1);
  op.src2_is_imm = true;
  op.imm = imm;
  return op;
}

Operation movi(int cluster, int dst, std::int32_t imm) {
  Operation op = base(Opcode::kMovi, cluster);
  op.dst = static_cast<std::uint8_t>(dst);
  op.imm = imm;
  return op;
}

Operation mov(int cluster, int dst, int src) {
  Operation op = base(Opcode::kMov, cluster);
  op.dst = static_cast<std::uint8_t>(dst);
  op.src1 = static_cast<std::uint8_t>(src);
  return op;
}

Operation cmp_breg(Opcode opc, int cluster, int breg, int src1, int src2) {
  VEXSIM_CHECK(is_compare(opc));
  Operation op = alu(opc, cluster, breg, src1, src2);
  op.dst_is_breg = true;
  return op;
}

Operation cmpi_breg(Opcode opc, int cluster, int breg, int src1,
                    std::int32_t imm) {
  VEXSIM_CHECK(is_compare(opc));
  Operation op = alui(opc, cluster, breg, src1, imm);
  op.dst_is_breg = true;
  return op;
}

Operation slct(int cluster, int dst, int bsrc, int src1, int src2) {
  Operation op = alu(Opcode::kSlct, cluster, dst, src1, src2);
  op.bsrc = static_cast<std::uint8_t>(bsrc);
  return op;
}

Operation load(Opcode opc, int cluster, int dst, int base_reg,
               std::int32_t off) {
  VEXSIM_CHECK(is_load(opc));
  Operation op = base(opc, cluster);
  op.dst = static_cast<std::uint8_t>(dst);
  op.src1 = static_cast<std::uint8_t>(base_reg);
  op.imm = off;
  return op;
}

Operation store(Opcode opc, int cluster, int base_reg, std::int32_t off,
                int val) {
  VEXSIM_CHECK(is_store(opc));
  Operation op = base(opc, cluster);
  op.src1 = static_cast<std::uint8_t>(base_reg);
  op.src2 = static_cast<std::uint8_t>(val);
  op.imm = off;
  return op;
}

Operation mpyl(int cluster, int dst, int src1, int src2) {
  return alu(Opcode::kMpyl, cluster, dst, src1, src2);
}

Operation br(int cluster, int bsrc, std::int32_t target) {
  Operation op = base(Opcode::kBr, cluster);
  op.bsrc = static_cast<std::uint8_t>(bsrc);
  op.imm = target;
  return op;
}

Operation brf(int cluster, int bsrc, std::int32_t target) {
  Operation op = base(Opcode::kBrf, cluster);
  op.bsrc = static_cast<std::uint8_t>(bsrc);
  op.imm = target;
  return op;
}

Operation jump(int cluster, std::int32_t target) {
  Operation op = base(Opcode::kGoto, cluster);
  op.imm = target;
  return op;
}

Operation halt(int cluster) { return base(Opcode::kHalt, cluster); }

Operation send(int cluster, int src, int chan) {
  Operation op = base(Opcode::kSend, cluster);
  op.src1 = static_cast<std::uint8_t>(src);
  op.chan = static_cast<std::uint8_t>(chan);
  return op;
}

Operation recv(int cluster, int dst, int chan) {
  Operation op = base(Opcode::kRecv, cluster);
  op.dst = static_cast<std::uint8_t>(dst);
  op.chan = static_cast<std::uint8_t>(chan);
  return op;
}

}  // namespace ops

std::string to_string(const Operation& op) {
  std::ostringstream os;
  os << "c" << int(op.cluster) << " " << opcode_name(op.opc);
  auto src2_str = [&op]() -> std::string {
    if (op.src2_is_imm) return std::to_string(op.imm);
    return "r" + std::to_string(int(op.src2));
  };
  switch (op.cls()) {
    case OpClass::kNop:
      break;
    case OpClass::kAlu:
      if (op.opc == Opcode::kMovi) {
        os << " " << (op.dst_is_breg ? "b" : "r") << int(op.dst) << " = "
           << op.imm;
      } else if (op.opc == Opcode::kSlct || op.opc == Opcode::kSlctf) {
        os << " r" << int(op.dst) << " = b" << int(op.bsrc) << ", r"
           << int(op.src1) << ", " << src2_str();
      } else if (!reads_src2(op.opc)) {
        os << " " << (op.dst_is_breg ? "b" : "r") << int(op.dst) << " = r"
           << int(op.src1);
      } else {
        os << " " << (op.dst_is_breg ? "b" : "r") << int(op.dst) << " = r"
           << int(op.src1) << ", " << src2_str();
      }
      break;
    case OpClass::kMul:
      os << " r" << int(op.dst) << " = r" << int(op.src1) << ", "
         << src2_str();
      break;
    case OpClass::kMem:
      if (is_load(op.opc)) {
        os << " r" << int(op.dst) << " = " << op.imm << "[r" << int(op.src1)
           << "]";
      } else {
        os << " " << op.imm << "[r" << int(op.src1) << "] = r"
           << int(op.src2);
      }
      break;
    case OpClass::kBranch:
      if (op.opc == Opcode::kGoto) {
        os << " @" << op.imm;
      } else if (op.opc != Opcode::kHalt) {
        os << " b" << int(op.bsrc) << ", @" << op.imm;
      }
      break;
    case OpClass::kComm:
      if (op.opc == Opcode::kSend) {
        os << " ch" << int(op.chan) << " = r" << int(op.src1);
      } else {
        os << " r" << int(op.dst) << " = ch" << int(op.chan);
      }
      break;
  }
  return os.str();
}

}  // namespace vexsim
