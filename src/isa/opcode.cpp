#include "isa/opcode.hpp"

#include <array>

#include "util/check.hpp"

namespace vexsim {

namespace {
struct OpcodeInfo {
  std::string_view name;
  OpClass cls;
};

constexpr auto kInfo = [] {
  std::array<OpcodeInfo, static_cast<std::size_t>(Opcode::kCount)> t{};
  auto set = [&t](Opcode o, std::string_view n, OpClass c) {
    t[static_cast<std::size_t>(o)] = {n, c};
  };
  set(Opcode::kNop, "nop", OpClass::kNop);
  set(Opcode::kAdd, "add", OpClass::kAlu);
  set(Opcode::kSub, "sub", OpClass::kAlu);
  set(Opcode::kAnd, "and", OpClass::kAlu);
  set(Opcode::kAndc, "andc", OpClass::kAlu);
  set(Opcode::kOr, "or", OpClass::kAlu);
  set(Opcode::kXor, "xor", OpClass::kAlu);
  set(Opcode::kShl, "shl", OpClass::kAlu);
  set(Opcode::kShr, "shr", OpClass::kAlu);
  set(Opcode::kShru, "shru", OpClass::kAlu);
  set(Opcode::kMin, "min", OpClass::kAlu);
  set(Opcode::kMax, "max", OpClass::kAlu);
  set(Opcode::kMinu, "minu", OpClass::kAlu);
  set(Opcode::kMaxu, "maxu", OpClass::kAlu);
  set(Opcode::kMov, "mov", OpClass::kAlu);
  set(Opcode::kMovi, "movi", OpClass::kAlu);
  set(Opcode::kSxtb, "sxtb", OpClass::kAlu);
  set(Opcode::kSxth, "sxth", OpClass::kAlu);
  set(Opcode::kZxtb, "zxtb", OpClass::kAlu);
  set(Opcode::kZxth, "zxth", OpClass::kAlu);
  set(Opcode::kCmpeq, "cmpeq", OpClass::kAlu);
  set(Opcode::kCmpne, "cmpne", OpClass::kAlu);
  set(Opcode::kCmplt, "cmplt", OpClass::kAlu);
  set(Opcode::kCmple, "cmple", OpClass::kAlu);
  set(Opcode::kCmpgt, "cmpgt", OpClass::kAlu);
  set(Opcode::kCmpge, "cmpge", OpClass::kAlu);
  set(Opcode::kCmpltu, "cmpltu", OpClass::kAlu);
  set(Opcode::kCmpgeu, "cmpgeu", OpClass::kAlu);
  set(Opcode::kSlct, "slct", OpClass::kAlu);
  set(Opcode::kSlctf, "slctf", OpClass::kAlu);
  set(Opcode::kMpyl, "mpyl", OpClass::kMul);
  set(Opcode::kMpyh, "mpyh", OpClass::kMul);
  set(Opcode::kLdw, "ldw", OpClass::kMem);
  set(Opcode::kLdh, "ldh", OpClass::kMem);
  set(Opcode::kLdhu, "ldhu", OpClass::kMem);
  set(Opcode::kLdb, "ldb", OpClass::kMem);
  set(Opcode::kLdbu, "ldbu", OpClass::kMem);
  set(Opcode::kStw, "stw", OpClass::kMem);
  set(Opcode::kSth, "sth", OpClass::kMem);
  set(Opcode::kStb, "stb", OpClass::kMem);
  set(Opcode::kBr, "br", OpClass::kBranch);
  set(Opcode::kBrf, "brf", OpClass::kBranch);
  set(Opcode::kGoto, "goto", OpClass::kBranch);
  set(Opcode::kHalt, "halt", OpClass::kBranch);
  set(Opcode::kSend, "send", OpClass::kComm);
  set(Opcode::kRecv, "recv", OpClass::kComm);
  return t;
}();
}  // namespace

OpClass op_class(Opcode opc) {
  VEXSIM_CHECK(opc < Opcode::kCount);
  return kInfo[static_cast<std::size_t>(opc)].cls;
}

std::string_view opcode_name(Opcode opc) {
  VEXSIM_CHECK(opc < Opcode::kCount);
  return kInfo[static_cast<std::size_t>(opc)].name;
}

Opcode opcode_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kInfo.size(); ++i)
    if (kInfo[i].name == name) return static_cast<Opcode>(i);
  return Opcode::kCount;
}

bool is_load(Opcode opc) {
  return opc == Opcode::kLdw || opc == Opcode::kLdh || opc == Opcode::kLdhu ||
         opc == Opcode::kLdb || opc == Opcode::kLdbu;
}

bool is_store(Opcode opc) {
  return opc == Opcode::kStw || opc == Opcode::kSth || opc == Opcode::kStb;
}

bool is_mem(Opcode opc) { return op_class(opc) == OpClass::kMem; }

bool is_compare(Opcode opc) {
  return opc >= Opcode::kCmpeq && opc <= Opcode::kCmpgeu;
}

bool is_branch(Opcode opc) { return op_class(opc) == OpClass::kBranch; }

bool is_conditional_branch(Opcode opc) {
  return opc == Opcode::kBr || opc == Opcode::kBrf;
}

bool has_dst(Opcode opc) {
  if (opc == Opcode::kNop || is_store(opc) || is_branch(opc) ||
      opc == Opcode::kSend)
    return false;
  return true;
}

bool reads_src1(Opcode opc) {
  switch (opc) {
    case Opcode::kNop:
    case Opcode::kMovi:
    case Opcode::kBr:
    case Opcode::kBrf:
    case Opcode::kGoto:
    case Opcode::kHalt:
    case Opcode::kRecv:
      return false;
    default:
      return true;
  }
}

bool reads_src2(Opcode opc) {
  switch (opc) {
    case Opcode::kAdd: case Opcode::kSub: case Opcode::kAnd:
    case Opcode::kAndc: case Opcode::kOr: case Opcode::kXor:
    case Opcode::kShl: case Opcode::kShr: case Opcode::kShru:
    case Opcode::kMin: case Opcode::kMax: case Opcode::kMinu:
    case Opcode::kMaxu: case Opcode::kCmpeq: case Opcode::kCmpne:
    case Opcode::kCmplt: case Opcode::kCmple: case Opcode::kCmpgt:
    case Opcode::kCmpge: case Opcode::kCmpltu: case Opcode::kCmpgeu:
    case Opcode::kSlct: case Opcode::kSlctf:
    case Opcode::kMpyl: case Opcode::kMpyh:
      return true;
    default:
      // Stores carry their value in src2 but it is never an immediate.
      return is_store(opc);
  }
}

bool reads_bsrc(Opcode opc) {
  return opc == Opcode::kSlct || opc == Opcode::kSlctf ||
         opc == Opcode::kBr || opc == Opcode::kBrf;
}

int mem_access_size(Opcode opc) {
  switch (opc) {
    case Opcode::kLdw:
    case Opcode::kStw: return 4;
    case Opcode::kLdh:
    case Opcode::kLdhu:
    case Opcode::kSth: return 2;
    case Opcode::kLdb:
    case Opcode::kLdbu:
    case Opcode::kStb: return 1;
    default:
      VEXSIM_CHECK_MSG(false, "not a memory opcode");
  }
  return 0;
}

}  // namespace vexsim
