#include "sim/reference.hpp"

#include <array>
#include <optional>

#include "sim/exec.hpp"
#include "util/check.hpp"
#include "util/inline_vec.hpp"

namespace vexsim {

namespace {
struct RegEffect {
  bool to_breg;
  std::uint8_t cluster;
  std::uint8_t idx;
  std::uint32_t value;
};
struct StoreEffect {
  std::uint32_t addr;
  std::uint8_t size;
  std::uint32_t value;
};
}  // namespace

bool ReferenceInterpreter::step(ThreadContext& ctx, RefResult& result) const {
  if (ctx.state != RunState::kReady) return false;
  if (ctx.at_end()) {
    ctx.state = RunState::kHalted;
    result.halted = true;
    return false;
  }
  const InstructionView insn = ctx.program().insn(ctx.pc);

  InlineVec<RegEffect, kMaxTotalIssue> reg_effects;
  InlineVec<StoreEffect, kMaxTotalIssue> store_effects;
  std::array<std::optional<std::uint32_t>, kNumChannels> channel;
  std::optional<std::uint32_t> branch_target;
  bool halt = false;
  bool fault = false;

  // Pass 1: sends publish their values (reads of pre-instruction state).
  insn.for_each_op([&](const Operation& op) {
    if (op.opc == Opcode::kSend)
      channel[op.chan] = ctx.regs.gpr(op.cluster, op.src1);
  });

  // Pass 2: evaluate everything against pre-instruction state.
  insn.for_each_op([&](const Operation& op) {
    if (fault) return;
    const int c = op.cluster;
    switch (op.cls()) {
      case OpClass::kNop:
        break;
      case OpClass::kAlu:
      case OpClass::kMul: {
        const std::uint32_t a =
            reads_src1(op.opc) ? ctx.regs.gpr(c, op.src1) : 0;
        const std::uint32_t b =
            op.opc == Opcode::kMovi
                ? static_cast<std::uint32_t>(op.imm)
                : (reads_src2(op.opc)
                       ? (op.src2_is_imm ? static_cast<std::uint32_t>(op.imm)
                                         : ctx.regs.gpr(c, op.src2))
                       : 0);
        const bool bv =
            reads_bsrc(op.opc) ? ctx.regs.breg(c, op.bsrc) : false;
        reg_effects.push_back(RegEffect{op.dst_is_breg, op.cluster, op.dst,
                                        eval_scalar(op.opc, a, b, bv)});
        break;
      }
      case OpClass::kMem: {
        const std::uint32_t addr = ctx.regs.gpr(c, op.src1) +
                                   static_cast<std::uint32_t>(op.imm);
        const int size = mem_access_size(op.opc);
        if (is_load(op.opc)) {
          std::uint32_t raw = 0;
          if (!ctx.mem.load(addr, size, raw)) {
            fault = true;
            ctx.fault = FaultInfo{true, ctx.pc, addr};
            break;
          }
          reg_effects.push_back(RegEffect{false, op.cluster, op.dst,
                                          extend_loaded(op.opc, raw)});
        } else {
          if (addr < MainMemory::kGuardLimit ||
              (addr & (static_cast<std::uint32_t>(size) - 1)) != 0) {
            fault = true;
            ctx.fault = FaultInfo{true, ctx.pc, addr};
            break;
          }
          store_effects.push_back(StoreEffect{
              addr, static_cast<std::uint8_t>(size),
              ctx.regs.gpr(c, op.src2)});
        }
        break;
      }
      case OpClass::kBranch: {
        if (op.opc == Opcode::kHalt) {
          halt = true;
          break;
        }
        const bool bv =
            reads_bsrc(op.opc) ? ctx.regs.breg(c, op.bsrc) : false;
        if (branch_taken(op.opc, bv)) {
          VEXSIM_CHECK_MSG(!branch_target.has_value(),
                           "two taken branches in one instruction");
          branch_target = static_cast<std::uint32_t>(op.imm);
        }
        break;
      }
      case OpClass::kComm: {
        if (op.opc == Opcode::kRecv) {
          VEXSIM_CHECK_MSG(channel[op.chan].has_value(),
                           "recv without matching send in instruction (pc="
                               << ctx.pc << ")");
          reg_effects.push_back(
              RegEffect{false, op.cluster, op.dst, *channel[op.chan]});
        }
        break;
      }
    }
  });

  if (fault) {
    // Precise: nothing of the faulting instruction applies.
    ctx.state = RunState::kFaulted;
    result.faulted = true;
    result.fault_pc = ctx.pc;
    return false;
  }

  for (const StoreEffect& s : store_effects) {
    const bool ok = ctx.mem.store(s.addr, s.size, s.value);
    VEXSIM_CHECK(ok);
  }
  for (const RegEffect& e : reg_effects) {
    if (e.to_breg)
      ctx.regs.set_breg(e.cluster, e.idx, e.value != 0);
    else
      ctx.regs.set_gpr(e.cluster, e.idx, e.value);
  }

  ++result.instructions;
  ++ctx.total_instructions;
  result.ops += static_cast<std::uint64_t>(insn.op_count());

  if (halt) {
    ctx.state = RunState::kHalted;
    result.halted = true;
    return false;
  }
  ctx.pc = branch_target.value_or(ctx.pc + 1);
  if (ctx.at_end()) {
    ctx.state = RunState::kHalted;
    result.halted = true;
    return false;
  }
  return true;
}

RefResult ReferenceInterpreter::run(ThreadContext& ctx,
                                    std::uint64_t max_instructions) const {
  RefResult result;
  while (result.instructions < max_instructions) {
    if (!step(ctx, result)) break;
  }
  return result;
}

}  // namespace vexsim
