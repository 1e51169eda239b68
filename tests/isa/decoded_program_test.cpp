// The decode cache must agree exactly with what the hot paths previously
// re-derived per cycle from the instruction stream and the opcode
// classification helpers.
#include "isa/decoded_program.hpp"

#include <gtest/gtest.h>

#include "isa/program.hpp"
#include "isa/resources.hpp"
#include "vasm/assembler.hpp"
#include "workloads/registry.hpp"

namespace vexsim {
namespace {

Program sample_program() {
  return assemble(
      "c0 add r1 = r2, r3 ; c0 mpyl r4 = r5, r6 ; c1 ldw r7 = 0x200[r0]\n"
      "c0 cmplt b1 = r1, r4 ; c2 stw 0x204[r0] = r1 ; c3 movi r9 = 7\n"
      "c0 send ch0 = r1 ; c1 recv r2 = ch0\n"
      "c0 br b1, @0\n"
      "c1 slct r3 = b0, r1, r2\n"
      "c0 halt\n",
      "decode_sample");
}

TEST(DecodedProgram, BuiltByFinalizeAndSized) {
  Program p = sample_program();  // assemble() finalizes
  p.finalize();                  // re-finalizing rebuilds consistently
  ASSERT_NE(p.decoded, nullptr);
  EXPECT_EQ(p.decoded->size(), p.code.size());
  EXPECT_TRUE(p.finalized());
}

TEST(DecodedProgram, WholeBundleUseMatchesRecomputation) {
  Program p = sample_program();
  p.finalize();
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const DecodedInstruction& dec = p.decoded->insn(i);
    for (int c = 0; c < kMaxClusters; ++c) {
      const Bundle& bundle = p.code[i].bundle(c);
      const DecodedBundle& db = dec.bundle(c);
      const auto full = static_cast<std::uint8_t>((1u << bundle.size()) - 1u);
      EXPECT_EQ(db.full_mask, full) << i << "/" << c;
      EXPECT_EQ(db.whole_use, bundle_use(bundle, full)) << i << "/" << c;
      EXPECT_EQ(dec.full_masks[static_cast<std::size_t>(c)], db.full_mask);
      for (std::size_t k = 0; k < bundle.size(); ++k) {
        ResourceUse one;
        one.add(bundle[k]);
        EXPECT_EQ(p.decoded->ops()[db.first_op + k].use, one)
            << i << "/" << c << "/" << k;
      }
    }
  }
}

TEST(DecodedProgram, SummariesMatchInstructionQueries) {
  Program p = sample_program();
  p.finalize();
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const DecodedInstruction& dec = p.decoded->insn(i);
    EXPECT_EQ(static_cast<int>(dec.op_count), p.code[i].op_count()) << i;
    EXPECT_EQ(dec.has_comm, p.code[i].has_comm()) << i;
    EXPECT_EQ(dec.has_branch, p.code[i].has_branch()) << i;
    EXPECT_EQ(dec.used_cluster_mask, p.code[i].used_cluster_mask()) << i;
  }
}

TEST(DecodedProgram, OperandFlagsMatchOpcodeHelpers) {
  Program p = sample_program();
  p.finalize();
  p.code[0].for_each_op([](const Operation& op) { (void)op; });
  for (const VliwInstruction& insn : p.code) {
    insn.for_each_op([](const Operation& op) {
      const DecodedOp d = DecodedProgram::decode_op(op);
      EXPECT_EQ(d.cls, op.cls());
      EXPECT_EQ(d.has(DecodedOp::kReadsSrc1), reads_src1(op.opc));
      EXPECT_EQ(d.has(DecodedOp::kReadsBsrc), reads_bsrc(op.opc));
      EXPECT_EQ(d.has(DecodedOp::kLoad), is_load(op.opc));
      EXPECT_EQ(d.has(DecodedOp::kDstBreg), op.dst_is_breg);
      // Operand b source: movi and immediate-src2 forms read the immediate;
      // the register form reads gpr[src2]; everything else reads neither.
      if (op.opc == Opcode::kMovi) {
        EXPECT_TRUE(d.has(DecodedOp::kSrc2Imm));
        EXPECT_FALSE(d.has(DecodedOp::kSrc2Reg));
      } else if (reads_src2(op.opc)) {
        EXPECT_EQ(d.has(DecodedOp::kSrc2Imm), op.src2_is_imm);
        EXPECT_EQ(d.has(DecodedOp::kSrc2Reg), !op.src2_is_imm);
      } else {
        EXPECT_FALSE(d.has(DecodedOp::kSrc2Imm));
        EXPECT_FALSE(d.has(DecodedOp::kSrc2Reg));
      }
      if (op.cls() == OpClass::kMem)
        EXPECT_EQ(static_cast<int>(d.mem_size), mem_access_size(op.opc));
      else
        EXPECT_EQ(d.mem_size, 0);
    });
  }
}

// The flat op table holds exactly each instruction's operations, in
// cluster then bundle order, and each bundle's offset, mask and whole use
// describe its slice.
void expect_flat_table_matches_code(const Program& p) {
  ASSERT_TRUE(p.finalized()) << p.name;
  const DecodedProgram& dp = *p.decoded;
  std::size_t next = 0;
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    for (int c = 0; c < kMaxClusters; ++c) {
      const Bundle& bundle = p.code[i].bundle(c);
      const DecodedBundle& db = dp.insn(i).bundle(c);
      ASSERT_EQ(db.first_op, next) << p.name << " [" << i << "] c" << c;
      EXPECT_EQ(db.full_mask, (1u << bundle.size()) - 1u)
          << p.name << " [" << i << "] c" << c;
      ResourceUse sum;
      for (std::size_t k = 0; k < bundle.size(); ++k, ++next) {
        ASSERT_LT(next, dp.op_count()) << p.name;
        const DecodedOp& op = dp.ops()[next];
        EXPECT_EQ(op.op, bundle[k]) << p.name << " [" << i << "] c" << c;
        sum.add(op.use);
      }
      EXPECT_EQ(db.whole_use, sum) << p.name << " [" << i << "] c" << c;
    }
  }
  EXPECT_EQ(next, dp.op_count()) << p.name;
}

TEST(DecodedProgram, FlatTableMatchesEveryRegistryKernel) {
  const MachineConfig cfg = MachineConfig::paper(4, Technique::csmt());
  for (const wl::BenchmarkInfo& info : wl::benchmark_registry())
    expect_flat_table_matches_code(*wl::make_benchmark(info.name, cfg, 0.05));
  expect_flat_table_matches_code(sample_program());
}

TEST(DecodedProgram, FlatTableMatchesSynthSpecs) {
  const MachineConfig cfg = MachineConfig::paper(4, Technique::csmt());
  for (const char* spec :
       {"synth:i0.9-m0.3-b0.1-c0.2-s3", "synth:i0.2-m0.5-b0.2-s4-f256",
        "synth:i1-m0.2-p0.5-n128-s5-ccpipe2", "synth:i0.5-m0.4-st64-s6"})
    expect_flat_table_matches_code(*wl::make_benchmark(spec, cfg, 0.05));
}

TEST(DecodedProgram, SingletonUseIsOneSlotOfTheRightClass) {
  const Operation mul = ops::mpyl(2, 1, 2, 3);
  const DecodedOp d = DecodedProgram::decode_op(mul);
  EXPECT_EQ(d.use.slots(), 1);
  EXPECT_EQ(d.use.mul(), 1);
  EXPECT_EQ(d.use.alu(), 0);
  EXPECT_EQ(d.use.mem(), 0);
  EXPECT_EQ(d.use.br(), 0);
}

}  // namespace
}  // namespace vexsim
