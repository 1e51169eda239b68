// The decode tables must agree exactly with the builder instructions they
// were packed from and with the opcode classification helpers the hot paths
// would otherwise re-derive per cycle.
#include "isa/decoded_program.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "isa/program.hpp"
#include "isa/resources.hpp"
#include "support/code_oracle.hpp"
#include "support/test_util.hpp"
#include "workloads/registry.hpp"

namespace vexsim {
namespace {

// The builder form of a small program touching every operand shape.
std::vector<VliwInstruction> sample_code() {
  std::vector<VliwInstruction> code(6);
  code[0].add(ops::alu(Opcode::kAdd, 0, 1, 2, 3));
  code[0].add(ops::mpyl(0, 4, 5, 6));
  code[0].add(ops::load(Opcode::kLdw, 1, 7, 0, 0x200));
  code[1].add(ops::cmp_breg(Opcode::kCmplt, 0, 1, 1, 4));
  code[1].add(ops::store(Opcode::kStw, 2, 0, 0x204, 1));
  code[1].add(ops::movi(3, 9, 7));
  code[2].add(ops::send(0, 1, 0));
  code[2].add(ops::recv(1, 2, 0));
  code[3].add(ops::br(0, 1, 0));
  code[4].add(ops::slct(1, 3, 0, 1, 2));
  code[5].add(ops::halt(0));
  return code;
}

Program sample_program() {
  Program p;
  p.name = "decode_sample";
  p.finalize(sample_code());
  return p;
}

TEST(DecodedProgram, BuiltByFinalizeAndSized) {
  const Program p = sample_program();
  ASSERT_NE(p.decoded, nullptr);
  EXPECT_EQ(p.decoded->size(), sample_code().size());
  EXPECT_EQ(p.size(), p.decoded->size());
  EXPECT_TRUE(p.finalized());
}

TEST(DecodedProgram, WholeBundleUseMatchesRecomputation) {
  const std::vector<VliwInstruction> code = sample_code();
  const Program p = sample_program();
  for (std::size_t i = 0; i < code.size(); ++i) {
    const DecodedInstruction& dec = p.decoded->insn(i);
    for (int c = 0; c < kMaxClusters; ++c) {
      const Bundle& bundle = code[i].bundle(c);
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
  const std::vector<VliwInstruction> code = sample_code();
  const Program p = sample_program();
  for (std::size_t i = 0; i < code.size(); ++i) {
    const DecodedInstruction& dec = p.decoded->insn(i);
    bool comm = false;
    bool branch = false;
    std::uint32_t used = 0;
    for (int c = 0; c < kMaxClusters; ++c) {
      if (!code[i].bundle(c).empty()) used |= 1u << c;
      for (const Operation& op : code[i].bundle(c)) {
        comm |= op.cls() == OpClass::kComm;
        branch |= is_branch(op.opc);
      }
    }
    EXPECT_EQ(static_cast<int>(dec.op_count), code[i].op_count()) << i;
    EXPECT_EQ(dec.has_comm, comm) << i;
    EXPECT_EQ(dec.has_branch, branch) << i;
    EXPECT_EQ(dec.used_cluster_mask, used) << i;
  }
}

TEST(DecodedProgram, OperandFlagsMatchOpcodeHelpers) {
  for (const VliwInstruction& insn : sample_code()) {
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

TEST(DecodedProgram, FlatTableMatchesBuilder) {
  test::expect_table_matches_builder(sample_code(), sample_program());
}

TEST(DecodedProgram, ViewsReadTheTable) {
  const std::vector<VliwInstruction> code = sample_code();
  const Program p = sample_program();
  for (std::size_t i = 0; i < code.size(); ++i) {
    const InstructionView view = p.insn(i);
    std::vector<Operation> want;
    code[i].for_each_op([&want](const Operation& op) { want.push_back(op); });
    EXPECT_TRUE(std::ranges::equal(view.ops(), want)) << i;
    // Views copy nothing: each operation is the table's own.
    if (!view.empty()) {
      const std::uint32_t first = p.decoded->insn(i).bundles[0].first_op;
      EXPECT_EQ(&view.ops()[0], &p.decoded->ops()[first].op);
    }
  }
}

// Compiled programs have no builder vector left to compare against; their
// own view-built copy still pins the table's offsets, masks and uses.
TEST(DecodedProgram, FlatTableMatchesEveryRegistryKernel) {
  const MachineConfig cfg = MachineConfig::paper(4, Technique::csmt());
  for (const wl::BenchmarkInfo& info : wl::benchmark_registry()) {
    const auto p = wl::make_benchmark(info.name, cfg, 0.05);
    test::expect_table_matches_builder(test::builder_code(*p), *p);
  }
}

TEST(DecodedProgram, FlatTableMatchesSynthSpecs) {
  const MachineConfig cfg = MachineConfig::paper(4, Technique::csmt());
  for (const char* spec :
       {"synth:i0.9-m0.3-b0.1-c0.2-s3", "synth:i0.2-m0.5-b0.2-s4-f256",
        "synth:i1-m0.2-p0.5-n128-s5-ccpipe2", "synth:i0.5-m0.4-st64-s6"}) {
    const auto p = wl::make_benchmark(spec, cfg, 0.05);
    test::expect_table_matches_builder(test::builder_code(*p), *p);
  }
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
