#include "isa/instruction.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "isa/program.hpp"

namespace vexsim {
namespace {

VliwInstruction example() {
  VliwInstruction insn;
  insn.add(ops::alu(Opcode::kAdd, 0, 1, 2, 3));
  insn.add(ops::load(Opcode::kLdw, 1, 4, 5, 0x200));
  insn.add(ops::alu(Opcode::kSub, 0, 6, 7, 8));
  return insn;
}

TEST(Instruction, AddFilesIntoBundles) {
  const VliwInstruction insn = example();
  EXPECT_EQ(insn.bundle(0).size(), 2u);
  EXPECT_EQ(insn.bundle(1).size(), 1u);
  EXPECT_EQ(insn.bundle(2).size(), 0u);
  EXPECT_EQ(insn.op_count(), 3);
  EXPECT_FALSE(insn.empty());
}

// A finalized one-instruction program holding `insn`: the view is what
// every reader of a finalized program sees.
Program finalized(const VliwInstruction& insn) {
  Program prog;
  prog.finalize({insn});
  return prog;
}

// The per-instruction summary finalize() derives for `insn`.
DecodedInstruction summary(const VliwInstruction& insn) {
  return finalized(insn).decoded->insn(0);
}

TEST(Instruction, UsedClusterMask) {
  EXPECT_EQ(summary(example()).used_cluster_mask, 0b11u);
  EXPECT_EQ(summary(VliwInstruction{}).used_cluster_mask, 0u);
}

TEST(Instruction, EmptyInstruction) {
  const VliwInstruction insn;
  EXPECT_TRUE(insn.empty());
  EXPECT_EQ(insn.op_count(), 0);
  const Program prog = finalized(insn);
  EXPECT_TRUE(prog.insn(0).empty());
  EXPECT_EQ(to_string(prog.insn(0)), "nop");
}

TEST(Instruction, CommAndBranchDetection) {
  VliwInstruction insn = example();
  EXPECT_FALSE(summary(insn).has_comm);
  EXPECT_FALSE(summary(insn).has_branch);
  insn.add(ops::send(2, 1, 0));
  EXPECT_TRUE(summary(insn).has_comm);
  insn.add(ops::br(3, 0, 0));
  EXPECT_TRUE(summary(insn).has_branch);
}

TEST(Instruction, ViewYieldsOpsInClusterAndBundleOrder) {
  const VliwInstruction insn = example();
  const Program prog = finalized(insn);
  const InstructionView view = prog.insn(0);
  EXPECT_EQ(view.op_count(), 3);
  std::vector<Operation> seen;
  view.for_each_op([&seen](const Operation& op) { seen.push_back(op); });
  const std::vector<Operation> want = {insn.bundle(0)[0], insn.bundle(0)[1],
                                       insn.bundle(1)[0]};
  EXPECT_EQ(seen, want);
  for (int c = 0; c < kMaxClusters; ++c) {
    ASSERT_EQ(view.bundle(c).size(), insn.bundle(c).size()) << c;
    for (std::size_t k = 0; k < insn.bundle(c).size(); ++k)
      EXPECT_EQ(view.bundle(c)[k], insn.bundle(c)[k]) << c << "/" << k;
  }
}

TEST(Instruction, ForEachOpVisitsAll) {
  const VliwInstruction insn = example();
  int count = 0;
  insn.for_each_op([&count](const Operation&) { ++count; });
  EXPECT_EQ(count, 3);
}

TEST(Instruction, ToStringJoinsOps) {
  VliwInstruction insn;
  insn.add(ops::alu(Opcode::kAdd, 0, 1, 2, 3));
  insn.add(ops::mov(1, 4, 5));
  EXPECT_EQ(to_string(finalized(insn).insn(0)),
            "c0 add r1 = r2, r3 ; c1 mov r4 = r5");
}

TEST(Instruction, Equality) {
  EXPECT_EQ(example(), example());
  VliwInstruction other = example();
  other.add(ops::halt(0));
  EXPECT_FALSE(example() == other);
}

}  // namespace
}  // namespace vexsim
