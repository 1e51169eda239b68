#include "vasm/assembler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "support/test_util.hpp"
#include "util/check.hpp"

namespace vexsim {
namespace {

TEST(Assembler, BasicAluLine) {
  const Program p = assemble("c0 add r1 = r2, r3");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.insn(0).bundle(0)[0], ops::alu(Opcode::kAdd, 0, 1, 2, 3));
}

TEST(Assembler, MultipleOpsPerLine) {
  const Program p = assemble("c0 add r1 = r2, r3 ; c1 mov r4 = r5");
  EXPECT_EQ(p.insn(0).op_count(), 2);
  EXPECT_EQ(p.insn(0).bundle(1)[0], ops::mov(1, 4, 5));
}

TEST(Assembler, ImmediateOperand) {
  const Program p = assemble("c2 shl r1 = r2, 12");
  EXPECT_EQ(p.insn(0).bundle(2)[0], ops::alui(Opcode::kShl, 2, 1, 2, 12));
}

TEST(Assembler, MoviAndNegative) {
  const Program p = assemble("c0 movi r9 = -42");
  EXPECT_EQ(p.insn(0).bundle(0)[0], ops::movi(0, 9, -42));
}

TEST(Assembler, LoadsAndStores) {
  const Program p = assemble(
      "c0 ldw r1 = 8[r2]\n"
      "c1 stw 4[r3] = r4\n"
      "c0 ldbu r5 = 0[r6]");
  EXPECT_EQ(p.insn(0).bundle(0)[0], ops::load(Opcode::kLdw, 0, 1, 2, 8));
  EXPECT_EQ(p.insn(1).bundle(1)[0], ops::store(Opcode::kStw, 1, 3, 4, 4));
  EXPECT_EQ(p.insn(2).bundle(0)[0], ops::load(Opcode::kLdbu, 0, 5, 6, 0));
}

TEST(Assembler, CompareToBreg) {
  const Program p = assemble("c0 cmplt b1 = r2, 100");
  EXPECT_EQ(p.insn(0).bundle(0)[0],
            ops::cmpi_breg(Opcode::kCmplt, 0, 1, 2, 100));
}

TEST(Assembler, Slct) {
  const Program p = assemble("c0 slct r1 = b2, r3, r4");
  EXPECT_EQ(p.insn(0).bundle(0)[0], ops::slct(0, 1, 2, 3, 4));
}

TEST(Assembler, LabelsAndBranches) {
  const Program p = assemble(
      "top:\n"
      "  c0 add r1 = r1, 1\n"
      "  c0 cmplt b0 = r1, 10\n"
      "  nop\n"
      "  c0 br b0, top\n"
      "  c0 halt\n");
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p.insn(3).bundle(0)[0].imm, 0);  // top = instruction 0
  EXPECT_EQ(p.insn(3).bundle(0)[0].opc, Opcode::kBr);
}

TEST(Assembler, ForwardLabel) {
  const Program p = assemble(
      "  c0 goto done\n"
      "  c0 add r1 = r1, 1\n"
      "done:\n"
      "  c0 halt\n");
  EXPECT_EQ(p.insn(0).bundle(0)[0].imm, 2);
}

TEST(Assembler, NumericBranchTarget) {
  const Program p = assemble("c0 brf b3, @7\nnop\nnop\nnop\nnop\nnop\nnop\nnop");
  EXPECT_EQ(p.insn(0).bundle(0)[0], ops::brf(0, 3, 7));
}

TEST(Assembler, SendRecv) {
  const Program p = assemble("c0 send ch2 = r5 ; c1 recv r7 = ch2");
  EXPECT_EQ(p.insn(0).bundle(0)[0], ops::send(0, 5, 2));
  EXPECT_EQ(p.insn(0).bundle(1)[0], ops::recv(1, 7, 2));
}

TEST(Assembler, CommentsAndBlankLines) {
  const Program p = assemble(
      "# full line comment\n"
      "\n"
      "c0 add r1 = r2, r3  # trailing comment\n"
      ";; another comment style\n"
      "nop\n");
  EXPECT_EQ(p.size(), 2u);
}

TEST(Assembler, NopLine) {
  const Program p = assemble("nop");
  EXPECT_TRUE(p.insn(0).empty());
}

TEST(Assembler, Errors) {
  EXPECT_THROW(assemble("c0 frobnicate r1 = r2"), CheckError);   // bad opcode
  EXPECT_THROW(assemble("add r1 = r2, r3"), CheckError);         // no cluster
  EXPECT_THROW(assemble("c0 br b0, nowhere"), CheckError);       // bad label
  EXPECT_THROW(assemble("c0 add r1 = r2, r3 extra"), CheckError);
  EXPECT_THROW(assemble("c0 add b1 = r2, r3"), CheckError);  // alu to breg
  EXPECT_THROW(assemble("dup:\ndup:\nnop"), CheckError);     // duplicate label
}

// Rejects `source` with a CheckError that names `line`.
void expect_rejected(const std::string& source, int line) {
  try {
    (void)assemble(source);
    ADD_FAILURE() << "assembled: " << source;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line) +
                                         ":"),
              std::string::npos)
        << e.what();
  }
}

// Operands are range-checked, never narrowed: narrowing would read r300 as
// r44, r256 as r0, b260 as b4, ch259 as ch3, 0x100000005 as 5 and c1x as c1,
// and an overlong index must not escape as std::out_of_range.
TEST(Assembler, RejectsGpr300) {
  expect_rejected("c0 movi r1 = 1\nc0 add r1 = r300, r2\n", 2);
}

TEST(Assembler, RejectsGpr256) {
  expect_rejected("c0 add r256 = r1, r2\n", 1);
  expect_rejected("c0 stw 0[r1] = r99999999999\n", 1);
}

TEST(Assembler, RejectsGprPastTheRegisterFile) {
  expect_rejected("c3 add r1 = r200, r2\nc3 add r4 = r1, r1\nc0 halt\n", 1);
  expect_rejected("c0 add r1 = r2, r64\n", 1);
}

TEST(Assembler, RejectsBreg260) {
  expect_rejected("c0 cmplt b260 = r1, r2\n", 1);
  expect_rejected("nop\nc0 br b8, @0\n", 2);
}

TEST(Assembler, RejectsChannel259) {
  expect_rejected("c0 send ch259 = r1 ; c1 recv r2 = ch259\n", 1);
  expect_rejected("c1 recv r2 = ch8\n", 1);
  expect_rejected("c0 send chx = r1\n", 1);
}

TEST(Assembler, RejectsImmediateWiderThan32Bits) {
  expect_rejected("c0 movi r1 = 0x100000005\n", 1);
  expect_rejected("c0 movi r1 = -2147483649\n", 1);
  expect_rejected("c0 ldw r1 = 4294967296[r2]\n", 1);
}

TEST(Assembler, AcceptsEither32BitReadingOfAnImmediate) {
  EXPECT_EQ(assemble("c0 movi r1 = 0xFFFFFFFF").insn(0).bundle(0)[0].imm, -1);
  EXPECT_EQ(assemble("c0 movi r1 = -2147483648").insn(0).bundle(0)[0].imm,
            std::numeric_limits<std::int32_t>::min());
}

TEST(Assembler, RejectsClusterPrefixWithTrailingCharacters) {
  expect_rejected("c1x add r1 = r2, r3\n", 1);
}

TEST(Assembler, RejectsOverlongClusterPrefix) {
  expect_rejected("nop\nnop\nc99999999999 add r1 = r2, r3\n", 3);
  expect_rejected("c8 add r1 = r2, r3\n", 1);
}

TEST(Assembler, RoundTripWithDisassembler) {
  const char* source =
      "  c0 add r1 = r2, r3 ; c1 ldw r4 = 8[r5]\n"
      "  c0 cmplt b0 = r1, 10\n"
      "  nop\n"
      "  c2 stw 0[r6] = r7 ; c0 send ch0 = r1 ; c3 recv r2 = ch0\n"
      "  c0 br b0, @0\n"
      "  c0 halt\n";
  const Program p1 = assemble(source);
  const Program p2 = assemble(to_string(p1));
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i)
    EXPECT_TRUE(test::same_insn(p1.insn(i), p2.insn(i))) << "instruction " << i;
}

TEST(Assembler, ProgramIsFinalized) {
  const Program p = assemble("c0 halt");
  EXPECT_TRUE(p.finalized());
}

}  // namespace
}  // namespace vexsim
