#include "isa/program.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isa/encoding.hpp"
#include "util/check.hpp"

namespace vexsim {
namespace {

std::vector<VliwInstruction> two_instructions() {
  VliwInstruction a;
  a.add(ops::movi(0, 1, 100000));  // 16 bytes encoded
  VliwInstruction b;
  b.add(ops::halt(0));
  return {a, b};
}

Program finalized(std::vector<VliwInstruction> code) {
  Program prog;
  prog.name = "p";
  prog.finalize(std::move(code));
  return prog;
}

Program two_instruction_program() { return finalized(two_instructions()); }

TEST(Program, FinalizeComputesAddresses) {
  const Program prog = two_instruction_program();
  ASSERT_TRUE(prog.finalized());
  ASSERT_EQ(prog.size(), 2u);
  ASSERT_EQ(prog.instr_addr.size(), 2u);
  EXPECT_EQ(prog.instr_addr[0], prog.code_base);
  EXPECT_EQ(prog.instr_addr[1], prog.code_base + 16);
  EXPECT_EQ(prog.code_bytes, 24u);
}

TEST(Program, AddressesMatchEncoding) {
  const Program prog = two_instruction_program();
  std::uint32_t total = 0;
  for (std::size_t pc = 0; pc < prog.size(); ++pc)
    total += encoded_size_bytes(prog.insn(pc));
  EXPECT_EQ(prog.code_bytes, total);
}

TEST(Program, UnfinalizedProgramHasNoCode) {
  const Program prog;
  EXPECT_FALSE(prog.finalized());
  EXPECT_EQ(prog.size(), 0u);
}

TEST(Program, DataWords) {
  Program prog = two_instruction_program();
  prog.add_data_words(0x2000, {0x11223344u, 0xAABBCCDDu});
  ASSERT_EQ(prog.data.size(), 1u);
  EXPECT_EQ(prog.data[0].addr, 0x2000u);
  ASSERT_EQ(prog.data[0].bytes().size(), 8u);
  EXPECT_EQ(prog.data[0].bytes()[0], 0x44);  // little endian
  EXPECT_EQ(prog.data[0].bytes()[7], 0xAA);
}

TEST(Program, ValidateAcceptsGoodProgram) {
  Program prog = two_instruction_program();
  EXPECT_NO_THROW(prog.validate(4));
}

TEST(Program, ValidateRejectsBadCluster) {
  std::vector<VliwInstruction> code = two_instructions();
  code[0].add(ops::mov(3, 1, 2));
  const Program prog = finalized(std::move(code));
  EXPECT_THROW(prog.validate(2), CheckError);
  EXPECT_NO_THROW(prog.validate(4));
}

TEST(Program, ValidateRejectsBadBranchTarget) {
  std::vector<VliwInstruction> code = two_instructions();
  code[0].add(ops::br(0, 0, 99));
  EXPECT_THROW(finalized(std::move(code)).validate(4), CheckError);
}

// Every register an operation reads is range-checked, one test per operand
// role: the simulator indexes the register file and the pending-write masks
// with these fields unchecked.
void expect_rejected_read(const Operation& op, const char* what) {
  std::vector<VliwInstruction> code = two_instructions();
  code[0].add(op);
  try {
    finalized(std::move(code)).validate(4);
    ADD_FAILURE() << "validate accepted " << to_string(op);
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(Program, ValidateRejectsOutOfRangeSrc1) {
  expect_rejected_read(ops::alu(Opcode::kAdd, 3, 1, 200, 2), "bad src1");
}

TEST(Program, ValidateRejectsOutOfRangeSrc2Register) {
  expect_rejected_read(ops::alu(Opcode::kAdd, 0, 1, 2, kNumGprs), "bad src2");
}

TEST(Program, ValidateRejectsOutOfRangeStoreValue) {
  expect_rejected_read(ops::store(Opcode::kStw, 1, 2, 0x100, 255),
                       "bad store value");
}

TEST(Program, ValidateRejectsOutOfRangeStoreBase) {
  expect_rejected_read(ops::store(Opcode::kStw, 1, 64, 0x100, 2),
                       "bad src1");
}

TEST(Program, ValidateRejectsOutOfRangeSendSource) {
  expect_rejected_read(ops::send(2, 99, 0), "bad src1");
}

TEST(Program, ValidateIgnoresImmediateSrc2) {
  // An immediate operand b is not a register read, whatever src2 holds.
  Operation op = ops::alui(Opcode::kAdd, 0, 1, 2, 7);
  op.src2 = 200;
  std::vector<VliwInstruction> code = two_instructions();
  code[0].add(op);
  EXPECT_NO_THROW(finalized(std::move(code)).validate(4));
}

TEST(Program, ToStringIncludesLabels) {
  Program prog = two_instruction_program();
  prog.labels[1] = "done";
  const std::string text = to_string(prog);
  EXPECT_NE(text.find("done:"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

}  // namespace
}  // namespace vexsim
