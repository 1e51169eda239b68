#include "isa/program.hpp"

#include <gtest/gtest.h>

#include "isa/encoding.hpp"
#include "util/check.hpp"

namespace vexsim {
namespace {

Program two_instruction_program() {
  Program prog;
  prog.name = "p";
  VliwInstruction a;
  a.add(ops::movi(0, 1, 100000));  // 16 bytes encoded
  prog.code.push_back(a);
  VliwInstruction b;
  b.add(ops::halt(0));
  prog.code.push_back(b);
  return prog;
}

TEST(Program, FinalizeComputesAddresses) {
  Program prog = two_instruction_program();
  prog.finalize();
  ASSERT_TRUE(prog.finalized());
  ASSERT_EQ(prog.instr_addr.size(), 2u);
  EXPECT_EQ(prog.instr_addr[0], prog.code_base);
  EXPECT_EQ(prog.instr_addr[1], prog.code_base + 16);
  EXPECT_EQ(prog.code_bytes, 24u);
}

TEST(Program, AddressesMatchEncoding) {
  Program prog = two_instruction_program();
  prog.finalize();
  std::uint32_t total = 0;
  for (const auto& insn : prog.code) total += encoded_size_bytes(insn);
  EXPECT_EQ(prog.code_bytes, total);
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
  Program prog = two_instruction_program();
  prog.code[0].add(ops::mov(3, 1, 2));
  EXPECT_THROW(prog.validate(2), CheckError);
  EXPECT_NO_THROW(prog.validate(4));
}

TEST(Program, ValidateRejectsBadBranchTarget) {
  Program prog = two_instruction_program();
  prog.code[0].add(ops::br(0, 0, 99));
  EXPECT_THROW(prog.validate(4), CheckError);
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
