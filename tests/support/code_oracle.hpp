// The builder instructions a program was finalized from, as the oracle for
// its flat op table.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "isa/program.hpp"
#include "isa/resources.hpp"

namespace vexsim::test {

// The table holds exactly each builder instruction's operations, in cluster
// then bundle order, and each bundle's offset, mask and whole use describe
// its slice.
inline void expect_table_matches_builder(
    const std::vector<VliwInstruction>& code, const Program& p) {
  ASSERT_TRUE(p.finalized()) << p.name;
  ASSERT_EQ(p.size(), code.size()) << p.name;
  const DecodedProgram& dp = *p.decoded;
  std::size_t next = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (int c = 0; c < kMaxClusters; ++c) {
      const Bundle& bundle = code[i].bundle(c);
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
    EXPECT_EQ(p.insn(i).op_count(), code[i].op_count()) << p.name << i;
  }
  EXPECT_EQ(next, dp.op_count()) << p.name;
}

}  // namespace vexsim::test
