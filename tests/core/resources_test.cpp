#include "isa/resources.hpp"

#include <gtest/gtest.h>

namespace vexsim {
namespace {

ClusterResourceConfig paper_cluster() {
  return ClusterResourceConfig{};  // 4 slots, 4 ALU, 2 MUL, 1 LS, 1 BR
}

TEST(Resources, AddClassifiesOps) {
  ResourceUse use;
  use.add(ops::alu(Opcode::kAdd, 0, 1, 2, 3));
  use.add(ops::mpyl(0, 4, 5, 6));
  use.add(ops::load(Opcode::kLdw, 0, 7, 8, 0));
  use.add(ops::br(0, 0, 0));
  use.add(ops::send(0, 1, 0));
  EXPECT_EQ(use.slots(), 5);
  EXPECT_EQ(use.alu(), 1);
  EXPECT_EQ(use.mul(), 1);
  EXPECT_EQ(use.mem(), 1);
  EXPECT_EQ(use.br(), 1);
}

TEST(Resources, FitsWithSlots) {
  ResourceUse used;
  for (int i = 0; i < 3; ++i) used.add(ops::alu(Opcode::kAdd, 0, 1, 2, 3));
  ResourceUse one;
  one.add(ops::alu(Opcode::kSub, 0, 1, 2, 3));
  EXPECT_TRUE(used.fits_with(one, paper_cluster(), 1));
  used.add(ops::alu(Opcode::kOr, 0, 1, 2, 3));
  EXPECT_FALSE(used.fits_with(one, paper_cluster(), 1));  // 5th slot
}

TEST(Resources, MulUnitLimit) {
  ResourceUse used;
  used.add(ops::mpyl(0, 1, 2, 3));
  used.add(ops::mpyl(0, 4, 5, 6));
  ResourceUse mul;
  mul.add(ops::mpyl(0, 7, 8, 9));
  EXPECT_FALSE(used.fits_with(mul, paper_cluster(), 1));  // 3rd multiplier
  ResourceUse alu;
  alu.add(ops::alu(Opcode::kAdd, 0, 1, 2, 3));
  EXPECT_TRUE(used.fits_with(alu, paper_cluster(), 1));
}

TEST(Resources, MemUnitLimit) {
  ResourceUse used;
  used.add(ops::load(Opcode::kLdw, 0, 1, 2, 0));
  ResourceUse st;
  st.add(ops::store(Opcode::kStw, 0, 3, 0, 4));
  EXPECT_FALSE(used.fits_with(st, paper_cluster(), 1));  // 1 LS unit
}

TEST(Resources, BranchUnitLimit) {
  ResourceUse used;
  used.add(ops::br(0, 0, 0));
  ResourceUse br;
  br.add(ops::jump(0, 0));
  EXPECT_FALSE(used.fits_with(br, paper_cluster(), 1));
  EXPECT_TRUE(used.fits_with(ResourceUse{}, paper_cluster(), 1));
  // A cluster without a branch unit rejects any branch.
  ResourceUse empty;
  EXPECT_FALSE(empty.fits_with(br, paper_cluster(), 0));
}

TEST(Resources, CommOpsOnlyUseSlots) {
  ResourceUse use;
  use.add(ops::send(0, 1, 0));
  use.add(ops::recv(0, 2, 0));
  EXPECT_EQ(use.slots(), 2);
  EXPECT_EQ(use.alu() + use.mul() + use.mem() + use.br(), 0);
}

TEST(Resources, BundleUseMask) {
  Bundle bundle;
  bundle.push_back(ops::alu(Opcode::kAdd, 0, 1, 2, 3));
  bundle.push_back(ops::mpyl(0, 4, 5, 6));
  bundle.push_back(ops::load(Opcode::kLdw, 0, 7, 8, 0));
  const ResourceUse all = bundle_use(bundle, 0b111);
  EXPECT_EQ(all.slots(), 3);
  const ResourceUse first_two = bundle_use(bundle, 0b011);
  EXPECT_EQ(first_two.slots(), 2);
  EXPECT_EQ(first_two.mem(), 0);
  const ResourceUse none = bundle_use(bundle, 0);
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace vexsim
