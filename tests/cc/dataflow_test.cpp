#include "cc/dataflow.hpp"

#include <gtest/gtest.h>

#include "isa/config.hpp"
#include "vasm/assembler.hpp"

namespace vexsim::cc {
namespace {

// --- Location index --------------------------------------------------------

TEST(Locations, DenseIndexRoundTrips) {
  const int g = gpr_loc(2, 17);
  EXPECT_FALSE(loc_is_breg(g));
  EXPECT_EQ(loc_cluster(g), 2);
  EXPECT_EQ(loc_reg(g), 17);
  EXPECT_EQ(loc_name(g), "c2:r17");

  const int b = breg_loc(3, 5);
  EXPECT_TRUE(loc_is_breg(b));
  EXPECT_EQ(loc_cluster(b), 3);
  EXPECT_EQ(loc_reg(b), 5);
  EXPECT_EQ(loc_name(b), "c3:b5");
}

TEST(Locations, SameRegisterOnDifferentClustersIsDistinct) {
  EXPECT_NE(gpr_loc(0, 5), gpr_loc(1, 5));
  EXPECT_NE(breg_loc(0, 0), breg_loc(1, 0));
  EXPECT_NE(gpr_loc(0, kNumGprs - 1), breg_loc(0, 0));
}

TEST(LocSet, SetAlgebra) {
  LocSet a;
  a.insert(gpr_loc(0, 1));
  a.insert(breg_loc(7, 7));
  EXPECT_TRUE(a.contains(gpr_loc(0, 1)));
  EXPECT_TRUE(a.contains(breg_loc(7, 7)));
  EXPECT_EQ(a.count(), 2);

  LocSet b;
  b.insert(gpr_loc(0, 1));
  EXPECT_FALSE(a.insert_all(b));  // subset: no change
  b.insert(gpr_loc(4, 40));
  EXPECT_TRUE(a.insert_all(b));
  EXPECT_EQ(a.count(), 3);

  a.subtract(b);
  EXPECT_EQ(a.count(), 1);
  EXPECT_TRUE(a.contains(breg_loc(7, 7)));

  a.intersect(b);
  EXPECT_TRUE(a.empty());
}

TEST(OperandWalkers, ReadsSkipHardwiredZeroAndImmediates) {
  const Program p = assemble(
      "c0 add r1 = r0, r2\n"   // r0 read skipped
      "c0 movi r3 = 7\n"       // no reads
      "c0 add r4 = r3, 5\n");  // immediate src2 skipped
  int reads = 0;
  p.insn(0).for_each_op([&](const Operation& op) {
    for_each_read(op, [&](int loc) {
      EXPECT_EQ(loc, gpr_loc(0, 2));
      ++reads;
    });
  });
  EXPECT_EQ(reads, 1);
  p.insn(2).for_each_op([&](const Operation& op) {
    for_each_read(op, [&](int loc) {
      EXPECT_EQ(loc, gpr_loc(0, 3));
      ++reads;
    });
  });
  EXPECT_EQ(reads, 2);
}

TEST(OperandWalkers, StoresReadBothOperandsAndWriteNothing) {
  const Program p = assemble("c0 stw 4[r2] = r3\n");
  int reads = 0;
  int writes = 0;
  p.insn(0).for_each_op([&](const Operation& op) {
    for_each_read(op, [&](int) { ++reads; });
    for_each_write(op, [&](int) { ++writes; });
  });
  EXPECT_EQ(reads, 2);  // base r2 and value r3
  EXPECT_EQ(writes, 0);
}

TEST(OperandWalkers, CompareWritesBregSlctReadsIt) {
  const Program p = assemble(
      "c1 cmplt b2 = r1, 100\n"
      "c1 slct r3 = b2, r4, r5\n");
  p.insn(0).for_each_op([&](const Operation& op) {
    for_each_write(op, [&](int loc) { EXPECT_EQ(loc, breg_loc(1, 2)); });
  });
  bool breg_read = false;
  p.insn(1).for_each_op([&](const Operation& op) {
    for_each_read(op, [&](int loc) { breg_read |= loc == breg_loc(1, 2); });
  });
  EXPECT_TRUE(breg_read);
}

// --- CFG -------------------------------------------------------------------

TEST(Cfg, StraightLineIsOneBlock) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 add r2 = r1, r1\n"
      "c0 halt\n");
  const Cfg cfg = Cfg::build(p);
  ASSERT_EQ(cfg.size(), 1u);
  EXPECT_EQ(cfg.blocks()[0].first, 0u);
  EXPECT_EQ(cfg.blocks()[0].end, 3u);
  EXPECT_TRUE(cfg.reachable(0));
}

TEST(Cfg, ConditionalBranchSplitsBlocksWithBothEdges) {
  const Program p = assemble(
      "c0 cmplt b0 = r1, 100\n"
      "c0 br b0, @3\n"    // block 0: [0,2) -> {1, 2}
      "c0 movi r2 = 1\n"  // block 1: fallthrough
      "c0 halt\n");       // block 2: branch target
  const Cfg cfg = Cfg::build(p);
  ASSERT_EQ(cfg.size(), 3u);
  const CfgBlock& entry = cfg.blocks()[static_cast<std::size_t>(
      cfg.block_of(0))];
  ASSERT_EQ(entry.succs.size(), 2u);
  EXPECT_NE(cfg.block_of(2), cfg.block_of(3));
  EXPECT_TRUE(cfg.reachable(cfg.block_of(3)));
}

TEST(Cfg, LoopBackEdgeAndPreds) {
  const Program p = assemble(
      "loop:\n"
      "c0 add r1 = r1, 1\n"
      "c0 cmplt b0 = r1, 10\n"
      "c0 br b0, loop\n"
      "c0 halt\n");
  const Cfg cfg = Cfg::build(p);
  const int body = cfg.block_of(0);
  const CfgBlock& block = cfg.blocks()[static_cast<std::size_t>(body)];
  // The loop body is its own predecessor through the back-edge.
  bool self_edge = false;
  for (const int s : block.succs) self_edge |= s == body;
  EXPECT_TRUE(self_edge);
}

TEST(Cfg, CodeAfterHaltIsUnreachable) {
  const Program p = assemble(
      "c0 halt\n"
      "c0 movi r1 = 1\n");
  const Cfg cfg = Cfg::build(p);
  EXPECT_TRUE(cfg.reachable(cfg.block_of(0)));
  EXPECT_FALSE(cfg.reachable(cfg.block_of(1)));
}

TEST(Cfg, OutOfRangeTargetContributesNoEdge) {
  // Malformed programs are the verifier's job to reject; the CFG must
  // still build without crashing and simply drop the impossible edge.
  Program p;
  p.name = "bad";
  VliwInstruction insn;
  insn.add(ops::jump(0, 99));
  p.finalize({insn});
  const Cfg cfg = Cfg::build(p);
  ASSERT_EQ(cfg.size(), 1u);
  EXPECT_TRUE(cfg.blocks()[0].succs.empty());
}

// --- Liveness --------------------------------------------------------------

TEST(Liveness, ValueLiveUntilLastUse) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 add r2 = r1, r1\n"
      "c0 stw 0x100[r0] = r2\n"
      "c0 halt\n");
  const Cfg cfg = Cfg::build(p);
  const Liveness live = solve_liveness(p, cfg);
  EXPECT_TRUE(live.live_out[0].contains(gpr_loc(0, 1)));
  EXPECT_TRUE(live.live_in[1].contains(gpr_loc(0, 1)));
  // Dead after its last read.
  EXPECT_FALSE(live.live_out[1].contains(gpr_loc(0, 1)));
  EXPECT_TRUE(live.live_in[2].contains(gpr_loc(0, 2)));
  EXPECT_TRUE(live.live_out[3].empty());
}

TEST(Liveness, LoopCarriedValueLiveAroundBackEdge) {
  const Program p = assemble(
      "c0 movi r1 = 0\n"
      "loop:\n"
      "c0 add r1 = r1, 1\n"
      "c0 cmplt b0 = r1, 10\n"
      "c0 br b0, loop\n"
      "c0 halt\n");
  const Cfg cfg = Cfg::build(p);
  const Liveness live = solve_liveness(p, cfg);
  // r1 is read again next iteration: live across the branch.
  EXPECT_TRUE(live.live_out[3].contains(gpr_loc(0, 1)));
  // b0 is consumed by the branch and not loop-carried.
  EXPECT_FALSE(live.live_out[3].contains(breg_loc(0, 0)));
}

TEST(Liveness, SameCycleReadObservesPreInstructionState) {
  // NUAL semantics: the add's read of r1 happens in live_in, so the movi
  // writing r1 in the same instruction does not satisfy it.
  const Program p = assemble(
      "c0 movi r1 = 9\n"
      "c0 movi r1 = 5 ; c0 add r2 = r1, r1\n"
      "c0 stw 0x100[r0] = r2\n"
      "c0 halt\n");
  const Cfg cfg = Cfg::build(p);
  const Liveness live = solve_liveness(p, cfg);
  EXPECT_TRUE(live.live_in[1].contains(gpr_loc(0, 1)));
  EXPECT_TRUE(live.live_out[0].contains(gpr_loc(0, 1)));
}

// --- Definitely-assigned ---------------------------------------------------

TEST(Assigned, EntryIsColdAndWritesAccumulate) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 add r2 = r1, r1\n"
      "c0 halt\n");
  const Cfg cfg = Cfg::build(p);
  const Assigned assigned = solve_definitely_assigned(p, cfg);
  EXPECT_FALSE(assigned.assigned_in[0].contains(gpr_loc(0, 1)));
  EXPECT_TRUE(assigned.assigned_in[1].contains(gpr_loc(0, 1)));
  EXPECT_TRUE(assigned.assigned_in[2].contains(gpr_loc(0, 2)));
}

TEST(Assigned, MergeKeepsOnlyCommonWrites) {
  const Program p = assemble(
      "c0 cmplt b0 = r1, 100\n"
      "c0 br b0, @4\n"
      "c0 movi r2 = 1\n"     // only on the fallthrough path
      "c0 movi r3 = 2\n"     // both paths write r3 ...
      "c0 movi r3 = 3\n"     // ... the join point
      "c0 halt\n");
  const Cfg cfg = Cfg::build(p);
  const Assigned assigned = solve_definitely_assigned(p, cfg);
  // At the join (instruction 4): r2 written on one path only, b0 on both.
  EXPECT_FALSE(assigned.assigned_in[4].contains(gpr_loc(0, 2)));
  EXPECT_TRUE(assigned.assigned_in[4].contains(breg_loc(0, 0)));
  EXPECT_TRUE(assigned.assigned_in[5].contains(gpr_loc(0, 3)));
}

// --- Reaching definitions --------------------------------------------------

TEST(ReachingDefs, BothBranchDefsReachTheJoin) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 cmplt b0 = r1, 100\n"
      "c0 br b0, @5\n"
      "c0 movi r2 = 10\n"  // def A of r2
      "c0 goto @6\n"
      "c0 movi r2 = 20\n"  // def B of r2
      "c0 stw 0x100[r0] = r2\n"
      "c0 halt\n");
  const Cfg cfg = Cfg::build(p);
  const ReachingDefs rd = solve_reaching_defs(p, cfg);
  const auto defs = rd.reaching(6, gpr_loc(0, 2));
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(rd.defs[defs[0]].instr, 3u);
  EXPECT_EQ(rd.defs[defs[1]].instr, 5u);
}

TEST(ReachingDefs, RedefinitionKillsEarlierDef) {
  const Program p = assemble(
      "c0 movi r1 = 1\n"
      "c0 movi r1 = 2\n"
      "c0 stw 0x100[r0] = r1\n"
      "c0 halt\n");
  const Cfg cfg = Cfg::build(p);
  const ReachingDefs rd = solve_reaching_defs(p, cfg);
  const auto defs = rd.reaching(2, gpr_loc(0, 1));
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(rd.defs[defs[0]].instr, 1u);
}

// --- Register pressure -----------------------------------------------------

TEST(Pressure, CountsSimultaneouslyLiveRegistersPerCluster) {
  const Program p = assemble(
      "c0 movi r1 = 1 ; c1 movi r10 = 5\n"
      "c0 movi r2 = 2\n"
      "c0 movi r3 = 3\n"
      "c0 add r4 = r1, r2 ; c1 add r11 = r10, r10\n"
      "c0 add r5 = r3, r4\n"
      "c0 stw 0x100[r0] = r5 ; c1 stw 0x104[r0] = r11\n"
      "c0 halt\n");
  const Cfg cfg = Cfg::build(p);
  const Liveness live = solve_liveness(p, cfg);
  const PressureResult pressure = register_pressure(p, live);
  // Before instruction 3, r1..r3 are all live on cluster 0.
  EXPECT_GE(pressure.max_gpr[0], 3);
  EXPECT_LE(pressure.max_gpr[0], 4);
  EXPECT_EQ(pressure.max_gpr[1], 1);
  EXPECT_EQ(pressure.max_gpr[2], 0);
}

}  // namespace
}  // namespace vexsim::cc
