// Figure 1 of the paper: instruction merging in SMT vs CSMT on a 4-cluster,
// 2-issue-per-cluster (8-issue) machine.
//
// The extracted figure is not bit-exact, so the three pairs below are
// reconstructed to have exactly the stated properties:
//   Pair I   — conflicts at clusters 0, 1 and 3 at both operation and
//              cluster level: neither SMT nor CSMT can merge;
//   Pair II  — no operation-level conflicts, but the threads share clusters
//              0, 2, 3: SMT merges, CSMT cannot;
//   Pair III — the threads use disjoint clusters ({1,2} vs {0,3}): both
//              merge, and the merged packet is identical for SMT and CSMT.
#include <gtest/gtest.h>

#include <set>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

using test::PacketShape;

struct Pair {
  const char* t0;
  const char* t1;
};

// Reconstructed pairs (see header comment).
const Pair kPairI = {
    "c0 add r1 = r2, r3 ; c1 ldw r4 = 0x200[r0] ; c1 sub r5 = r6, r7 ; "
    "c2 add r8 = r9, r1 ; c3 add r2 = r3, r4 ; c3 sub r5 = r6, r7",
    "c0 mpyl r1 = r2, r3 ; c0 add r4 = r5, r6 ; c1 mov r7 = r8 ; "
    "c3 stw 0x200[r0] = r1"};

const Pair kPairII = {
    "c0 add r1 = r2, r3 ; c2 sub r4 = r5, r6 ; c3 stw 0x200[r0] = r1",
    "c0 mpyl r1 = r2, r3 ; c2 ldw r4 = 0x200[r0] ; c3 mov r5 = r6"};

const Pair kPairIII = {
    "c1 shl r1 = r2, 3 ; c1 add r3 = r4, r5 ; c2 mov r6 = r7",
    "c0 shl r1 = r2, 1 ; c0 mov r3 = r4 ; c3 add r5 = r6, r7 ; "
    "c3 mpyl r8 = r9, r1"};

// Runs the pair for one cycle on the given technique and reports how many
// ops each thread issued in the first packet.
std::pair<int, int> first_cycle_ops(const Pair& pair, Technique t) {
  const MachineConfig cfg = test::example_machine(4, 2, 2, t);
  Simulator sim(cfg);
  ThreadContext ctx0(0, test::shared(assemble(pair.t0, "t0")));
  ThreadContext ctx1(1, test::shared(assemble(pair.t1, "t1")));
  sim.attach(0, &ctx0);
  sim.attach(1, &ctx1);
  sim.step();
  int t0 = 0, t1 = 0;
  for (const SelectedOp& sel : sim.last_packet().ops)
    (sel.hw_slot == 0 ? t0 : t1)++;
  return {t0, t1};
}

int op_count(const char* text) {
  return assemble(text).insn(0).op_count();
}

TEST(Figure1, PairI_NeitherMerges) {
  for (const Technique t : {Technique::smt(), Technique::csmt()}) {
    const auto [t0, t1] = first_cycle_ops(kPairI, t);
    EXPECT_EQ(t0, op_count(kPairI.t0)) << t.name();
    EXPECT_EQ(t1, 0) << t.name();
  }
}

TEST(Figure1, PairII_OnlySmtMerges) {
  const auto [s0, s1] = first_cycle_ops(kPairII, Technique::smt());
  EXPECT_EQ(s0, op_count(kPairII.t0));
  EXPECT_EQ(s1, op_count(kPairII.t1));  // merged

  const auto [c0, c1] = first_cycle_ops(kPairII, Technique::csmt());
  EXPECT_EQ(c0, op_count(kPairII.t0));
  EXPECT_EQ(c1, 0);  // cluster-level conflict at clusters 0, 2, 3
}

TEST(Figure1, PairIII_BothMerge) {
  for (const Technique t : {Technique::smt(), Technique::csmt()}) {
    const auto [t0, t1] = first_cycle_ops(kPairIII, t);
    EXPECT_EQ(t0, op_count(kPairIII.t0)) << t.name();
    EXPECT_EQ(t1, op_count(kPairIII.t1)) << t.name();
  }
}

TEST(Figure1, PairIII_MergedPacketIdenticalAcrossPolicies) {
  // "if both CSMT and SMT can merge a pair of instructions, the final
  // merged instruction is identical for both SMT and CSMT."
  using OpKey = std::tuple<int, int, int>;  // (thread, cluster, opcode)
  auto packet_keys = [](Technique t) {
    const MachineConfig cfg = test::example_machine(4, 2, 2, t);
    Simulator sim(cfg);
    ThreadContext ctx0(0, test::shared(assemble(kPairIII.t0, "t0")));
    ThreadContext ctx1(1, test::shared(assemble(kPairIII.t1, "t1")));
    sim.attach(0, &ctx0);
    sim.attach(1, &ctx1);
    sim.step();
    std::multiset<OpKey> keys;
    for (const SelectedOp& sel : sim.last_packet().ops)
      keys.insert({sel.hw_slot, sel.physical_cluster, int(sel.dec->op.opc)});
    return keys;
  };
  EXPECT_EQ(packet_keys(Technique::smt()), packet_keys(Technique::csmt()));
}

TEST(Figure1, PairI_SecondCycleIssuesThread1) {
  const MachineConfig cfg = test::example_machine(4, 2, 2, Technique::smt());
  Simulator sim(cfg);
  ThreadContext ctx0(0, test::shared(assemble(kPairI.t0, "t0")));
  ThreadContext ctx1(1, test::shared(assemble(kPairI.t1, "t1")));
  sim.attach(0, &ctx0);
  sim.attach(1, &ctx1);
  sim.step();
  sim.step();
  int t1 = 0;
  for (const SelectedOp& sel : sim.last_packet().ops)
    if (sel.hw_slot == 1) ++t1;
  EXPECT_EQ(t1, op_count(kPairI.t1));
}

}  // namespace
}  // namespace vexsim
