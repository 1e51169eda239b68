// Operation-level split-issue (OOSI) specifics: per-operation merging into
// free FU slots, the amalgamated-instruction in-order constraint, and FU
// class limits.
#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

TEST(Oosi, SingleOperationSqueezesIntoFreeSlot) {
  // T0 leaves one slot free on cluster 0; OOSI places one of T1's two ops
  // there, COSI cannot (bundle is all-or-nothing).
  const char* t0 = "c0 add r1 = r2, r3 ; c0 sub r4 = r5, r6\n";
  const char* t1 = "c0 or r1 = r2, r3 ; c0 xor r4 = r5, r6\n";
  for (auto [tech, expect_t1_first_cycle] :
       {std::pair{Technique::oosi(CommPolicy::kNoSplit), 1},
        std::pair{Technique::cosi(CommPolicy::kNoSplit), 0}}) {
    const MachineConfig cfg = test::example_machine(2, 3, 2, tech);
    Simulator sim(cfg);
    ThreadContext c0(0, test::shared(assemble(t0, "t0")));
    ThreadContext c1(1, test::shared(assemble(t1, "t1")));
    sim.attach(0, &c0);
    sim.attach(1, &c1);
    sim.step();
    int t1_ops = 0;
    for (const SelectedOp& sel : sim.last_packet().ops)
      if (sel.hw_slot == 1) ++t1_ops;
    EXPECT_EQ(t1_ops, expect_t1_first_cycle) << tech.name();
  }
}

TEST(Oosi, InOrderAcrossInstructions) {
  // T1's second instruction must not issue any op until the first is fully
  // issued, even when slots are free for it.
  const char* t0 = "c0 add r1 = r2, r3 ; c0 sub r4 = r5, r6\n";
  const char* t1 =
      "c0 or r1 = r2, r3 ; c0 xor r4 = r5, r6\n"
      "c1 and r7 = r8, r9\n";  // cluster 1 is totally free in cycle 1
  const MachineConfig cfg =
      test::example_machine(2, 3, 2, Technique::oosi(CommPolicy::kNoSplit));
  Simulator sim(cfg);
  ThreadContext c0(0, test::shared(assemble(t0, "t0")));
  ThreadContext c1(1, test::shared(assemble(t1, "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  sim.step();
  // Cycle 1: T1 issued exactly one op (into c0's third slot), and nothing
  // from its second instruction despite cluster 1 being free.
  for (const SelectedOp& sel : sim.last_packet().ops) {
    if (sel.hw_slot == 1) {
      EXPECT_EQ(sel.physical_cluster, 0);
    }
  }
  EXPECT_EQ(c1.counters.instructions, 0u);
  sim.step();  // T1 priority: finishes instruction 0
  EXPECT_EQ(c1.counters.instructions, 1u);
}

TEST(Oosi, FuClassLimitsRespectedPerOperation) {
  // Cluster has 2 multipliers. T0 uses both; T1's mpy must wait but its alu
  // op may go.
  MachineConfig cfg =
      test::example_machine(1, 4, 2, Technique::oosi(CommPolicy::kNoSplit));
  cfg.cluster.muls = 2;
  Simulator sim(cfg);
  const char* t0 = "c0 mpyl r1 = r2, r3 ; c0 mpyl r4 = r5, r6\n";
  const char* t1 = "c0 mpyl r1 = r2, r3 ; c0 add r4 = r5, r6\n";
  ThreadContext c0(0, test::shared(assemble(t0, "t0")));
  ThreadContext c1(1, test::shared(assemble(t1, "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  sim.step();
  int t1_mul = 0, t1_alu = 0;
  for (const SelectedOp& sel : sim.last_packet().ops) {
    if (sel.hw_slot != 1) continue;
    (sel.dec->op.cls() == OpClass::kMul ? t1_mul : t1_alu)++;
  }
  EXPECT_EQ(t1_mul, 0);
  EXPECT_EQ(t1_alu, 1);
}

TEST(Oosi, SplitPartsBufferUntilLastPart) {
  // T1's first op issues a cycle before its instruction completes: its
  // result must not be architecturally visible until the last part.
  MachineConfig cfg =
      test::example_machine(1, 3, 2, Technique::oosi(CommPolicy::kNoSplit));
  Simulator sim(cfg);
  const char* t0 = "c0 add r1 = r2, r3 ; c0 sub r4 = r5, r6\n";
  const char* t1 = "c0 movi r1 = 42 ; c0 movi r2 = 43\n";
  ThreadContext c0(0, test::shared(assemble(t0, "t0")));
  ThreadContext c1(1, test::shared(assemble(t1, "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  sim.step();  // T1 issues exactly one movi (3rd slot)
  EXPECT_EQ(c1.counters.instructions, 0u);
  sim.step();  // completes; commit happens via the delay buffer
  EXPECT_EQ(c1.counters.instructions, 1u);
  sim.step();  // drain pending writes
  EXPECT_EQ(c1.regs.gpr(0, 1), 42u);
  EXPECT_EQ(c1.regs.gpr(0, 2), 43u);
  EXPECT_GE(c1.counters.split_instructions, 1u);
}

TEST(Oosi, RequiresOperationMerging) {
  MachineConfig cfg =
      test::example_machine(2, 3, 2, Technique::oosi(CommPolicy::kNoSplit));
  cfg.technique.merge = MergeLevel::kCluster;
  EXPECT_THROW(cfg.validate(), CheckError);
}

}  // namespace
}  // namespace vexsim
