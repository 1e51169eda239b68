// Thread priority rotation (Section VI-A): "A different priority is
// assigned to each selected thread in a round robin way every cycle."
#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

// Both threads always want the full cluster 0: only the priority thread
// issues each cycle, so the issue pattern exposes the rotation.
const char* conflicting_program(int n) {
  static std::string text;
  text.clear();
  for (int i = 0; i < n; ++i)
    text += "c0 add r1 = r2, r3 ; c0 sub r4 = r5, r6 ; c0 or r7 = r8, r9\n";
  return text.c_str();
}

TEST(Priority, AlternatesBetweenTwoConflictingThreads) {
  const MachineConfig cfg = test::example_machine(1, 3, 2, Technique::csmt());
  Simulator sim(cfg);
  ThreadContext c0(0, test::shared(assemble(conflicting_program(4), "t0")));
  ThreadContext c1(1, test::shared(assemble(conflicting_program(4), "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  std::vector<int> winner;
  for (int i = 0; i < 8; ++i) {
    sim.step();
    ASSERT_EQ(sim.last_packet().op_count(), 3);
    winner.push_back(sim.last_packet().ops[0].hw_slot);
  }
  EXPECT_EQ(winner, (std::vector<int>{0, 1, 0, 1, 0, 1, 0, 1}));
}

TEST(Priority, FairShareOverFourThreads) {
  const MachineConfig cfg = test::example_machine(1, 3, 4, Technique::csmt());
  Simulator sim(cfg);
  std::vector<std::unique_ptr<ThreadContext>> ctxs;
  for (int i = 0; i < 4; ++i) {
    ctxs.push_back(std::make_unique<ThreadContext>(
        i, test::shared(assemble(conflicting_program(8), "t"))));
    sim.attach(i, ctxs.back().get());
  }
  std::array<int, 4> issued{};
  for (int i = 0; i < 16; ++i) {
    sim.step();
    if (sim.last_packet().op_count() > 0)
      ++issued[static_cast<std::size_t>(sim.last_packet().ops[0].hw_slot)];
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(issued[static_cast<std::size_t>(i)], 4);
}

TEST(Priority, TopThreadAlwaysIssuesInFull) {
  // "Thread T0 is always selected in its entirety because it is the highest
  // priority thread" — whichever thread holds top priority that cycle.
  const MachineConfig cfg =
      test::example_machine(2, 3, 2, Technique::ccsi(CommPolicy::kAlwaysSplit));
  Simulator sim(cfg);
  const char* wide =
      "c0 add r1 = r2, r3 ; c0 sub r4 = r5, r6 ; "
      "c1 or r1 = r2, r3 ; c1 xor r4 = r5, r6\n";
  ThreadContext c0(0, test::shared(assemble(wide, "t0")));
  ThreadContext c1(1, test::shared(assemble(wide, "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  sim.step();
  // Cycle 1: T0 has priority and issues all 4 ops.
  int t0_ops = 0;
  for (const SelectedOp& sel : sim.last_packet().ops)
    if (sel.hw_slot == 0) ++t0_ops;
  EXPECT_EQ(t0_ops, 4);
  EXPECT_EQ(c0.counters.instructions, 1u);
}

TEST(Priority, LowerPriorityGetsLeftovers) {
  const MachineConfig cfg = test::example_machine(2, 3, 2, Technique::smt());
  Simulator sim(cfg);
  const char* narrow = "c0 add r1 = r2, r3\n";
  const char* narrow2 = "c0 sub r4 = r5, r6\n";
  ThreadContext c0(0, test::shared(assemble(narrow, "t0")));
  ThreadContext c1(1, test::shared(assemble(narrow2, "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  sim.step();
  EXPECT_EQ(sim.last_packet().op_count(), 2);  // both merged in one cycle
  EXPECT_EQ(sim.stats().multi_thread_cycles, 1u);
}

}  // namespace
}  // namespace vexsim
