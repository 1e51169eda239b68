// Figure 5 of the paper: operation-level merging with cluster-level (COSI)
// and operation-level (OOSI) split-issue on a 2-cluster, 3-issue-per-cluster
// machine, with rotating thread priority.
//
// Reconstructed instruction pairs with the figure's structure:
//   T0: Ins0 = c0:{add,sub}, c1:{ld}     Ins1 = c0:{st,shr}, c1:{and}
//   T1: Ins0 = c0:{mpy,shl}, c1:{add,xor} Ins1 = c1:{st,ld,xor}
//
// Verified behaviour (hand-scheduled, matching the paper's narrative):
//   - without split-issue (plain SMT) execution takes 4 cycles;
//   - with COSI or OOSI it takes 3 cycles;
//   - COSI cycle 0 issues T1's cluster-1 bundle alongside T0's Ins0 but
//     cannot split {mpy,shl}; OOSI additionally issues the mpy alone.
#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

using test::PacketShape;

const char* kT0 =
    "c0 add r1 = r2, r3 ; c0 sub r4 = r5, r6 ; c1 ldw r7 = 0x200[r0]\n"
    "c0 stw 0x200[r0] = r1 ; c0 shr r2 = r3, 2 ; c1 and r4 = r5, r6\n";

const char* kT1 =
    "c0 mpyl r1 = r2, r3 ; c0 shl r4 = r5, 1 ; "
    "c1 add r6 = r7, r8 ; c1 xor r2 = r3, r4\n"
    "c1 stw 0x200[r0] = r1 ; c1 ldw r5 = 0x300[r0] ; c1 xor r6 = r7, r8\n";

std::vector<PacketShape> run(Technique t) {
  const MachineConfig cfg = test::example_machine(2, 3, 2, t);
  Simulator sim(cfg);
  // Contexts must outlive the trace; keep them static per call via locals.
  static thread_local std::unique_ptr<ThreadContext> c0, c1;
  c0 = std::make_unique<ThreadContext>(0, test::shared(assemble(kT0, "t0")));
  c1 = std::make_unique<ThreadContext>(1, test::shared(assemble(kT1, "t1")));
  sim.attach(0, c0.get());
  sim.attach(1, c1.get());
  return test::run_and_trace(sim);
}

TEST(Figure5, WithoutSplitIssueTakesFourCycles) {
  const auto trace = run(Technique::smt());
  ASSERT_EQ(trace.size(), 4u);
  // Each cycle carries exactly one thread's instruction.
  EXPECT_EQ(trace[0], (PacketShape{{{0, 0}, 2}, {{0, 1}, 1}}));
  EXPECT_EQ(trace[1], (PacketShape{{{1, 0}, 2}, {{1, 1}, 2}}));
  EXPECT_EQ(trace[2], (PacketShape{{{0, 0}, 2}, {{0, 1}, 1}}));
  EXPECT_EQ(trace[3], (PacketShape{{{1, 1}, 3}}));
}

TEST(Figure5, CosiTakesThreeCycles) {
  const auto trace = run(Technique::cosi(CommPolicy::kNoSplit));
  ASSERT_EQ(trace.size(), 3u);
  // Cycle 0: T0's whole Ins0 + T1's cluster-1 bundle (cluster-0 bundle
  // {mpy,shl} cannot split and does not fit).
  EXPECT_EQ(trace[0],
            (PacketShape{{{0, 0}, 2}, {{0, 1}, 1}, {{1, 1}, 2}}));
  // Cycle 1: T1 has priority — remaining {mpy,shl}; T0 starts Ins1 but only
  // its cluster-1 bundle fits.
  EXPECT_EQ(trace[1], (PacketShape{{{1, 0}, 2}, {{0, 1}, 1}}));
  // Cycle 2: T0 finishes Ins1 on cluster 0; T1's Ins1 merges on cluster 1.
  EXPECT_EQ(trace[2], (PacketShape{{{0, 0}, 2}, {{1, 1}, 3}}));
}

TEST(Figure5, OosiTakesThreeCycles) {
  const auto trace = run(Technique::oosi(CommPolicy::kNoSplit));
  ASSERT_EQ(trace.size(), 3u);
  // Cycle 0: as COSI, plus T1's mpy squeezes into cluster 0's third slot.
  EXPECT_EQ(trace[0],
            (PacketShape{{{0, 0}, 2}, {{0, 1}, 1}, {{1, 0}, 1}, {{1, 1}, 2}}));
  // Cycle 1: T1 issues the remaining shl; T0's whole Ins1 fits around it.
  EXPECT_EQ(trace[1],
            (PacketShape{{{1, 0}, 1}, {{0, 0}, 2}, {{0, 1}, 1}}));
  // Cycle 2: T1's Ins1.
  EXPECT_EQ(trace[2], (PacketShape{{{1, 1}, 3}}));
}

TEST(Figure5, SplitInstructionsAreCounted) {
  const MachineConfig cfg =
      test::example_machine(2, 3, 2, Technique::cosi(CommPolicy::kNoSplit));
  Simulator sim(cfg);
  ThreadContext c0(0, test::shared(assemble(kT0, "t0")));
  ThreadContext c1(1, test::shared(assemble(kT1, "t1")));
  sim.attach(0, &c0);
  sim.attach(1, &c1);
  test::run_and_trace(sim);
  // T1's Ins0 split (c1 at cycle 0, c0 at cycle 1); T0's Ins1 split too.
  EXPECT_EQ(sim.stats().split_instructions, 2u);
  EXPECT_EQ(c1.counters.split_instructions, 1u);
  EXPECT_EQ(c0.counters.split_instructions, 1u);
}

TEST(Figure5, OosiNeverWorseThanCosiHere) {
  const auto cosi = run(Technique::cosi(CommPolicy::kNoSplit));
  const auto oosi = run(Technique::oosi(CommPolicy::kNoSplit));
  EXPECT_LE(oosi.size(), cosi.size());
}

}  // namespace
}  // namespace vexsim
