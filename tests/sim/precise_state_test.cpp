// Precise-state guarantees at the two context boundaries the refactor must
// not disturb: detach() (a drained thread's in-flight NUAL writes are
// architecturally committed so the context can be rescheduled) and
// rollback_fault() (split-issued parts only ever wrote the delay buffers, so
// a fault restores the pre-instruction boundary).
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "support/test_util.hpp"
#include "util/check.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

TEST(PreciseState, DetachCommitsPendingNualWrites) {
  // mpyl has latency 2: the instruction completes at issue+1 while its
  // result is still in flight. Draining right after leaves a pending write
  // that detach() must commit for the switched-out state to be precise.
  MachineConfig cfg = test::example_machine(2, 4, 1, Technique::smt());
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(
                           "c0 movi r1 = 6\n"
                           "c0 mpyl r2 = r1, r1\n"
                           "c0 add r3 = r1, r1\n"
                           "c0 halt\n",
                           "p")));
  sim.attach(0, &ctx);
  sim.step();  // movi issues
  sim.step();  // mpyl issues (result visible 2 cycles later)
  sim.set_drain(true);
  sim.step();  // mpyl completes; drain blocks the next refill
  ASSERT_TRUE(sim.quiesced());
  EXPECT_FALSE(ctx.pending_writes.empty());  // r2 still in its window
  EXPECT_EQ(ctx.regs.gpr(0, 2), 0u);

  ThreadContext* out = sim.detach(0);
  ASSERT_EQ(out, &ctx);
  EXPECT_TRUE(ctx.pending_writes.empty());
  EXPECT_EQ(ctx.regs.gpr(0, 2), 36u);  // committed by detach
  EXPECT_EQ(ctx.state, RunState::kReady);

  // The context reattaches and runs to completion as if never interrupted.
  sim.set_drain(false);
  sim.attach(0, &ctx);
  EXPECT_TRUE(sim.run_to_halt(100));
  EXPECT_EQ(ctx.state, RunState::kHalted);
  EXPECT_EQ(ctx.regs.gpr(0, 3), 12u);
}

TEST(PreciseState, DetachRefusesInFlightInstruction) {
  MachineConfig cfg = test::example_machine(2, 4, 1, Technique::smt());
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(
                           "c0 movi r1 = 1\n"
                           "c0 halt\n",
                           "p")));
  sim.attach(0, &ctx);
  sim.step();  // movi fully issues but let's force an active issue state
  ctx.issue.active = true;  // simulate a partially issued instruction
  EXPECT_THROW((void)sim.detach(0), CheckError);
  // The failed detach already freed the slot; a drained context detaches.
  ctx.issue.active = false;
  sim.attach(0, &ctx);
  EXPECT_EQ(sim.detach(0), &ctx);
}

TEST(PreciseState, DetachedContextFingerprintMatchesUninterruptedRun) {
  // Drive the same program (a) straight to halt and (b) with a drain +
  // detach + reattach in the middle; the final architectural fingerprint
  // must be identical.
  const char* src =
      "c0 movi r1 = 5\n"
      "c0 mpyl r2 = r1, r1\n"
      "c0 stw 0x300[r0] = r1\n"
      "c0 add r3 = r2, r1\n"
      "c0 halt\n";
  MachineConfig cfg = test::example_machine(2, 4, 1, Technique::smt());

  Simulator a(cfg);
  ThreadContext plain(0, test::shared(assemble(src, "p")));
  a.attach(0, &plain);
  ASSERT_TRUE(a.run_to_halt(100));

  Simulator b(cfg);
  ThreadContext interrupted(0, test::shared(assemble(src, "p")));
  b.attach(0, &interrupted);
  b.step();
  b.step();
  b.set_drain(true);
  b.step();
  ASSERT_TRUE(b.quiesced());
  b.detach(0);
  b.set_drain(false);
  b.attach(0, &interrupted);
  ASSERT_TRUE(b.run_to_halt(100));

  EXPECT_EQ(plain.arch_fingerprint(cfg.clusters),
            interrupted.arch_fingerprint(cfg.clusters));
}

TEST(PreciseState, RollbackDiscardsDelayBuffersAndFaultingWrites) {
  // CCSI, 2 threads: T1 split-issues — the cluster-0 ALU result and store
  // land in the delay buffers — then the cluster-1 part faults. Everything
  // of the instruction must vanish; earlier instructions stay committed.
  MachineConfig cfg =
      test::example_machine(2, 3, 2, Technique::ccsi(CommPolicy::kNoSplit));
  Simulator sim(cfg);
  const char* t0_src =
      "c1 add r1 = r2, r3 ; c1 or r4 = r5, r6\n"
      "c1 xor r7 = r8, r9 ; c1 and r2 = r3, r4\n"
      "c0 halt\n";
  const char* t1_src =
      "c0 add r7 = r2, r2 ; c0 stw 0x400[r0] = r2 ; c1 ldw r5 = 0x10[r0]\n"
      "c0 halt\n";
  ThreadContext t0(0, test::shared(assemble(t0_src, "t0")));
  ThreadContext t1(1, test::shared(assemble(t1_src, "t1")));
  t1.regs.set_gpr(0, 2, 11);
  sim.attach(0, &t0);
  sim.attach(1, &t1);
  sim.run_to_halt(100);

  EXPECT_EQ(t1.state, RunState::kFaulted);
  EXPECT_EQ(t1.fault.pc, 0u);
  EXPECT_EQ(t1.pc, 0u);
  EXPECT_EQ(t1.regs.gpr(0, 2), 11u);      // pre-instruction value intact
  EXPECT_EQ(t1.regs.gpr(0, 7), 0u);       // split add result discarded
  EXPECT_EQ(t1.mem.peek_u32(0x400), 0u);  // buffered store discarded
  EXPECT_TRUE(t1.rf_buffer.empty());
  EXPECT_TRUE(t1.store_buffer.empty());
  EXPECT_TRUE(t1.pending_writes.empty());
  EXPECT_FALSE(t1.issue.active);
}

TEST(PreciseState, RollbackCommitsEarlierInFlightWrites) {
  // The instruction before the faulting one produced a latency-2 result
  // that is still in flight at the fault: rollback must commit it (it is
  // architecturally determined) while discarding the faulter's own writes.
  MachineConfig cfg = test::example_machine(2, 4, 1, Technique::smt());
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(
                           "c0 movi r1 = 7\n"
                           "c0 mpyl r2 = r1, r1\n"
                           "c0 ldw r3 = 0x10[r0]\n"  // guard page → fault
                           "c0 halt\n",
                           "p")));
  sim.attach(0, &ctx);
  sim.run_to_halt(100);
  EXPECT_EQ(ctx.state, RunState::kFaulted);
  EXPECT_EQ(ctx.regs.gpr(0, 2), 49u);  // in-flight mpyl result committed
  EXPECT_EQ(ctx.regs.gpr(0, 3), 0u);   // faulting load suppressed
  EXPECT_TRUE(ctx.pending_writes.empty());
}

TEST(PreciseState, FaultedContextCanRespawn) {
  MachineConfig cfg = test::example_machine(2, 4, 1, Technique::smt());
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(
                           "c0 movi r1 = 3\n"
                           "c0 halt\n",
                           "p")));
  ctx.state = RunState::kFaulted;  // as left by a rollback
  ctx.respawn();
  EXPECT_EQ(ctx.state, RunState::kReady);
  sim.attach(0, &ctx);
  EXPECT_TRUE(sim.run_to_halt(50));
  EXPECT_EQ(ctx.regs.gpr(0, 1), 3u);
}

}  // namespace
}  // namespace vexsim
