// Precise exceptions under split-issue (Section V-B): split-issued parts
// write delay buffers, so a faulting part rolls back to the instruction
// boundary by discarding the buffers.
#include <gtest/gtest.h>

#include "sim/reference.hpp"
#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

TEST(Exception, LoadFaultHaltsPrecisely) {
  // Single thread: the faulting instruction contributes nothing; earlier
  // instructions are fully committed.
  MachineConfig cfg = test::example_machine(4, 4, 1, Technique::smt());
  Simulator sim(cfg);
  const char* prog =
      "c0 movi r1 = 5\n"
      "c0 ldw r2 = 0x10[r0]\n"  // guard page → fault
      "c0 movi r3 = 7\n"        // never executes
      "c0 halt\n";
  ThreadContext ctx(0, test::shared(assemble(prog, "p")));
  sim.attach(0, &ctx);
  sim.run_to_halt(100);
  EXPECT_EQ(ctx.state, RunState::kFaulted);
  EXPECT_EQ(ctx.fault.pc, 1u);
  EXPECT_EQ(ctx.pc, 1u);  // rolled back to the faulting instruction
  EXPECT_EQ(ctx.regs.gpr(0, 1), 5u);   // earlier write committed
  EXPECT_EQ(ctx.regs.gpr(0, 3), 0u);   // later write suppressed
  EXPECT_EQ(sim.stats().faults, 1u);
}

TEST(Exception, MisalignedStoreFaults) {
  MachineConfig cfg = test::example_machine(4, 4, 1, Technique::smt());
  Simulator sim(cfg);
  ThreadContext ctx(0, test::shared(assemble(
                           "c0 movi r1 = 0x201\n"
                           "c0 stw 0[r1] = r1\n"
                           "c0 halt\n",
                           "p")));
  sim.attach(0, &ctx);
  sim.run_to_halt(100);
  EXPECT_EQ(ctx.state, RunState::kFaulted);
  EXPECT_EQ(ctx.fault.addr, 0x201u);
}

TEST(Exception, SameInstructionEffectsSuppressed) {
  // A store and a faulting load in one instruction: nothing of the
  // instruction may commit (detection precedes writeback).
  MachineConfig cfg = test::example_machine(2, 3, 1, Technique::smt());
  Simulator sim(cfg);
  const char* prog =
      "c0 movi r1 = 0x200 ; c1 movi r9 = 3\n"
      "c0 stw 0[r1] = r1 ; c1 ldw r2 = 0x10[r0]\n"
      "c0 halt\n";
  ThreadContext ctx(0, test::shared(assemble(prog, "p")));
  sim.attach(0, &ctx);
  sim.run_to_halt(100);
  EXPECT_EQ(ctx.state, RunState::kFaulted);
  EXPECT_EQ(ctx.mem.peek_u32(0x200), 0u);  // store suppressed
}

TEST(Exception, SplitPartRollbackDiscardsBuffers) {
  // CCSI, 2 threads: T1's instruction split-issues its store on cluster 0
  // in cycle 1 (buffered — T0 owns cluster 1); the cluster-1 part faults in
  // cycle 2. The buffered store must be discarded: memory intact.
  MachineConfig cfg =
      test::example_machine(2, 3, 2, Technique::ccsi(CommPolicy::kNoSplit));
  Simulator sim(cfg);
  const char* t0_src =
      "c1 add r1 = r2, r3 ; c1 or r4 = r5, r6\n"
      "c0 halt\n";
  const char* t1_src =
      "c0 stw 0x200[r0] = r2 ; c1 ldw r5 = 0x10[r0]\n"  // c1 load faults
      "c0 halt\n";
  ThreadContext t0(0, test::shared(assemble(t0_src, "t0")));
  ThreadContext t1(1, test::shared(assemble(t1_src, "t1")));
  t1.regs.set_gpr(0, 2, 55);
  sim.attach(0, &t0);
  sim.attach(1, &t1);
  sim.run_to_halt(100);
  EXPECT_EQ(t1.state, RunState::kFaulted);
  EXPECT_EQ(t1.fault.pc, 0u);
  EXPECT_EQ(t1.mem.peek_u32(0x200), 0u);  // buffered store discarded
  EXPECT_TRUE(t1.store_buffer.empty());
  EXPECT_TRUE(t1.rf_buffer.empty());
  // T0 is unaffected.
  EXPECT_EQ(t0.state, RunState::kHalted);
}

TEST(Exception, SplitRegisterWritesRolledBack) {
  // T1's cluster-0 part computes into a register (buffered); the cluster-1
  // part faults later. The register keeps its pre-instruction value.
  MachineConfig cfg =
      test::example_machine(2, 3, 2, Technique::ccsi(CommPolicy::kNoSplit));
  Simulator sim(cfg);
  const char* t0_src =
      "c1 add r1 = r2, r3 ; c1 or r4 = r5, r6\n"
      "c1 xor r7 = r8, r9 ; c1 and r2 = r3, r4\n"
      "c0 halt\n";
  const char* t1_src =
      "c0 add r7 = r2, r2 ; c1 ldw r5 = 0x10[r0]\n"
      "c0 halt\n";
  ThreadContext t0(0, test::shared(assemble(t0_src, "t0")));
  ThreadContext t1(1, test::shared(assemble(t1_src, "t1")));
  t1.regs.set_gpr(0, 2, 21);
  t1.regs.set_gpr(0, 7, 1);
  sim.attach(0, &t0);
  sim.attach(1, &t1);
  sim.run_to_halt(100);
  EXPECT_EQ(t1.state, RunState::kFaulted);
  EXPECT_EQ(t1.regs.gpr(0, 7), 1u);  // 42 never committed
}

TEST(Exception, ReferenceInterpreterAgreesOnFault) {
  const char* prog =
      "c0 movi r1 = 5\n"
      "c0 ldw r2 = 0x10[r0]\n"
      "c0 halt\n";
  MachineConfig cfg = test::example_machine(4, 4, 1, Technique::smt());
  Simulator sim(cfg);
  ThreadContext sim_ctx(0, test::shared(assemble(prog, "p")));
  sim.attach(0, &sim_ctx);
  sim.run_to_halt(100);

  ReferenceInterpreter ref(cfg.clusters);
  ThreadContext ref_ctx(0, test::shared(assemble(prog, "p")));
  RefResult rr = ref.run(ref_ctx, 1000);
  EXPECT_TRUE(rr.faulted);
  EXPECT_EQ(rr.fault_pc, sim_ctx.fault.pc);
  EXPECT_EQ(ref_ctx.arch_fingerprint(cfg.clusters),
            sim_ctx.arch_fingerprint(cfg.clusters));
}

}  // namespace
}  // namespace vexsim
