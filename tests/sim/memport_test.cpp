// Memory-port contention from delayed (buffered) stores — Figure 11.
//
// Scenario (2 clusters, 1 memory port each, CCSI):
//   T1 Ins0 = c0:{stw}, c1:{add}. At cycle 1 T0 owns cluster 1, so T1
//   split-issues the store (into the buffer). At cycle 2 T1's last part
//   (the add) issues and the buffered store drains — in the same cycle T0's
//   next instruction issues a load on cluster 0. Two memory operations, one
//   port: the pipeline stalls one cycle.
#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

namespace vexsim {
namespace {

const char* kT0 =
    "c1 add r1 = r2, r3 ; c1 or r4 = r5, r6 ; c1 xor r7 = r8, r9\n"  // owns c1
    "c0 ldw r1 = 0x300[r0]\n"
    "c0 add r2 = r0, 1\n"
    "c0 halt\n";

// The stored value (r2 = 55) is preset directly in the register file by the
// tests below.
const char* kT1 =
    "c0 stw 0x200[r0] = r2 ; c1 add r3 = r4, r5\n"
    "c0 halt\n";

MachineConfig machine(Technique t) {
  MachineConfig cfg = test::example_machine(2, 3, 2, t);
  cfg.cluster.mem_units = 1;  // one memory port per cluster (Figure 11)
  return cfg;
}

struct Rig {
  Simulator sim;
  ThreadContext t0;
  ThreadContext t1;
  explicit Rig(const MachineConfig& cfg)
      : sim(cfg),
        t0(0, test::shared(assemble(kT0, "t0"))),
        t1(1, test::shared(assemble(kT1, "t1"))) {
    t1.regs.set_gpr(0, 2, 55);
    sim.attach(0, &t0);
    sim.attach(1, &t1);
  }
};

TEST(MemPort, BufferedStoreDrainConflictStalls) {
  Rig rig(machine(Technique::ccsi(CommPolicy::kNoSplit)));
  ASSERT_TRUE(rig.sim.run_to_halt(100));
  EXPECT_EQ(rig.sim.stats().memport_stall_cycles, 1u);
  // The buffered store committed despite the contention.
  EXPECT_EQ(rig.t1.mem.peek_u32(0x200), 55u);
  EXPECT_EQ(rig.t1.counters.split_instructions, 1u);
}

TEST(MemPort, NoSplitNoDrainStall) {
  // Under plain CSMT the store issues with its whole instruction and writes
  // straight to memory: no buffered drain, no structural stall.
  Rig rig(machine(Technique::csmt()));
  ASSERT_TRUE(rig.sim.run_to_halt(100));
  EXPECT_EQ(rig.sim.stats().memport_stall_cycles, 0u);
  EXPECT_EQ(rig.t1.mem.peek_u32(0x200), 55u);
  EXPECT_EQ(rig.t1.counters.split_instructions, 0u);
}

TEST(MemPort, SplitIssueStillFasterDespiteStall) {
  Rig ccsi(machine(Technique::ccsi(CommPolicy::kNoSplit)));
  ASSERT_TRUE(ccsi.sim.run_to_halt(100));
  Rig csmt(machine(Technique::csmt()));
  ASSERT_TRUE(csmt.sim.run_to_halt(100));
  EXPECT_LE(ccsi.sim.stats().cycles, csmt.sim.stats().cycles);
}

TEST(MemPort, StallCycleIsFullyIdle) {
  Rig rig(machine(Technique::ccsi(CommPolicy::kNoSplit)));
  std::vector<int> ops_per_cycle;
  for (int i = 0; i < 100 && !rig.sim.run_to_halt(1); ++i)
    ops_per_cycle.push_back(rig.sim.last_packet().op_count());
  bool saw_stall = false;
  for (std::size_t i = 1; i + 1 < ops_per_cycle.size(); ++i)
    if (ops_per_cycle[i] == 0) saw_stall = true;
  EXPECT_TRUE(saw_stall);
}

TEST(MemPort, ExtraPortsRemoveTheStall) {
  MachineConfig cfg = machine(Technique::ccsi(CommPolicy::kNoSplit));
  cfg.cluster.mem_units = 2;  // Section V-D's alternative: more ports
  Rig rig(cfg);
  ASSERT_TRUE(rig.sim.run_to_halt(100));
  EXPECT_EQ(rig.sim.stats().memport_stall_cycles, 0u);
}

TEST(MemPort, RenamingSeparatesThePorts) {
  // On a 4-cluster machine with renaming (T1 rotates by 1), T1's store
  // becomes the *last* part of its instruction instead of a buffered early
  // part, so it writes memory directly and no drain conflict arises.
  MachineConfig cfg = machine(Technique::ccsi(CommPolicy::kNoSplit));
  cfg.clusters = 4;
  cfg.cluster_renaming = true;
  Rig rig(cfg);
  ASSERT_TRUE(rig.sim.run_to_halt(100));
  EXPECT_EQ(rig.sim.stats().memport_stall_cycles, 0u);
  EXPECT_EQ(rig.t1.mem.peek_u32(0x200), 55u);
}

}  // namespace
}  // namespace vexsim
