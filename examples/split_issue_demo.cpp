// Split-issue walkthrough: replays the paper's Figure 6 scenario (CSMT vs
// CCSI) cycle by cycle, printing each execution packet so the merge
// decisions are visible.
//
//   $ ./split_issue_demo
#include <iostream>
#include <memory>

#include "arch/thread_context.hpp"
#include "sim/simulator.hpp"
#include "vasm/assembler.hpp"

namespace {

using namespace vexsim;

// Figure 6's structure: T0's first instruction uses only cluster 0; T1's
// uses both clusters; without split-issue nothing merges (4 cycles), with
// cluster-level split-issue the bundles interleave (3 cycles).
const char* kT0 =
    "c0 add r1 = r2, r3 ; c0 ldw r4 = 0x200[r0]\n"
    "c0 shl r5 = r6, 1 ; c0 sub r7 = r8, r9 ; "
    "c1 mpyl r1 = r2, r3 ; c1 xor r4 = r5, r6\n";

const char* kT1 =
    "c0 mpyl r1 = r2, r3 ; c0 shl r4 = r5, 2 ; "
    "c1 sub r6 = r7, r8 ; c1 stw 0x200[r0] = r1\n"
    "c1 mov r2 = r3 ; c1 add r4 = r5, r6\n";

MachineConfig demo_machine(Technique t) {
  MachineConfig cfg;
  cfg.clusters = 2;
  cfg.cluster.issue_slots = 3;
  cfg.cluster.alus = 3;
  cfg.cluster.muls = 3;
  cfg.cluster.mem_units = 3;
  cfg.hw_threads = 2;
  cfg.technique = t;
  cfg.cluster_renaming = false;  // identity placement, as in the figure
  cfg.icache.perfect = true;
  cfg.dcache.perfect = true;
  cfg.validate();
  return cfg;
}

void run(Technique t) {
  std::cout << "=== " << t.name() << " ===\n";
  Simulator sim(demo_machine(t));
  auto p0 = std::make_shared<const Program>(assemble(kT0, "t0"));
  auto p1 = std::make_shared<const Program>(assemble(kT1, "t1"));
  ThreadContext t0(0, p0), t1(1, p1);
  sim.attach(0, &t0);
  sim.attach(1, &t1);

  while (t0.state == RunState::kReady || t1.state == RunState::kReady) {
    sim.step();
    std::cout << "cycle " << sim.cycle() << ":\n";
    if (sim.last_packet().op_count() == 0) std::cout << "    (idle)\n";
    for (const SelectedOp& sel : sim.last_packet().ops)
      std::cout << "    T" << int(sel.hw_slot) << "  "
                << to_string(sel.dec->op) << "\n";
    if (sim.cycle() > 20) break;
  }
  std::cout << "total cycles: " << sim.cycle()
            << ", split instructions: " << sim.stats().split_instructions
            << "\n\n";
}

}  // namespace

int main() {
  std::cout << "Figure 6 walkthrough: two threads on a 2-cluster, "
               "3-issue-per-cluster machine.\n"
            << "Thread 0:\n"
            << to_string(assemble(kT0, "t0")) << "Thread 1:\n"
            << to_string(assemble(kT1, "t1")) << "\n";
  run(Technique::csmt());                           // 4 cycles
  run(Technique::ccsi(CommPolicy::kAlwaysSplit));   // 3 cycles
  std::cout << "CCSI reaches the same architectural state one cycle "
               "earlier by splitting instructions at cluster boundaries.\n";
  return 0;
}
