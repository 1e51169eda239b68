// Writing a kernel against the compiler IR: build a saturating 5-tap FIR
// filter, compile it with the full backend (BUG cluster assignment, list
// scheduling, register allocation), and run it single-threaded and as part
// of an SMT pair.
//
//   $ ./custom_kernel
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cc/compiler.hpp"
#include "sim/driver.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace vexsim;
using cc::Builder;
using cc::VReg;

std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

Program build_fir(const MachineConfig& cfg) {
  constexpr int kN = 512;
  constexpr std::uint32_t kIn = 0x2000;
  constexpr std::uint32_t kOut = 0x6000;

  Builder b("fir5");
  const VReg in = b.movi(kIn);
  const VReg out = b.movi(kOut);
  const VReg i = b.fresh_global();
  b.assign_i(i, 0);

  const int body = b.new_block();
  b.jump(body);
  b.switch_to(body);
  const VReg p = b.alu(Opcode::kAdd, in, i);
  // 5 taps, constants 1-4-6-4-1 (binomial smoothing).
  const VReg x0 = b.load(Opcode::kLdw, p, 0, cc::kMemSpaceReadOnly);
  const VReg x1 = b.load(Opcode::kLdw, p, 4, cc::kMemSpaceReadOnly);
  const VReg x2 = b.load(Opcode::kLdw, p, 8, cc::kMemSpaceReadOnly);
  const VReg x3 = b.load(Opcode::kLdw, p, 12, cc::kMemSpaceReadOnly);
  const VReg x4 = b.load(Opcode::kLdw, p, 16, cc::kMemSpaceReadOnly);
  const VReg acc = b.alu(
      Opcode::kAdd,
      b.alu(Opcode::kAdd, x0, x4),
      b.alu(Opcode::kAdd, b.mpyi(b.alu(Opcode::kAdd, x1, x3), 4),
            b.mpyi(x2, 6)));
  // Saturate to 16 bits with min/max, then store.
  const VReg sat = b.alui(Opcode::kMin, b.alui(Opcode::kMax, acc, -32768),
                          32767);
  b.store(Opcode::kStw, b.alu(Opcode::kAdd, out, i), 0, sat);
  b.assign_alui(i, Opcode::kAdd, i, 4);
  const VReg more = b.cmpi_b(Opcode::kCmplt, i, kN * 4);
  b.branch(more, body);

  const int fin = b.new_block();
  b.switch_to(fin);
  b.halt();

  cc::CompileStats stats;
  Program prog = cc::compile(std::move(b).take(), cfg, &stats);
  std::cout << "compiled " << stats.instructions << " VLIW instructions ("
            << stats.operations << " ops, " << stats.copies_inserted
            << " inter-cluster copies, " << fmt2(stats.ops_per_instruction())
            << " ops/instr)\n";

  // Input: a noisy ramp.
  std::vector<std::uint32_t> words;
  for (int k = 0; k < kN + 8; ++k)
    words.push_back(static_cast<std::uint32_t>(k * 3 + ((k * 37) % 11)));
  prog.add_data_words(kIn, words);  // compile() already finalized the code
  return prog;
}

}  // namespace

int main() {
  const MachineConfig cfg = MachineConfig::paper_single();
  auto prog = std::make_shared<const Program>(build_fir(cfg));

  // Solo run.
  {
    DriverParams params;
    params.budget = 1'000'000;
    params.respawn = false;
    params.max_cycles = 10'000'000;
    MultiprogramDriver driver(cfg, {prog}, params);
    const RunResult r = driver.run();
    std::cout << "solo: " << r.sim.cycles << " cycles, IPC " << fmt2(r.ipc())
              << "\n";
    // Spot-check the filter output: out[0] = x0 + 4*x1 + 6*x2 + 4*x3 + x4.
    const auto& inst = driver.instance(0);
    std::cout << "out[0] = " << static_cast<std::int32_t>(
                     inst.mem.peek_u32(0x6000))
              << "\n";
  }

  // Paired with a low-ILP thread under CCSI AS: the FIR's leftover slots
  // absorb the second thread almost for free.
  {
    const MachineConfig smt_cfg =
        MachineConfig::paper(2, Technique::ccsi(CommPolicy::kAlwaysSplit));
    DriverParams params;
    params.budget = 60'000;
    params.timeslice = 50'000;
    params.max_cycles = 10'000'000;
    auto gsm = wl::make_benchmark("gsmencode", smt_cfg, 0.05);
    MultiprogramDriver driver(smt_cfg, {prog, gsm}, params);
    const RunResult r = driver.run();
    std::cout << "paired with gsmencode (CCSI AS): IPC " << fmt2(r.ipc())
              << ", split instructions " << r.sim.split_instructions << "\n";
  }
  return 0;
}
