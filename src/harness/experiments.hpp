// Experiment orchestration shared by the bench/ binaries.
//
// Scaling: the paper runs 200 M VLIW instructions per workload with 5 M-cycle
// timeslices. Every experiment here accepts a scaled budget (default ≈ 1/800
// of paper scale, minutes for the full suite) and `--paper` to restore the
// original parameters. Workload mixes reach steady state well within the
// scaled budgets thanks to the respawning scheme.
//
// ExperimentOptions::from_cli reads the flags every bench shares. A bench
// then reads its own and calls Cli::reject_unknown() before it runs
// anything (run_sweep_and_dump does this for the sweep benches), so a flag
// that nothing reads is an error rather than a silent no-op.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cc/options.hpp"
#include "isa/config.hpp"
#include "sim/driver.hpp"
#include "util/cli.hpp"

namespace vexsim::harness {

struct ExperimentOptions {
  double scale = 0.1;                 // kernel outer-loop scaling
  std::uint64_t budget = 250'000;     // VLIW instructions ending the run
  std::uint64_t timeslice = 100'000;  // cycles between context switches
  std::uint64_t max_cycles = 80'000'000;
  std::uint64_t seed = 42;
  // Idle-cycle batching (bit-identical stats either way); micro_sim_speed
  // turns it off to time the pure cycle-by-cycle path.
  bool fast_forward = true;
  // Retired: read by nothing, kept only for vexperf/src/trace.cpp's copies.
  bool fused = true;
  bool profile = false;
  // Compiler pass-pipeline variant the workload compiles with (--cc NAME;
  // per-component "synth:...-cc..." fields override it). Part of the
  // result-cache fingerprint and the workload memo key.
  cc::CompilerOptions compiler;

  // Memory-backend override (--mem fixed|hierarchy), layered onto the base
  // machine by machine()/machine_single(). Unset keeps whatever the base
  // machine (default or --config) selects — fixed out of the box, so every
  // bench reproduces its goldens unless asked otherwise.
  std::optional<MemBackendKind> mem_backend;

  // Base machine the experiment's configs start from (nullptr = the
  // default-constructed MachineConfig, which IS the paper machine).
  // --config FILE loads one from a description file (mdes/machine.hpp);
  // benches then layer their swept axes (threads, technique) on top via
  // machine(). configs/paper4x4.conf deserializes to exactly the default,
  // so runs through it are byte-identical to the hard-coded machine.
  std::shared_ptr<const MachineConfig> base_machine;

  // The base machine with `threads` hardware contexts under `technique`
  // (validated); replaces direct MachineConfig::paper() calls in benches so
  // --config composes with every sweep axis.
  [[nodiscard]] MachineConfig machine(int threads, Technique technique) const;
  // The base machine single-threaded with merging off (paper_single form).
  [[nodiscard]] MachineConfig machine_single() const;

  // Applies --budget/--timeslice/--seed/--scale/--paper/--quick/--cc
  // (--scale must be > 0; --budget and --timeslice at least 1),
  // --cc-verify (run the static checkers between compiler passes),
  // --config FILE (base machine from a description file), and
  // --mem fixed|hierarchy (memory-backend override).
  static ExperimentOptions from_cli(const Cli& cli);

  // Value equality; the base machines compare by value (both absent, or
  // both present and equal), not by pointer.
  friend bool operator==(const ExperimentOptions& a,
                         const ExperimentOptions& b);
};

// Runs one Figure-13(b) workload mix on the paper machine with `threads`
// hardware contexts under `technique`.
[[nodiscard]] RunResult run_workload(const std::string& workload_name,
                                     int threads, Technique technique,
                                     const ExperimentOptions& opt);

// Runs one benchmark alone on machine_single(), with real or perfect memory
// (Figure 13(a) IPCr / IPCp), through run_workload_on. A lone instance never
// switches out, so the timeslice has no effect.
[[nodiscard]] RunResult run_single(const std::string& benchmark,
                                   bool perfect_memory,
                                   const ExperimentOptions& opt);

// As run_workload but with an arbitrary machine config (ablations). The
// deadline bounds MultiprogramDriver::run(), not the compile before it.
[[nodiscard]] RunResult run_workload_on(
    const MachineConfig& cfg, const std::string& workload_name,
    const ExperimentOptions& opt,
    std::optional<Deadline> deadline = std::nullopt);

// The driver parameters every run of `opt` uses: its run length, seed and
// fast-forward setting, with respawning on.
[[nodiscard]] DriverParams driver_params(const ExperimentOptions& opt);

}  // namespace vexsim::harness
