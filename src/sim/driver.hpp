// Multiprogrammed workload driver (Section VI-A).
//
// The hardware thread slots are exposed as virtual CPUs; the driver
// schedules as many benchmark instances as there are slots, with a fixed
// timeslice. At timeslice expiry the pipeline drains, a context switch
// replaces the running set with instances picked at random (seeded), and
// execution continues. Benchmarks that finish are respawned. The run ends
// when any instance has retired `budget` VLIW instructions in total.
//
// run()'s optional deadline poll is the only clock read in src/sim: the cycle
// loop (Simulator::step and fast_forward) reads none, so host time is split
// by function with an external profiler (README, Measuring performance).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/thread_context.hpp"
#include "isa/config.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace vexsim {

struct DriverParams {
  std::uint64_t timeslice = 5'000'000;  // cycles (paper value)
  std::uint64_t budget = 200'000'000;   // VLIW instructions (paper value)
  std::uint64_t max_cycles = ~0ull;     // safety valve
  std::uint64_t seed = 12345;
  bool respawn = true;  // restart finished benchmarks (paper behaviour)
  // Batch provably-idle cycles arithmetically (Simulator::fast_forward).
  // Statistics are bit-identical either way; off retains the pure
  // cycle-by-cycle loop for cross-checking and speed measurement.
  bool fast_forward = true;
  // Retired: read by nothing, kept only for vexperf/src/trace.cpp's copies.
  bool fused = true;
  bool profile = false;
};

struct InstanceResult {
  std::string name;
  std::uint64_t instructions = 0;  // VLIW, cumulative over respawns
  std::uint64_t respawns = 0;
  std::uint64_t arch_fingerprint = 0;
  bool faulted = false;
  ThreadCounters counters;
};

// Static compile-quality summary of a workload's programs, aggregated over
// its components by the harness (plain counters here so the sim layer does
// not depend on the compiler's CompileStats type).
struct CompileSummary {
  std::uint64_t instructions = 0;   // static VLIW instructions
  std::uint64_t operations = 0;     // static operations
  std::uint64_t copies_inserted = 0;  // inter-cluster send/recv pairs
  std::uint64_t swp_loops = 0;        // software-pipelined loops
  bool present = false;               // filled by the harness

  [[nodiscard]] double ops_per_instruction() const {
    return instructions == 0
               ? 0.0
               : static_cast<double>(operations) /
                     static_cast<double>(instructions);
  }
};

struct RunResult {
  SimStats sim;
  CacheStats icache;
  CacheStats dcache;
  // Hierarchy-backend statistics (MSHRs, shared L2, DRAM); `present` stays
  // false under the fixed backend and the serializers then skip the block.
  mem::MemoryStats memory;
  MergeEngineStats merge;
  std::vector<InstanceResult> instances;
  CompileSummary compile;  // filled by harness::run_workload_on
  int issue_width = 0;

  // Harness provenance, filled by harness::run_sweep; a direct
  // MultiprogramDriver::run() leaves the defaults.
  int attempts = 1;    // simulation attempts behind this result (retries)
  bool failed = false; // point exhausted its retries; stats above are empty
  std::string error;   // failure description when `failed`
  // `cached`: the result is persisted in the sweep result cache — true both
  // when this run stored it and when a later run serves it, so cold- and
  // warm-cache sweeps emit byte-identical JSON. `cache_hit`: served from
  // the cache in *this* process; never serialized.
  bool cached = false;
  bool cache_hit = false;

  [[nodiscard]] double ipc() const { return sim.ipc(); }
};

// Wall-clock instant after which MultiprogramDriver::run() gives up by
// throwing DeadlineExceeded.
using Deadline = std::chrono::steady_clock::time_point;
struct DeadlineExceeded : std::runtime_error {
  DeadlineExceeded() : std::runtime_error("simulation deadline exceeded") {}
};

class MultiprogramDriver {
 public:
  // Simulated cycles between two clock reads under a deadline: ~1.6 ms of
  // host time at ~400 ns per cycle.
  static constexpr std::uint64_t kDeadlinePollCycles = 4096;

  MultiprogramDriver(const MachineConfig& cfg,
                     std::vector<std::shared_ptr<const Program>> programs,
                     DriverParams params);

  // Runs the workload to the termination condition and returns statistics.
  // With a deadline, run() reads the clock before the first cycle and then
  // every kDeadlinePollCycles simulated cycles, and throws DeadlineExceeded
  // at the first read past it, on the calling thread. Without one it never
  // reads the clock, and the statistics are the same either way.
  RunResult run(std::optional<Deadline> deadline = std::nullopt);

  // Access to contexts after run() — used by equivalence tests.
  [[nodiscard]] const ThreadContext& instance(std::size_t i) const {
    return *instances_[i];
  }
  [[nodiscard]] std::size_t num_instances() const { return instances_.size(); }
  // The simulator as the constructor configured it from DriverParams.
  [[nodiscard]] const Simulator& simulator() const { return sim_; }

 private:
  void schedule_initial();
  void context_switch();
  [[nodiscard]] bool budget_reached() const;

  MachineConfig cfg_;
  DriverParams params_;
  Simulator sim_;
  Rng rng_;
  std::vector<std::unique_ptr<ThreadContext>> instances_;
  std::vector<int> running_;  // instance index per slot, -1 = empty
};

}  // namespace vexsim
