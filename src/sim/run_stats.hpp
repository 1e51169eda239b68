// Machine-level statistics accumulated by the simulator.
#pragma once

#include <cstdint>

#include "core/merge_engine.hpp"
#include "mem/cache.hpp"

namespace vexsim {

struct SimStats {
  std::uint64_t cycles = 0;
  std::uint64_t ops_issued = 0;           // operations entering execution
  std::uint64_t instructions_retired = 0; // VLIW instructions completed
  std::uint64_t split_instructions = 0;   // completed in more than one cycle
  std::uint64_t vertical_waste_cycles = 0;
  std::uint64_t multi_thread_cycles = 0;  // packets holding >1 thread's ops
  std::uint64_t memport_stall_cycles = 0; // buffered-store drain conflicts
  std::uint64_t drain_cycles = 0;         // context-switch pipeline drains
  std::uint64_t taken_branches = 0;
  std::uint64_t faults = 0;

  // Field-wise equality: the equivalence suites assert runs are bit-identical
  // across fast-forward, geometry and compiler variants.
  friend bool operator==(const SimStats&, const SimStats&) = default;

  // Operations per cycle — the paper's IPC metric (an "instruction" in the
  // IPC sense is a RISC operation; 1 VLIW instruction = 1..16 operations).
  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(ops_issued) /
                             static_cast<double>(cycles);
  }

  // Issue-slot waste split per the paper's Section I definitions.
  [[nodiscard]] double horizontal_waste_fraction(int issue_width) const {
    if (cycles == 0) return 0.0;
    const double total_slots =
        static_cast<double>(cycles) * static_cast<double>(issue_width);
    const double vertical = static_cast<double>(vertical_waste_cycles) *
                            static_cast<double>(issue_width);
    return (total_slots - vertical - static_cast<double>(ops_issued)) /
           total_slots;
  }
};

}  // namespace vexsim
