// The execution packet: the merged set of operations issued in one cycle
// (output of the merge hardware in Figure 7).
#pragma once

#include <array>
#include <cstdint>

#include "core/resources.hpp"
#include "isa/decoded_program.hpp"
#include "isa/instruction.hpp"
#include "util/inline_vec.hpp"

namespace vexsim {

struct SelectedOp {
  Operation op;  // copy of dec->op, for tracing tools and the figure tests
  // The operation's entry in the owning program's flat op table (operand-read
  // flags, class, access size); the packet engine executes from it.
  const DecodedOp* dec = nullptr;
  std::int8_t hw_slot = -1;          // hardware thread slot that issued it
  std::uint8_t logical_cluster = 0;  // program-view cluster (register access)
  std::uint8_t physical_cluster = 0; // after cluster renaming (resources)
};

struct ExecPacket {
  int clusters = 0;
  std::array<ResourceUse, kMaxClusters> used{};
  // For cluster-level merging: which hw thread owns each physical cluster
  // this cycle (-1 = free). Operation-level merging leaves it at -1 unless a
  // thread claimed ops there first (informational).
  std::array<std::int8_t, kMaxClusters> owner{};
  InlineVec<SelectedOp, kMaxTotalIssue> ops;

  void clear(int num_clusters) {
    clusters = num_clusters;
    used.fill(ResourceUse{});
    owner.fill(-1);
    ops.clear();
  }

  [[nodiscard]] int op_count() const { return static_cast<int>(ops.size()); }
  [[nodiscard]] bool cluster_free(int physical) const {
    return used[static_cast<std::size_t>(physical)].empty();
  }
};

}  // namespace vexsim
