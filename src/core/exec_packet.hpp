// The execution packet: the operations issued in one cycle and the
// per-cluster resources they use (output of the merge hardware in Figure 7).
// The simulator's engine appends each operation as it wins selection, so the
// packet is the cycle's issue record.
#pragma once

#include <array>
#include <cstdint>

#include "isa/decoded_program.hpp"
#include "isa/resources.hpp"
#include "util/inline_vec.hpp"

namespace vexsim {

struct SelectedOp {
  // The operation's entry in the owning program's flat op table; dec->op is
  // the Operation itself.
  const DecodedOp* dec = nullptr;
  std::int8_t hw_slot = -1;          // hardware thread slot that issued it
  std::uint8_t logical_cluster = 0;  // program-view cluster (register access)
  std::uint8_t physical_cluster = 0; // after cluster renaming (resources)
};

struct ExecPacket {
  std::array<ResourceUse, kMaxClusters> used{};
  InlineVec<SelectedOp, kMaxTotalIssue> ops;

  void clear() {
    used.fill(ResourceUse{});
    ops.clear();
  }

  [[nodiscard]] int op_count() const { return static_cast<int>(ops.size()); }
};

}  // namespace vexsim
