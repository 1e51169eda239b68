// VLIW instruction = one bundle per cluster (Lx/VEX terminology).
//
// An *operation* is the basic execution unit; the operations scheduled to
// execute at a given cluster in a given cycle form a *bundle*; the set of
// bundles forms the *VLIW instruction*. Merging and split-issue act on this
// structure: CSMT/CCSI at bundle granularity, SMT/COSI/OOSI at operation
// granularity.
//
// VliwInstruction is the *builder* form: a fixed cluster × slot grid
// (1,088 B whatever it holds) that the compiler's emit pass, the assembler,
// the binary decoder and tests fill in and patch. It is never stored in a
// finalized Program: Program::finalize() consumes a vector of them and packs
// the operations into the flat table of decoded_program.hpp, which readers
// walk through an InstructionView.
#pragma once

#include <array>

#include "isa/operation.hpp"
#include "util/inline_vec.hpp"

namespace vexsim {

using Bundle = InlineVec<Operation, kMaxIssuePerCluster>;

struct VliwInstruction {
  std::array<Bundle, kMaxClusters> bundles;

  // Appends `op` to the bundle of its own cluster.
  void add(const Operation& op) { bundles[op.cluster].push_back(op); }

  [[nodiscard]] const Bundle& bundle(int cluster) const {
    return bundles[static_cast<std::size_t>(cluster)];
  }
  [[nodiscard]] Bundle& bundle(int cluster) {
    return bundles[static_cast<std::size_t>(cluster)];
  }

  [[nodiscard]] int op_count() const {
    int n = 0;
    for (const Bundle& b : bundles) n += static_cast<int>(b.size());
    return n;
  }

  [[nodiscard]] bool empty() const { return op_count() == 0; }

  template <typename Fn>
  void for_each_op(Fn&& fn) const {
    for (const Bundle& b : bundles)
      for (const Operation& op : b) fn(op);
  }

  friend bool operator==(const VliwInstruction&,
                         const VliwInstruction&) = default;
};

}  // namespace vexsim
