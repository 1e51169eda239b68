// Compiler pass-pipeline options.
//
// A CompilerOptions value selects which variant of each optimization pass
// the standard pipeline instantiates. The default reproduces the seed
// compiler bit-for-bit (greedy cluster assignment, straight list
// scheduling), so golden statistics stay frozen; the optimizing variants
// are opt-in per experiment, per workload component ("synth:...-ccpipe1")
// or per bench invocation (--cc=cost_swp).
//
// Variant names (parse() also accepts the pipeN aliases):
//   greedy      pipe0   BUG-style greedy assigner, list scheduler (seed)
//   cost        pipe1   cost-model cluster assigner, list scheduler
//   cost_swp    pipe2   cost-model assigner + iterative modulo scheduling
//   greedy_swp  pipe3   greedy assigner + iterative modulo scheduling
#pragma once

#include <cstdint>
#include <string>

namespace vexsim::cc {

enum class AssignStrategy : std::uint8_t { kGreedy, kCostModel };

struct CompilerOptions {
  AssignStrategy assign = AssignStrategy::kGreedy;
  // Software-pipeline innermost counted loops (iterative modulo
  // scheduling); loops where no II at most `max_ii` verifies, or whose
  // kernel would need more than `max_stages` overlapped iterations, fall
  // back to the list scheduler. The two limits are constants; cache keys
  // and workload memo keys spell them anyway, so existing keys stay valid.
  bool modulo_schedule = false;
  static constexpr int max_ii = 64;
  static constexpr int max_stages = 6;

  // Run the static invariant checkers (cc/verifier, cc/lint) between
  // passes, attributing any violation to the pass that introduced it
  // (--cc-verify on the benches). Purely diagnostic: it never changes the
  // emitted code, so it is excluded from name() and from sweep result-cache
  // fingerprints — golden trajectories stay byte-identical either way.
  bool verify_each_pass = false;

  // Canonical variant name ("greedy", "cost", "cost_swp", "greedy_swp").
  // The limits (max_ii/max_stages) are not part of the name; cache keys and
  // fingerprints hash every codegen-relevant field separately.
  [[nodiscard]] std::string name() const;

  // Parses a variant name or pipeN alias. Throws CheckError listing the
  // valid names on an unknown one.
  static CompilerOptions parse(const std::string& name);

  friend bool operator==(const CompilerOptions&,
                         const CompilerOptions&) = default;
};

// Comma-separated valid variant names, for error messages and CLI help.
[[nodiscard]] std::string compiler_variant_names();

}  // namespace vexsim::cc
