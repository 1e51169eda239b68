// Minimal command-line parsing shared by bench/example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--flag` forms.
// Repeating an option is a hard error (CheckError from the constructor):
// last-wins semantics would let a typo'd flag silently shadow a real one in
// a sweep script. Every lookup records the name it asked for, and a program
// calls reject_unknown() once it has read all its flags, so a misspelled or
// retired flag fails instead of doing nothing. Lookups are not thread-safe;
// programs read their flags on the main thread before any work starts.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace vexsim {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& def) const;
  // Numeric values: `def` when absent; CheckError naming the flag unless the
  // value is one whole number in range ("abc", "2x", a bare flag and an
  // overflowing or non-finite value all throw). Integers parse in base 0,
  // so 0x1000 is hex.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  // get_int, also CheckError outside [lo, hi]: safe to narrow to int.
  [[nodiscard]] int get_int_in(const std::string& name, int def, int lo,
                               int hi) const;
  // get_int for a count of at least 1 (a run length): `def` when absent,
  // CheckError naming the flag below 1, so no value wraps when unsigned.
  [[nodiscard]] std::uint64_t get_positive(const std::string& name,
                                           std::uint64_t def) const;
  // A bare `--flag` reads true. A value must be one of true/false/1/0/yes/no;
  // anything else is a CheckError naming the flag, so `--quick=banana` fails
  // and `--quick llhh` does not silently swallow a positional argument.
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;

  // Worker-thread count from `--jobs N`. Defaults to `def` when absent;
  // throws CheckError when the value is zero, negative, or non-numeric.
  [[nodiscard]] int jobs(int def = 1) const;

  // Positional (non --option) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  // CheckError naming every option on the command line that no lookup above
  // has asked for, and listing the ones that were. Call it after the program
  // has read every flag it uses and before its work starts; a flag read only
  // when another is present must be looked up unconditionally first.
  // Positional arguments are never rejected.
  void reject_unknown() const;

 private:
  // The option's value, or nullptr when absent; records `name` as read.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;  // every name looked up so far
};

}  // namespace vexsim
