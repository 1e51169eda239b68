// Typed values, $(var) interpolation, and arithmetic over description-file
// entries (mdes/config_file.hpp).
//
// Raw entry text evaluates to one of four kinds:
//   int     123, 64*1024, 2*$(issue)+1         (64-bit signed)
//   double  0.25, 1e9, ($(issue)+0.1)/16
//   bool    true / false
//   string  'paperCluster', 'synth:i$(ilp)-s1'  ($(var) splices textually)
//
// $(var) resolves against explicit bindings first (the DSE driver binds
// sampled axis values), then against the file's global section, recursively
// — with cycle detection, so `a = $(a)` and mutual references produce a
// diagnostic instead of a hang. Arithmetic is + - * / with parentheses and
// unary minus; int op int stays int (an inexact division promotes to
// double), anything touching a double is double, and division by zero is a
// diagnostic. The one string function is
//   repeat('component-s@', n)   n copies joined with '+', '@' replaced by
//                               the 1-based copy index
// which is how scenario templates fill an n-context machine with distinct
// per-context synthetic seeds.
//
// SectionReader layers strict typed access on top: every key a deserializer
// reads is marked consumed, and check_unknown() reports the full list of
// never-consumed keys — config authors see each typo, not just the first.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mdes/config_file.hpp"
#include "util/check.hpp"

namespace vexsim::mdes {

struct Value {
  enum class Kind : std::uint8_t { kInt, kDouble, kBool, kString };

  Kind kind = Kind::kInt;
  std::int64_t i = 0;
  double d = 0.0;
  bool b = false;
  std::string s;

  static Value integer(std::int64_t v);
  static Value real(double v);
  static Value boolean(bool v);
  static Value string(std::string v);

  [[nodiscard]] bool is_number() const {
    return kind == Kind::kInt || kind == Kind::kDouble;
  }
  // Numeric access; int promotes to double.
  [[nodiscard]] double as_double() const;
  // Literal text: canonical decimal for numbers (shortest exactly
  // round-tripping form for doubles), true/false, the raw characters for
  // strings. Used for string splicing and by the to_config serializers.
  [[nodiscard]] std::string str() const;
  [[nodiscard]] const char* kind_name() const;

  friend bool operator==(const Value&, const Value&) = default;
};

// Shortest decimal form that parses back to exactly `v` (util/shortest_g,
// the spelling stats/json and wl_synth use too: serialized machines and
// spliced synth dials must round-trip bit-for-bit); "nan" when not finite.
[[nodiscard]] std::string format_double(double v);

class Interp {
 public:
  explicit Interp(const ConfigFile& file) : file_(&file) {}

  // Binds `name` for $(name) lookup, shadowing any global entry. The DSE
  // driver binds each sampled axis value before evaluating the machine and
  // scenario sections.
  void bind(const std::string& name, Value v);
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& bindings()
      const {
    return bindings_;
  }

  // Evaluates raw entry text. On any problem (syntax, unknown or cyclic
  // $(var), division by zero, strings in arithmetic) adds a diagnostic at
  // `loc` and returns nullopt.
  [[nodiscard]] std::optional<Value> eval(const std::string& raw,
                                          const SourceLoc& loc,
                                          Diagnostics& diags) const;

  // As eval, but requiring a specific kind (int accepts only int; double
  // accepts int or double; bool/string exact).
  [[nodiscard]] std::optional<std::int64_t> eval_int(const std::string& raw,
                                                     const SourceLoc& loc,
                                                     Diagnostics& diags) const;
  [[nodiscard]] std::optional<double> eval_double(const std::string& raw,
                                                  const SourceLoc& loc,
                                                  Diagnostics& diags) const;
  [[nodiscard]] std::optional<bool> eval_bool(const std::string& raw,
                                              const SourceLoc& loc,
                                              Diagnostics& diags) const;
  [[nodiscard]] std::optional<std::string> eval_string(
      const std::string& raw, const SourceLoc& loc, Diagnostics& diags) const;

 private:
  friend class Evaluator;
  const ConfigFile* file_;
  std::vector<std::pair<std::string, Value>> bindings_;
};

// Strict typed reader over one section. Getters return the default when the
// key is absent; type mismatches and evaluation failures become diagnostics
// (and the default is returned so one pass can keep collecting problems).
class SectionReader {
 public:
  SectionReader(const Interp& interp, const Section& section,
                Diagnostics& diags);

  [[nodiscard]] const Section& section() const { return *section_; }

  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t def);
  [[nodiscard]] double get_double(const std::string& key, double def);
  [[nodiscard]] bool get_bool(const std::string& key, bool def);
  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string def);
  [[nodiscard]] std::optional<std::string> get_string_opt(
      const std::string& key);
  [[nodiscard]] std::optional<std::int64_t> get_int_opt(const std::string& key);

  // `key` as an int constrained to [lo, hi]; out-of-range is a diagnostic.
  [[nodiscard]] int get_int_in(const std::string& key, int def, int lo,
                               int hi);

  // `key` as a string mapped through `parse`, a named-constant parser that
  // throws CheckError on an unknown name (Technique::parse,
  // reg_file_org_from, ...). The throw becomes a diagnostic at the entry;
  // nullopt when the key is absent or its value is bad.
  template <typename Parse>
  [[nodiscard]] auto get_named(const std::string& key, Parse parse)
      -> std::optional<decltype(parse(std::string()))> {
    const Entry* e = take(key);
    if (e == nullptr) return std::nullopt;
    const auto name = interp_->eval_string(e->value, e->loc, *diags_);
    if (!name) return std::nullopt;
    try {
      return parse(*name);
    } catch (const CheckError& err) {
      diags_->add(e->loc, err.what());
      return std::nullopt;
    }
  }

  // Expands every indexed `key[i]` / `key[lo:hi]` entry into a per-index
  // string slot over [0, count): index expressions are evaluated (they may
  // use $(var) arithmetic), out-of-range indices and overlapping ranges are
  // diagnostics. Returns one optional per index; nullopt = not covered.
  [[nodiscard]] std::vector<std::optional<std::string>> indexed_strings(
      const std::string& key, int count);

  // True when the section has an indexed entry for `key` at all.
  [[nodiscard]] bool has_indexed(const std::string& key) const;

  // Reports every never-consumed key as an unknown-key diagnostic; call
  // once after all expected keys have been read.
  void check_unknown(const std::string& what);

 private:
  [[nodiscard]] const Entry* take(const std::string& key);

  const Interp* interp_;
  const Section* section_;
  Diagnostics* diags_;
  std::vector<bool> consumed_;
};

}  // namespace vexsim::mdes
