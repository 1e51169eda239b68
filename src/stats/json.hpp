// Minimal deterministic JSON emission and strict parsing for
// machine-readable bench output and the sweep result cache.
//
// Only what the trajectory files and cache records need: objects, arrays,
// strings, integers, doubles, and booleans. Emission order is insertion
// order and number formatting is locale-independent and round-trip exact,
// so two structurally equal documents serialize to byte-identical text —
// the property the parallel-vs-serial sweep determinism checks rely on.
// Non-finite doubles serialize as `null` (JSON has no nan/inf); consumers
// treat a null metric as "undefined". The parser is deliberately strict
// (no duplicate keys, no trailing input, at most kMaxDepth nesting levels):
// cache records are produced by the writer below, so anything the parser
// rejects is corruption.
//
// A value is one std::variant over the eight kinds, 40 bytes: a number
// carries no empty string or vector beside it. Objects and arrays both
// hold (key, value) pairs in insertion order, an array's keys left empty,
// so the parser collects either on one stack.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace vexsim {

namespace detail {
class JsonParser;
}  // namespace detail

class Json {
 public:
  // Scalars.
  Json() = default;
  Json(bool v) : value_(v) {}                              // NOLINT
  Json(std::int64_t v) : value_(v) {}                      // NOLINT
  Json(std::uint64_t v) : value_(v) {}                     // NOLINT
  Json(int v) : value_(std::int64_t{v}) {}                 // NOLINT
  Json(double v) : value_(v) {}                            // NOLINT
  Json(std::string v) : value_(std::move(v)) {}            // NOLINT
  Json(const char* v) : value_(std::string(v)) {}          // NOLINT

  static Json object();
  static Json array();

  // Nesting deeper than this is rejected by parse(); the documents this
  // repository writes nest about 7 levels.
  static constexpr int kMaxDepth = 512;

  // Strict parser for documents produced by dump(): throws CheckError on
  // malformed input, duplicate object keys, numeric overflow, trailing
  // characters, or nesting deeper than kMaxDepth. Numbers follow the JSON
  // grammar exactly (no leading '+', leading zeros, or bare '.').
  // Non-negative integers parse as unsigned, negative ones as signed;
  // either re-serializes to the original text.
  static Json parse(const std::string& text);

  // Object member access; `set` overwrites an existing key in place so the
  // original insertion order is preserved.
  Json& set(std::string_view key, Json value);

  // Array append.
  Json& push(Json value);

  [[nodiscard]] bool is_object() const { return holds<Object>(); }
  [[nodiscard]] bool is_array() const { return holds<Array>(); }
  [[nodiscard]] bool is_null() const { return holds<std::monostate>(); }
  [[nodiscard]] bool is_bool() const { return holds<bool>(); }
  [[nodiscard]] bool is_string() const { return holds<std::string>(); }
  [[nodiscard]] bool is_number() const {
    return holds<std::int64_t>() || holds<std::uint64_t>() ||
           holds<double>();
  }
  // Members of an object, elements of an array, 0 for a scalar.
  [[nodiscard]] std::size_t size() const {
    const Members* m = children();
    return m != nullptr ? m->size() : 0;
  }

  // Checked scalar access; throws CheckError on a kind mismatch (and on
  // signedness that cannot represent the stored value).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  // Object member lookup: `find` returns nullptr when absent, `at` throws.
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] const Json& at(std::string_view key) const;
  // Array element access, bounds-checked.
  [[nodiscard]] const Json& at(std::size_t i) const;

  // Serializes with 2-space indentation and a trailing newline at top level.
  [[nodiscard]] std::string dump() const;

 private:
  friend class detail::JsonParser;

  // Object members (key used) or array elements (key empty, unused).
  using Members = std::vector<std::pair<std::string, Json>>;
  struct Object {
    Members members;
  };
  struct Array {
    Members members;
  };

  template <typename T>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<T>(value_);
  }
  // The members of an object or array; nullptr for a scalar.
  [[nodiscard]] const Members* children() const {
    if (const auto* o = std::get_if<Object>(&value_)) return &o->members;
    if (const auto* a = std::get_if<Array>(&value_)) return &a->members;
    return nullptr;
  }
  [[nodiscard]] Members* children() {
    return const_cast<Members*>(std::as_const(*this).children());
  }

  void dump_to(std::string& out, int indent) const;

  std::variant<std::monostate, bool, std::int64_t, std::uint64_t, double,
               std::string, Object, Array>
      value_;
};

// Writes `json.dump()` to `path` atomically: through a temp file
// `<path>.tmp.<pid>.<n>` renamed over `path`, so `path` holds the old
// document or the new one, never a torn one. Throws CheckError on I/O
// failure, after removing the temp file. Symlinks, devices and pipes are
// written through in place.
void write_json_file(const std::string& path, const Json& json);

}  // namespace vexsim
