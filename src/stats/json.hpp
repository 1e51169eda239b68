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
// (no duplicate keys, no trailing input): cache records are produced by the
// writer below, so anything the parser rejects is corruption.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vexsim {

namespace detail {
class JsonParser;
}  // namespace detail

class Json {
 public:
  // Scalars.
  Json() : kind_(Kind::kNull) {}
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}                // NOLINT
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}          // NOLINT
  Json(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}       // NOLINT
  Json(int v) : kind_(Kind::kInt), int_(v) {}                   // NOLINT
  Json(double v) : kind_(Kind::kDouble), double_(v) {}          // NOLINT
  Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}  // NOLINT
  Json(const char* v) : kind_(Kind::kString), string_(v) {}     // NOLINT

  static Json object();
  static Json array();

  // Strict parser for documents produced by dump(): throws CheckError on
  // malformed input, duplicate object keys, numeric overflow, or trailing
  // characters. Numbers follow the JSON grammar exactly (no leading '+',
  // leading zeros, or bare '.'). Non-negative integers parse as unsigned,
  // negative ones as signed; either re-serializes to the original text.
  static Json parse(const std::string& text);

  // Object member access; `set` overwrites an existing key in place so the
  // original insertion order is preserved.
  Json& set(std::string_view key, Json value);

  // Array append.
  Json& push(Json value);

  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint ||
           kind_ == Kind::kDouble;
  }
  [[nodiscard]] std::size_t size() const { return children_.size(); }

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

  enum class Kind : std::uint8_t {
    kNull, kBool, kInt, kUint, kDouble, kString, kObject, kArray,
  };

  void dump_to(std::string& out, int indent) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  // Object members (key used) or array elements (key empty, unused).
  std::vector<std::pair<std::string, Json>> children_;
};

// Writes `json.dump()` to `path` atomically: through a temp file
// `<path>.tmp.<pid>.<n>` renamed over `path`, so `path` holds the old
// document or the new one, never a torn one. Throws CheckError on I/O
// failure, after removing the temp file. Symlinks, devices and pipes are
// written through in place.
void write_json_file(const std::string& path, const Json& json);

}  // namespace vexsim
