#include "stats/json.hpp"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>
#include <type_traits>
#include <unordered_set>

#include "util/check.hpp"
#include "util/shortest_g.hpp"

namespace vexsim {

namespace detail {

// Strict recursive-descent parser over the subset dump() emits. Every
// deviation — bad escape, non-JSON number spelling, overflowing number,
// duplicate key, nesting past Json::kMaxDepth, trailing input — is a
// CheckError naming the byte offset, so a truncated or hand-mangled cache
// record is reported (and treated by callers) as corruption rather than
// silently misread or overflowing the stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : begin_(text.c_str()), p_(begin_), end_(begin_ + text.size()) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    VEXSIM_CHECK_MSG(p_ == end_, "JSON parse error at offset "
                                     << offset()
                                     << ": trailing characters after value");
    return v;
  }

 private:
  [[nodiscard]] std::size_t offset() const {
    return static_cast<std::size_t>(p_ - begin_);
  }

  [[noreturn]] void fail(const std::string& why) const {
    VEXSIM_CHECK_MSG(false,
                     "JSON parse error at offset " << offset() << ": " << why);
    std::abort();  // unreachable: the check above throws
  }

  void skip_ws() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
      ++p_;
  }

  char peek() const {
    if (p_ >= end_) fail("unexpected end of input");
    return *p_;
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++p_;
  }

  bool try_literal(const char* token) {
    const std::size_t len = std::strlen(token);
    if (static_cast<std::size_t>(end_ - p_) < len ||
        std::memcmp(p_, token, len) != 0)
      return false;
    p_ += len;
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_container(true);
      case '[': return parse_container(false);
      case '"': return Json(parse_string());
      case 't':
        if (try_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (try_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (try_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  // An object's members or an array's elements. They collect on a stack
  // shared by every nesting level and move into the container, in one
  // exactly sized allocation, when it closes.
  Json parse_container(bool is_object) {
    if (depth_ == Json::kMaxDepth)
      fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
           " levels");
    ++depth_;
    ++p_;  // the opening '{' or '['
    Json container = is_object ? Json::object() : Json::array();
    const char close = is_object ? '}' : ']';
    const std::size_t base = stack_.size();
    std::unordered_set<std::string> keys;  // filled past kScannedKeys
    skip_ws();
    if (peek() == close) {
      ++p_;
      --depth_;
      return container;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (is_object) {
        key = parse_string();
        check_unique(key, base, keys);
        skip_ws();
        expect(':');
        skip_ws();
      }
      Json value = parse_value();
      stack_.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++p_;
        continue;
      }
      expect(close);
      const auto first = stack_.begin() + static_cast<std::ptrdiff_t>(base);
      container.children()->assign(std::make_move_iterator(first),
                                   std::make_move_iterator(stack_.end()));
      stack_.erase(first, stack_.end());
      --depth_;
      return container;
    }
  }

  // Rejects `key` if an earlier member of the object that starts at
  // stack_[base] has it. The first kScannedKeys members are compared one by
  // one; past them every key goes into `keys`, so a k-member object costs
  // O(k) hash probes rather than O(k^2) comparisons.
  static constexpr std::size_t kScannedKeys = 16;
  void check_unique(const std::string& key, std::size_t base,
                    std::unordered_set<std::string>& keys) {
    bool fresh = true;
    if (stack_.size() - base < kScannedKeys) {
      for (std::size_t i = base; i < stack_.size() && fresh; ++i)
        fresh = stack_[i].first != key;
    } else {
      if (keys.empty())
        for (std::size_t i = base; i < stack_.size(); ++i)
          keys.insert(stack_[i].first);
      fresh = keys.insert(key).second;
    }
    if (!fresh) fail("duplicate key \"" + key + "\"");
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote, escape or control character.
      const char* run = p_;
      while (p_ < end_ && *p_ != '"' && *p_ != '\\' &&
             static_cast<unsigned char>(*p_) >= 0x20)
        ++p_;
      out.append(run, p_);
      if (p_ >= end_) fail("unterminated string");
      const char c = *p_++;
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      if (p_ >= end_) fail("unterminated escape");
      const char esc = *p_++;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    if (end_ - p_ < 4) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = *p_++;
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    // The writer only emits \u00xx for control characters; surrogate pairs
    // are outside the supported subset.
    if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escape");
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  // Skips a run of digits; false when there is none.
  bool digits() {
    const char* const start = p_;
    while (p_ < end_ && is_digit(*p_)) ++p_;
    return p_ != start;
  }

  // JSON's number grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
  // converted straight from the buffer.
  Json parse_number() {
    const char* const start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    if (p_ >= end_ || !is_digit(*p_))
      fail(p_ == start ? "expected a value" : "malformed number");
    if (*p_ == '0' && p_ + 1 < end_ && is_digit(p_[1]))
      fail("malformed number (leading zero)");
    digits();
    bool floating = false;
    if (p_ < end_ && *p_ == '.') {
      ++p_;
      floating = true;
      if (!digits()) fail("malformed number (no digits after '.')");
    }
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      floating = true;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (!digits()) fail("malformed number (no exponent digits)");
    }
    const std::string_view token(start, static_cast<std::size_t>(p_ - start));
    if (floating) {
      double v = 0.0;
      const std::errc ec = std::from_chars(start, p_, v).ec;
      if (ec == std::errc()) return Json(v);
      // from_chars reports overflow and underflow to zero alike. Only
      // overflow is malformed; an underflowing literal reads as the nearest
      // double, as strtod returns it.
      const std::string text(token);
      v = std::strtod(text.c_str(), nullptr);
      if (v == HUGE_VAL || v == -HUGE_VAL)
        fail("out-of-range number '" + text + "'");
      return Json(v);
    }
    if (*start == '-') {
      std::int64_t v = 0;
      if (std::from_chars(start, p_, v).ec != std::errc())
        fail("out-of-range integer '" + std::string(token) + "'");
      return Json(v);
    }
    std::uint64_t v = 0;
    if (std::from_chars(start, p_, v).ec != std::errc())
      fail("out-of-range integer '" + std::string(token) + "'");
    return Json(v);
  }

  const char* begin_;
  const char* p_;
  const char* end_;
  int depth_ = 0;  // containers open around p_
  Json::Members stack_;
};

}  // namespace detail

Json Json::parse(const std::string& text) {
  return detail::JsonParser(text).parse_document();
}

bool Json::as_bool() const {
  const bool* b = std::get_if<bool>(&value_);
  VEXSIM_CHECK_MSG(b != nullptr, "as_bool() on non-bool JSON value");
  return *b;
}

std::int64_t Json::as_int64() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
    VEXSIM_CHECK_MSG(*u <= static_cast<std::uint64_t>(INT64_MAX),
                     "as_int64() overflow on " << *u);
    return static_cast<std::int64_t>(*u);
  }
  VEXSIM_CHECK_MSG(false, "as_int64() on non-integer JSON value");
  std::abort();  // unreachable: the check above throws
}

std::uint64_t Json::as_uint64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    VEXSIM_CHECK_MSG(*i >= 0, "as_uint64() on negative value " << *i);
    return static_cast<std::uint64_t>(*i);
  }
  VEXSIM_CHECK_MSG(false, "as_uint64() on non-integer JSON value");
  std::abort();  // unreachable: the check above throws
}

double Json::as_double() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value_))
    return static_cast<double>(*i);
  if (const auto* u = std::get_if<std::uint64_t>(&value_))
    return static_cast<double>(*u);
  VEXSIM_CHECK_MSG(false, "as_double() on non-numeric JSON value");
  std::abort();  // unreachable: the check above throws
}

const std::string& Json::as_string() const {
  const std::string* s = std::get_if<std::string>(&value_);
  VEXSIM_CHECK_MSG(s != nullptr, "as_string() on non-string JSON value");
  return *s;
}

const Json* Json::find(std::string_view key) const {
  const Object* obj = std::get_if<Object>(&value_);
  VEXSIM_CHECK_MSG(obj != nullptr, "find() on non-object JSON value");
  for (const auto& [k, v] : obj->members)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  VEXSIM_CHECK_MSG(v != nullptr, "missing JSON key \"" << key << "\"");
  return *v;
}

const Json& Json::at(std::size_t i) const {
  const Array* arr = std::get_if<Array>(&value_);
  VEXSIM_CHECK_MSG(arr != nullptr, "at(index) on non-array JSON value");
  VEXSIM_CHECK_MSG(i < arr->members.size(),
                   "JSON array index " << i << " out of range (size "
                                       << arr->members.size() << ")");
  return arr->members[i].second;
}

Json Json::object() {
  Json j;
  j.value_.emplace<Object>();
  return j;
}

Json Json::array() {
  Json j;
  j.value_.emplace<Array>();
  return j;
}

Json& Json::set(std::string_view key, Json value) {
  Object* obj = std::get_if<Object>(&value_);
  VEXSIM_CHECK_MSG(obj != nullptr, "set() on non-object JSON value");
  for (auto& [k, v] : obj->members) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj->members.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  Array* arr = std::get_if<Array>(&value_);
  VEXSIM_CHECK_MSG(arr != nullptr, "push() on non-array JSON value");
  arr->members.emplace_back(std::string(), std::move(value));
  return *this;
}

namespace {

// Appends `s` escaped for a JSON string literal, copying the runs between
// characters that need an escape in one piece.
void append_escaped(std::string& out, std::string_view s) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s, run, s.size() - run);
}

template <typename Int>
void append_integer(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

// gnu::flatten: the parser above exhausts GCC's -O3 inline-unit-growth
// budget for this file, which left every `out +=` below an out-of-line call
// and dump() ~15% slower; flattening inlines them again.
[[gnu::flatten]] void Json::dump_to(std::string& out, int indent) const {
  if (const Members* children = this->children()) {
    const bool obj = is_object();
    if (children->empty()) {
      out += obj ? "{}" : "[]";
      return;
    }
    out += obj ? "{\n" : "[\n";
    const auto child_pad = static_cast<std::size_t>(indent + 1) * 2;
    for (std::size_t i = 0; i < children->size(); ++i) {
      out.append(child_pad, ' ');
      if (obj) {
        out += '"';
        append_escaped(out, (*children)[i].first);
        out += "\": ";
      }
      (*children)[i].second.dump_to(out, indent + 1);
      if (i + 1 < children->size()) out += ',';
      out += '\n';
    }
    out.append(child_pad - 2, ' ');
    out += obj ? '}' : ']';
    return;
  }
  std::visit(
      [&out](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>) {
          out += v ? "true" : "false";
        } else if constexpr (std::is_same_v<T, std::int64_t> ||
                             std::is_same_v<T, std::uint64_t>) {
          append_integer(out, v);
        } else if constexpr (std::is_same_v<T, double>) {
          // JSON has no nan/inf literal; a bare `nan` token would make the
          // whole document unparseable for downstream consumers. A negative
          // zero keeps its fraction: "-0" is an integer in JSON's grammar
          // and would read back as 0.
          if (!std::isfinite(v)) {
            out += "null";
          } else if (v == 0 && std::signbit(v)) {
            out += "-0.0";
          } else {
            char buf[kShortestGChars];
            out.append(buf, shortest_g(buf, v));
          }
        } else if constexpr (std::is_same_v<T, std::string>) {
          out += '"';
          append_escaped(out, v);
          out += '"';
        } else {
          out += "null";  // std::monostate; containers returned above
        }
      },
      value_);
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  out += '\n';
  return out;
}

void write_json_file(const std::string& path, const Json& json) {
  // A symlink, device or pipe (--json /dev/stdout) is written through in
  // place: renaming over it would replace the link or the device itself.
  std::error_code ec;
  const std::filesystem::file_status st =
      std::filesystem::symlink_status(path, ec);
  if (std::filesystem::is_symlink(st) || std::filesystem::is_other(st)) {
    std::ofstream os(path, std::ios::binary);
    os << json.dump();
    os.flush();
    VEXSIM_CHECK_MSG(os.good(), "write to " << path << " failed");
    return;
  }
  // Anything else is written beside `path` and renamed over it, so a reader
  // or a crash never sees a torn document. The temp name is unique per
  // process and call: concurrent writers of one path never share a temp
  // file, and the last rename wins.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  std::ofstream os(tmp, std::ios::binary);
  VEXSIM_CHECK_MSG(os.good(), "cannot open " << tmp << " for writing");
  os << json.dump();
  os.close();
  if (os.fail()) {
    std::remove(tmp.c_str());
    VEXSIM_CHECK_MSG(false, "write to " << tmp << " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    VEXSIM_CHECK_MSG(false, "failed to move " << tmp << " over " << path);
  }
}

}  // namespace vexsim
