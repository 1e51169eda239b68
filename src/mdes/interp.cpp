#include "mdes/interp.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/shortest_g.hpp"

namespace vexsim::mdes {

Value Value::integer(std::int64_t v) {
  Value out;
  out.kind = Kind::kInt;
  out.i = v;
  return out;
}
Value Value::real(double v) {
  Value out;
  out.kind = Kind::kDouble;
  out.d = v;
  return out;
}
Value Value::boolean(bool v) {
  Value out;
  out.kind = Kind::kBool;
  out.b = v;
  return out;
}
Value Value::string(std::string v) {
  Value out;
  out.kind = Kind::kString;
  out.s = std::move(v);
  return out;
}

double Value::as_double() const {
  return kind == Kind::kInt ? static_cast<double>(i) : d;
}

std::string format_double(double v) {
  return std::isfinite(v) ? shortest_g(v) : "nan";
}

std::string Value::str() const {
  switch (kind) {
    case Kind::kInt: return std::to_string(i);
    case Kind::kDouble: return format_double(d);
    case Kind::kBool: return b ? "true" : "false";
    case Kind::kString: return s;
  }
  return "";
}

const char* Value::kind_name() const {
  switch (kind) {
    case Kind::kInt: return "int";
    case Kind::kDouble: return "double";
    case Kind::kBool: return "bool";
    case Kind::kString: return "string";
  }
  return "?";
}

void Interp::bind(const std::string& name, Value v) {
  for (auto& [existing, value] : bindings_) {
    if (existing == name) {
      value = std::move(v);
      return;
    }
  }
  bindings_.emplace_back(name, std::move(v));
}

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

// Recursive-descent evaluator over one raw value text. Evaluation errors
// throw EvalError internally (caught at the eval() boundary and converted
// into a diagnostic at the entry's location) so deep recursion unwinds
// cleanly; $(var) resolution tracks the in-progress name stack to turn
// reference cycles into errors instead of infinite recursion.
class Evaluator {
 public:
  struct EvalError {
    std::string message;
  };

  Evaluator(const Interp& interp, std::vector<std::string>& visiting)
      : interp_(interp), visiting_(visiting) {}

  Value eval_full(const std::string& text) {
    text_ = &text;
    pos_ = 0;
    skip_ws();
    const Value v = parse_expr();
    skip_ws();
    if (pos_ != text.size())
      throw EvalError{"trailing characters '" + text.substr(pos_) + "' in '" +
                      text + "'"};
    return v;
  }

 private:
  Value parse_expr() {
    Value lhs = parse_term();
    for (;;) {
      skip_ws();
      if (peek() == '+' || peek() == '-') {
        const char op = take();
        const Value rhs = parse_term();
        lhs = arith(lhs, rhs, op);
      } else {
        return lhs;
      }
    }
  }

  Value parse_term() {
    Value lhs = parse_factor();
    for (;;) {
      skip_ws();
      if (peek() == '*' || peek() == '/') {
        const char op = take();
        const Value rhs = parse_factor();
        lhs = arith(lhs, rhs, op);
      } else {
        return lhs;
      }
    }
  }

  Value parse_factor() {
    skip_ws();
    if (pos_ >= text_->size())
      throw EvalError{"expression ends where a value was expected"};
    const char c = peek();
    if (c == '(') {
      take();
      const Value v = parse_expr();
      skip_ws();
      expect(')');
      return v;
    }
    if (c == '-') {
      take();
      const Value v = parse_factor();
      require_number(v, "unary '-'");
      return v.kind == Value::Kind::kInt ? Value::integer(-v.i)
                                         : Value::real(-v.d);
    }
    if (c == '$') return parse_var();
    if (c == '\'' || c == '"') return parse_string();
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.')
      return parse_number();
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_')
      return parse_word();
    throw EvalError{std::string("unexpected character '") + c + "'"};
  }

  Value parse_var() {
    expect('$');
    expect('(');
    std::string name;
    while (pos_ < text_->size() && is_ident_char((*text_)[pos_]))
      name += take();
    expect(')');
    if (name.empty()) throw EvalError{"empty $() variable reference"};
    return resolve(name);
  }

  Value resolve(const std::string& name) {
    for (const auto& [bound, value] : interp_.bindings_)
      if (bound == name) return value;
    const Entry* entry = interp_.file_->global().find(name);
    if (entry == nullptr)
      throw EvalError{"unknown variable $(" + name + ")"};
    for (const std::string& open : visiting_) {
      if (open == name) {
        std::string chain;
        for (const std::string& v : visiting_) chain += "$(" + v + ") -> ";
        throw EvalError{"cyclic variable reference " + chain + "$(" + name +
                        ")"};
      }
    }
    visiting_.push_back(name);
    Evaluator nested(interp_, visiting_);
    const Value v = nested.eval_full(entry->value);
    visiting_.pop_back();
    return v;
  }

  Value parse_string() {
    const char quote = take();
    std::string out;
    for (;;) {
      if (pos_ >= text_->size())
        throw EvalError{"unterminated string literal"};
      const char c = take();
      if (c == quote) break;
      if (c == '$' && peek() == '(') {
        --pos_;  // re-read the '$(' as a variable reference
        const Value v = parse_var();
        out += v.str();  // textual splice, like SESC's $(var) in values
      } else {
        out += c;
      }
    }
    return Value::string(std::move(out));
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool is_double = false;
    while (pos_ < text_->size()) {
      const char c = (*text_)[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.') {
        is_double = true;
        ++pos_;
      } else if (c == 'e' || c == 'E') {
        is_double = true;
        ++pos_;
        if (pos_ < text_->size() &&
            ((*text_)[pos_] == '+' || (*text_)[pos_] == '-'))
          ++pos_;
      } else {
        break;
      }
    }
    const std::string token = text_->substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    if (!is_double) {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == ERANGE)
        throw EvalError{"integer '" + token + "' overflows"};
      if (end == nullptr || *end != '\0')
        throw EvalError{"malformed number '" + token + "'"};
      return Value::integer(v);
    }
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v))
      throw EvalError{"malformed number '" + token + "'"};
    return Value::real(v);
  }

  Value parse_word() {
    std::string word;
    while (pos_ < text_->size() && is_ident_char((*text_)[pos_]))
      word += take();
    if (word == "true") return Value::boolean(true);
    if (word == "false") return Value::boolean(false);
    if (word == "repeat") return parse_repeat();
    throw EvalError{"unknown word '" + word +
                    "' (expected true, false, repeat(...), a number, a "
                    "'string', or $(var))"};
  }

  // repeat('component-s@', n): n copies joined with '+', '@' replaced by
  // the 1-based copy index — per-context synthetic workload mixes.
  Value parse_repeat() {
    skip_ws();
    expect('(');
    const Value body = parse_expr();
    if (body.kind != Value::Kind::kString)
      throw EvalError{"repeat() needs a string first argument"};
    skip_ws();
    expect(',');
    const Value count = parse_expr();
    if (count.kind != Value::Kind::kInt || count.i < 1 || count.i > 1024)
      throw EvalError{"repeat() count must be an int in [1, 1024]"};
    skip_ws();
    expect(')');
    std::string out;
    for (std::int64_t k = 1; k <= count.i; ++k) {
      if (k > 1) out += '+';
      for (const char c : body.s) {
        if (c == '@')
          out += std::to_string(k);
        else
          out += c;
      }
    }
    return Value::string(std::move(out));
  }

  Value arith(const Value& lhs, const Value& rhs, char op) {
    require_number(lhs, std::string("'") + op + "'");
    require_number(rhs, std::string("'") + op + "'");
    const bool ints =
        lhs.kind == Value::Kind::kInt && rhs.kind == Value::Kind::kInt;
    switch (op) {
      case '+':
        return ints ? Value::integer(lhs.i + rhs.i)
                    : Value::real(lhs.as_double() + rhs.as_double());
      case '-':
        return ints ? Value::integer(lhs.i - rhs.i)
                    : Value::real(lhs.as_double() - rhs.as_double());
      case '*':
        return ints ? Value::integer(lhs.i * rhs.i)
                    : Value::real(lhs.as_double() * rhs.as_double());
      case '/':
        if (ints) {
          if (rhs.i == 0) throw EvalError{"division by zero"};
          // Exact quotients stay int (64*1024/16); inexact ones promote so
          // $(issue)/2 never silently truncates.
          if (lhs.i % rhs.i == 0) return Value::integer(lhs.i / rhs.i);
          return Value::real(static_cast<double>(lhs.i) /
                             static_cast<double>(rhs.i));
        }
        if (rhs.as_double() == 0.0) throw EvalError{"division by zero"};
        return Value::real(lhs.as_double() / rhs.as_double());
      default: throw EvalError{"bad operator"};
    }
  }

  static void require_number(const Value& v, const std::string& where) {
    if (!v.is_number())
      throw EvalError{std::string(v.kind_name()) + " value '" + v.str() +
                      "' used in arithmetic (" + where + ")"};
  }

  char peek() const { return pos_ < text_->size() ? (*text_)[pos_] : '\0'; }
  char take() { return (*text_)[pos_++]; }
  void expect(char c) {
    if (peek() != c)
      throw EvalError{std::string("expected '") + c + "'" +
                      (pos_ < text_->size()
                           ? std::string(", found '") + peek() + "'"
                           : std::string(" at end of value"))};
    ++pos_;
  }
  void skip_ws() {
    while (pos_ < text_->size() &&
           std::isspace(static_cast<unsigned char>((*text_)[pos_])) != 0)
      ++pos_;
  }

  const Interp& interp_;
  std::vector<std::string>& visiting_;
  const std::string* text_ = nullptr;
  std::size_t pos_ = 0;
};

std::optional<Value> Interp::eval(const std::string& raw,
                                  const SourceLoc& loc,
                                  Diagnostics& diags) const {
  std::vector<std::string> visiting;
  Evaluator ev(*this, visiting);
  try {
    return ev.eval_full(raw);
  } catch (const Evaluator::EvalError& e) {
    diags.add(loc, e.message);
    return std::nullopt;
  }
}

std::optional<std::int64_t> Interp::eval_int(const std::string& raw,
                                             const SourceLoc& loc,
                                             Diagnostics& diags) const {
  const auto v = eval(raw, loc, diags);
  if (!v) return std::nullopt;
  if (v->kind != Value::Kind::kInt) {
    diags.add(loc, std::string("expected an int, got ") + v->kind_name() +
                       " '" + v->str() + "'");
    return std::nullopt;
  }
  return v->i;
}

std::optional<double> Interp::eval_double(const std::string& raw,
                                          const SourceLoc& loc,
                                          Diagnostics& diags) const {
  const auto v = eval(raw, loc, diags);
  if (!v) return std::nullopt;
  if (!v->is_number()) {
    diags.add(loc, std::string("expected a number, got ") + v->kind_name() +
                       " '" + v->str() + "'");
    return std::nullopt;
  }
  return v->as_double();
}

std::optional<bool> Interp::eval_bool(const std::string& raw,
                                      const SourceLoc& loc,
                                      Diagnostics& diags) const {
  const auto v = eval(raw, loc, diags);
  if (!v) return std::nullopt;
  if (v->kind != Value::Kind::kBool) {
    diags.add(loc, std::string("expected true/false, got ") + v->kind_name() +
                       " '" + v->str() + "'");
    return std::nullopt;
  }
  return v->b;
}

std::optional<std::string> Interp::eval_string(const std::string& raw,
                                               const SourceLoc& loc,
                                               Diagnostics& diags) const {
  const auto v = eval(raw, loc, diags);
  if (!v) return std::nullopt;
  if (v->kind != Value::Kind::kString) {
    diags.add(loc, std::string("expected a 'string', got ") + v->kind_name() +
                       " '" + v->str() + "'");
    return std::nullopt;
  }
  return v->s;
}

SectionReader::SectionReader(const Interp& interp, const Section& section,
                             Diagnostics& diags)
    : interp_(&interp),
      section_(&section),
      diags_(&diags),
      consumed_(section.entries.size(), false) {}

const Entry* SectionReader::take(const std::string& key) {
  for (std::size_t i = 0; i < section_->entries.size(); ++i) {
    const Entry& e = section_->entries[i];
    if (e.index.empty() && e.key == key) {
      consumed_[i] = true;
      return &e;
    }
  }
  return nullptr;
}

std::int64_t SectionReader::get_int(const std::string& key, std::int64_t def) {
  const Entry* e = take(key);
  if (e == nullptr) return def;
  return interp_->eval_int(e->value, e->loc, *diags_).value_or(def);
}

double SectionReader::get_double(const std::string& key, double def) {
  const Entry* e = take(key);
  if (e == nullptr) return def;
  return interp_->eval_double(e->value, e->loc, *diags_).value_or(def);
}

bool SectionReader::get_bool(const std::string& key, bool def) {
  const Entry* e = take(key);
  if (e == nullptr) return def;
  return interp_->eval_bool(e->value, e->loc, *diags_).value_or(def);
}

std::string SectionReader::get_string(const std::string& key,
                                      std::string def) {
  const Entry* e = take(key);
  if (e == nullptr) return def;
  return interp_->eval_string(e->value, e->loc, *diags_).value_or(def);
}

std::optional<std::string> SectionReader::get_string_opt(
    const std::string& key) {
  const Entry* e = take(key);
  if (e == nullptr) return std::nullopt;
  return interp_->eval_string(e->value, e->loc, *diags_);
}

std::optional<std::int64_t> SectionReader::get_int_opt(
    const std::string& key) {
  const Entry* e = take(key);
  if (e == nullptr) return std::nullopt;
  return interp_->eval_int(e->value, e->loc, *diags_);
}

int SectionReader::get_int_in(const std::string& key, int def, int lo,
                              int hi) {
  const Entry* e = take(key);
  if (e == nullptr) return def;
  const auto v = interp_->eval_int(e->value, e->loc, *diags_);
  if (!v) return def;
  if (*v < lo || *v > hi) {
    std::ostringstream os;
    os << key << " = " << *v << " out of range [" << lo << ", " << hi << "]";
    diags_->add(e->loc, os.str());
    return def;
  }
  return static_cast<int>(*v);
}

bool SectionReader::has_indexed(const std::string& key) const {
  for (const Entry& e : section_->entries)
    if (!e.index.empty() && e.key == key) return true;
  return false;
}

std::vector<std::optional<std::string>> SectionReader::indexed_strings(
    const std::string& key, int count) {
  std::vector<std::optional<std::string>> out(
      static_cast<std::size_t>(count < 0 ? 0 : count));
  std::vector<const Entry*> covered_by(out.size(), nullptr);
  for (std::size_t n = 0; n < section_->entries.size(); ++n) {
    const Entry& e = section_->entries[n];
    if (e.index.empty() || e.key != key) continue;
    consumed_[n] = true;
    // `lo` or `lo:hi`; the ':' never appears in index arithmetic, so a
    // plain split is unambiguous.
    const std::size_t colon = e.index.find(':');
    const std::string lo_text =
        colon == std::string::npos ? e.index : e.index.substr(0, colon);
    const std::string hi_text =
        colon == std::string::npos ? lo_text : e.index.substr(colon + 1);
    const auto lo = interp_->eval_int(lo_text, e.loc, *diags_);
    const auto hi = interp_->eval_int(hi_text, e.loc, *diags_);
    if (!lo || !hi) continue;
    if (*lo > *hi) {
      std::ostringstream os;
      os << key << "[" << e.index << "]: empty range (" << *lo << " > " << *hi
         << ")";
      diags_->add(e.loc, os.str());
      continue;
    }
    if (*lo < 0 || *hi >= count) {
      std::ostringstream os;
      os << key << "[" << e.index << "]: index range " << *lo << ":" << *hi
         << " outside [0, " << count - 1 << "]";
      diags_->add(e.loc, os.str());
      continue;
    }
    const auto value = interp_->eval_string(e.value, e.loc, *diags_);
    if (!value) continue;
    for (std::int64_t idx = *lo; idx <= *hi; ++idx) {
      auto& slot = out[static_cast<std::size_t>(idx)];
      const Entry*& owner = covered_by[static_cast<std::size_t>(idx)];
      if (owner != nullptr) {
        std::ostringstream os;
        os << key << "[" << e.index << "]: index " << idx
           << " already covered by " << key << "[" << owner->index << "] at "
           << owner->loc.str();
        diags_->add(e.loc, os.str());
        break;
      }
      owner = &e;
      slot = *value;
    }
  }
  return out;
}

void SectionReader::check_unknown(const std::string& what) {
  for (std::size_t i = 0; i < section_->entries.size(); ++i) {
    if (consumed_[i]) continue;
    const Entry& e = section_->entries[i];
    const std::string shown =
        e.index.empty() ? e.key : e.key + "[" + e.index + "]";
    diags_->add(e.loc, "unknown key '" + shown + "' in " + what);
  }
}

}  // namespace vexsim::mdes
