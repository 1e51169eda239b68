#include "util/cli.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "util/check.hpp"

namespace vexsim {

namespace {

// Whether a strto* call that just parsed `value` up to `end` read one whole,
// in-range number: not empty, no leading space (which strto* would skip),
// nothing left over, and no overflow.
bool parsed_whole(const std::string& value, const char* end) {
  return !value.empty() &&
         std::isspace(static_cast<unsigned char>(value[0])) == 0 &&
         *end == '\0' && errno != ERANGE;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  // A repeated option is a hard error, not last-wins: in a sweep script a
  // second `--seed`/`--budget` is almost always a typo'd flag name, and
  // silently overwriting the first value masks it for the whole sweep.
  const auto insert = [this](std::string name, std::string value) {
    const auto it = options_.find(name);
    VEXSIM_CHECK_MSG(it == options_.end(),
                     "duplicate option --" << name << " (given '" << it->second
                                           << "' and '" << value
                                           << "'); each option may appear "
                                              "only once");
    options_.emplace(std::move(name), std::move(value));
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      insert(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      insert(std::move(arg), argv[++i]);
    } else {
      insert(std::move(arg), "true");
    }
  }
}

const std::string* Cli::find(const std::string& name) const {
  read_.insert(name);
  const auto it = options_.find(name);
  return it == options_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& name) const { return find(name) != nullptr; }

std::string Cli::get(const std::string& name, const std::string& def) const {
  const std::string* value = find(name);
  return value == nullptr ? def : *value;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  const std::string* found = find(name);
  if (found == nullptr) return def;
  const std::string& value = *found;
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(value.c_str(), &end, 0);
  VEXSIM_CHECK_MSG(parsed_whole(value, end),
                   "--" << name << " expects an integer, got '" << value
                        << "'");
  return n;
}

double Cli::get_double(const std::string& name, double def) const {
  const std::string* found = find(name);
  if (found == nullptr) return def;
  const std::string& value = *found;
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(value.c_str(), &end);
  VEXSIM_CHECK_MSG(parsed_whole(value, end) && std::isfinite(d),
                   "--" << name << " expects a number, got '" << value << "'");
  return d;
}

int Cli::get_int_in(const std::string& name, int def, int lo, int hi) const {
  const std::int64_t n = get_int(name, def);
  VEXSIM_CHECK_MSG(n >= lo && n <= hi, "--" << name << " must be in [" << lo
                                            << ", " << hi << "], got " << n);
  return static_cast<int>(n);
}

std::uint64_t Cli::get_positive(const std::string& name,
                                std::uint64_t def) const {
  if (!has(name)) return def;
  const std::int64_t n = get_int(name, 0);
  VEXSIM_CHECK_MSG(n >= 1, "--" << name << " must be >= 1, got " << n);
  return static_cast<std::uint64_t>(n);
}

int Cli::jobs(int def) const {
  VEXSIM_CHECK_MSG(def >= 1, "default --jobs must be positive, got " << def);
  return get_int_in("jobs", def, 1, INT_MAX);
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const std::string* value = find(name);
  if (value == nullptr) return def;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  VEXSIM_CHECK_MSG(*value == "false" || *value == "0" || *value == "no",
                   "--" << name << " expects true/false/1/0/yes/no, got '"
                        << *value << "'");
  return false;
}

void Cli::reject_unknown() const {
  const auto flag_list = [](const auto& names) {
    std::string out;
    for (const std::string& name : names)
      out += (out.empty() ? "--" : ", --") + name;
    return out;
  };
  std::vector<std::string> unknown;
  for (const auto& [name, value] : options_)
    if (read_.count(name) == 0) unknown.push_back(name);
  VEXSIM_CHECK_MSG(unknown.empty(),
                   "unknown option" << (unknown.size() > 1 ? "s " : " ")
                                    << flag_list(unknown)
                                    << "; this program reads "
                                    << (read_.empty() ? "no options"
                                                      : flag_list(read_)));
}

}  // namespace vexsim
