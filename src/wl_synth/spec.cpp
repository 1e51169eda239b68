#include "wl_synth/spec.hpp"

#include <cstdlib>

#include "util/check.hpp"
#include "util/shortest_g.hpp"

namespace vexsim::wl_synth {

namespace {

constexpr int kMinOps = 8;
constexpr int kMaxOps = 4096;

[[noreturn]] void bad_spec(const std::string& name, const std::string& why) {
  VEXSIM_CHECK_MSG(false, "bad synthetic spec '"
                              << name << "': " << why
                              << " (grammar: synth:i<ilp>-m<mem>-b<branch>-"
                                 "c<comm>-p<parallel>-n<ops>-s<seed>-"
                                 "f<kib>-st<stride>-cc<compiler>, fields "
                                 "optional, i/m/b/c/p in [0,1], n in ["
                              << kMinOps << "," << kMaxOps
                              << "], f a power of two in [4,1024], st a "
                                 "multiple of 4 in [0,65536])");
  std::abort();  // unreachable: the check above throws
}

double parse_fraction(const std::string& name, char key,
                      const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end != begin + text.size() || text.empty())
    bad_spec(name, std::string("malformed value for '") + key + "'");
  if (!(v >= 0.0 && v <= 1.0))
    bad_spec(name, std::string("'") + key + "' out of [0,1]");
  return v;
}

std::uint64_t parse_uint(const std::string& name, const std::string& key,
                         const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const unsigned long long v = std::strtoull(begin, &end, 10);
  if (end != begin + text.size() || text.empty())
    bad_spec(name, "malformed value for '" + key + "'");
  return v;
}

}  // namespace

std::string SynthSpec::name() const {
  // Dials in their shortest exactly round-tripping spelling: canonical names
  // must round-trip (a lossy mangling would alias distinct specs onto one
  // cache entry), yet stay readable for the common short-decimal dials.
  std::string out(kSynthPrefix);
  const auto dial = [&out](const char* key, double v) {
    char buf[kShortestGChars];
    out += key;
    out.append(buf, shortest_g(buf, v));
  };
  dial("i", ilp);
  dial("-m", mem_intensity);
  dial("-b", branch_density);
  dial("-c", comm_density);
  // Later dials stay out of the canonical name at their defaults so names
  // minted before the dial existed keep their cache identity.
  if (parallel_fraction != 0.0) dial("-p", parallel_fraction);
  out += "-n" + std::to_string(ops) + "-s" + std::to_string(seed);
  if (footprint_kib != 64) out += "-f" + std::to_string(footprint_kib);
  if (stride != 0) out += "-st" + std::to_string(stride);
  if (has_compiler) out += "-cc" + compiler.name();
  return out;
}

bool is_synth_name(const std::string& name) {
  return name.rfind(kSynthPrefix, 0) == 0;
}

SynthSpec parse_spec(const std::string& name) {
  if (!is_synth_name(name)) bad_spec(name, "missing 'synth:' prefix");
  const std::string body = name.substr(kSynthPrefix.size());
  if (body.empty()) bad_spec(name, "empty spec");

  SynthSpec spec;
  std::string seen_keys;  // every key may appear at most once
  std::size_t pos = 0;
  int field_index = 0;
  while (pos <= body.size()) {
    const std::size_t dash = body.find('-', pos);
    const std::string field =
        body.substr(pos, dash == std::string::npos ? dash : dash - pos);
    pos = dash == std::string::npos ? body.size() + 1 : dash + 1;
    ++field_index;
    // A zero-length field means a consecutive or trailing '-'; a one-char
    // field is a key with no value. Name the spot so "i0.8--m0.3" and
    // "i0.8-" are diagnosable at a glance.
    if (field.empty())
      bad_spec(name, "empty field #" + std::to_string(field_index) +
                         " (consecutive or trailing '-')");
    if (field.size() < 2)
      bad_spec(name, "missing value for field '" + field + "'");
    // Two-character "cc" key (compiler variant) before the single-char
    // dials; 'C' marks it in the duplicate-key tracker.
    if (field.size() >= 2 && field[0] == 'c' && field[1] == 'c') {
      if (seen_keys.find('C') != std::string::npos)
        bad_spec(name, "duplicate field 'cc' (earlier value would be "
                       "silently overridden)");
      seen_keys += 'C';
      if (field.size() == 2) bad_spec(name, "missing value for field 'cc'");
      try {
        spec.compiler = cc::CompilerOptions::parse(field.substr(2));
      } catch (const CheckError&) {
        bad_spec(name, "unknown compiler variant '" + field.substr(2) +
                           "' for field 'cc' (valid: " +
                           cc::compiler_variant_names() + ")");
      }
      spec.has_compiler = true;
      continue;
    }
    // Two-character "st" key (load stride) likewise precedes the single-char
    // dials — "st256" must not parse as seed "t256"; 'S' marks it.
    if (field.size() >= 2 && field[0] == 's' && field[1] == 't') {
      if (seen_keys.find('S') != std::string::npos)
        bad_spec(name, "duplicate field 'st' (earlier value would be "
                       "silently overridden)");
      seen_keys += 'S';
      if (field.size() == 2) bad_spec(name, "missing value for field 'st'");
      const std::uint64_t v = parse_uint(name, "st", field.substr(2));
      if (v > 65536 || v % 4 != 0)
        bad_spec(name, "'st' must be a multiple of 4 in [0,65536]");
      spec.stride = static_cast<int>(v);
      continue;
    }
    const char key = field[0];
    if (seen_keys.find(key) != std::string::npos)
      bad_spec(name, std::string("duplicate field '") + key +
                         "' (earlier value would be silently overridden)");
    seen_keys += key;
    const std::string value = field.substr(1);
    switch (key) {
      case 'i': spec.ilp = parse_fraction(name, key, value); break;
      case 'm': spec.mem_intensity = parse_fraction(name, key, value); break;
      case 'b': spec.branch_density = parse_fraction(name, key, value); break;
      case 'c': spec.comm_density = parse_fraction(name, key, value); break;
      case 'p':
        spec.parallel_fraction = parse_fraction(name, key, value);
        break;
      case 'n': {
        const std::uint64_t v = parse_uint(name, std::string(1, key), value);
        if (v < static_cast<std::uint64_t>(kMinOps) ||
            v > static_cast<std::uint64_t>(kMaxOps))
          bad_spec(name, "'n' out of range");
        spec.ops = static_cast<int>(v);
        break;
      }
      case 's': spec.seed = parse_uint(name, std::string(1, key), value); break;
      case 'f': {
        const std::uint64_t v = parse_uint(name, std::string(1, key), value);
        if (v < 4 || v > 1024 || (v & (v - 1)) != 0)
          bad_spec(name, "'f' must be a power of two in [4,1024]");
        spec.footprint_kib = static_cast<int>(v);
        break;
      }
      default:
        bad_spec(name, std::string("unknown field '") + key + "'");
    }
  }
  return spec;
}

}  // namespace vexsim::wl_synth
