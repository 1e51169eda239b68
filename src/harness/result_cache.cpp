#include "harness/result_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "harness/stat_fields.hpp"
#include "isa/config_params.hpp"
#include "stats/json.hpp"
#include "util/check.hpp"
#include "wl_synth/spec.hpp"
#include "workloads/workloads.hpp"

namespace vexsim::harness {

namespace {

// Incremental FNV-1a over labelled fields, finished through the splitmix64
// mixer so single-bit config changes flip half the key bits. Every value is
// length- or tag-delimited, so field sequences never alias.
class Fingerprint {
 public:
  Fingerprint& u64(std::uint64_t v) {
    bytes(&v, sizeof v);
    return *this;
  }
  Fingerprint& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  Fingerprint& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  Fingerprint& flag(bool v) { return u64(v ? 1 : 0); }
  Fingerprint& str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
    return *this;
  }

  [[nodiscard]] std::uint64_t finish() const {
    std::uint64_t z = h_ + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i)
      h_ = (h_ ^ p[i]) * 0x100000001B3ull;
  }

  std::uint64_t h_ = 0xCBF29CE484222325ull;  // FNV-1a 64-bit offset basis
};

// Each row as its 64-bit sign extension: i64 for the int blocks, and for
// the uint32 ones the same bytes as u64.
template <typename Block, typename T, std::size_t N>
void hash_params(Fingerprint& fp, const ConfigParam<Block, T> (&params)[N],
                 const Block& block) {
  for (const auto& p : params) fp.i64(block.*p.member);
}

void hash_cache_config(Fingerprint& fp, const CacheConfig& c) {
  hash_params(fp, kCacheParams, c);
  fp.flag(c.perfect);
}

void hash_machine(Fingerprint& fp, const MachineConfig& cfg) {
  fp.i64(cfg.clusters);
  hash_params(fp, kClusterParams, cfg.cluster);
  fp.u64(cfg.cluster_overrides.size());
  for (const ClusterResourceConfig& c : cfg.cluster_overrides)
    hash_params(fp, kClusterParams, c);
  fp.flag(cfg.branch_on_cluster0_only);
  hash_params(fp, kLatencyParams, cfg.lat);
  hash_cache_config(fp, cfg.icache);
  hash_cache_config(fp, cfg.dcache);
  fp.i64(cfg.hw_threads);
  fp.u64(static_cast<std::uint64_t>(cfg.technique.merge))
      .u64(static_cast<std::uint64_t>(cfg.technique.split))
      .u64(static_cast<std::uint64_t>(cfg.technique.comm));
  fp.flag(cfg.cluster_renaming);
  fp.u64(static_cast<std::uint64_t>(cfg.rf_org));
  fp.flag(cfg.stall_on_store_miss);
  // Memory backend: every parameter that can change a hierarchy trajectory.
  // Hashed unconditionally (fixed runs too) — the kind field alone keeps
  // fixed and hierarchy points from ever aliasing, and hashing the rest
  // costs nothing while guaranteeing a retuned L2/DRAM never serves stale
  // cached results.
  fp.u64(static_cast<std::uint64_t>(cfg.memory.backend));
  fp.u64(cfg.memory.l1_mshrs);
  hash_params(fp, kL2Params, cfg.memory.l2);
  hash_params(fp, kDramParams, cfg.memory.dram);
}

// Resolved, order-canonical form of a workload name: a paper mix label
// expands to its component list, and every synthetic component is rewritten
// to its full canonical mangling, so equivalent spellings share one entry.
std::string canonical_workload(const std::string& name) {
  const wl::WorkloadSpec spec = wl::workload(name);
  std::string out;
  for (std::size_t i = 0; i < spec.benchmarks.size(); ++i) {
    const std::string& component = spec.benchmarks[i];
    if (i > 0) out += '+';
    if (wl_synth::is_synth_name(component))
      out += wl_synth::parse_spec(component).name();
    else
      out += component;
  }
  return out;
}

// A file's contents in one sized read, or nullopt. Records are renamed into
// place complete, so the size at open is the record's size; a short read
// (or anything that is not a plain file) is a miss like any other
// unreadable record.
std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> text;
  struct stat st {};
  if (::fstat(fd, &st) == 0) {
    text.emplace(static_cast<std::size_t>(st.st_size), '\0');
    if (::read(fd, text->data(), text->size()) != st.st_size) text.reset();
  }
  ::close(fd);
  return text;
}

bool is_hex16(std::string_view s) {
  if (s.size() != 16) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

Json result_json(const RunResult& r) {
  Json out = Json::object();
  out.set("issue_width", r.issue_width)
      .set("attempts", r.attempts)
      .set("sim", fields_json(kSimFields, r.sim))
      .set("icache", fields_json(kCacheFields, r.icache))
      .set("dcache", fields_json(kCacheFields, r.dcache));
  // Hierarchy-only: fixed-backend records keep the pre-hierarchy shape so a
  // warm cache replays byte-identical JSON for pre-existing sweeps.
  if (r.memory.present) {
    Json memory = Json::object();
    memory.set("imshr", fields_json(kMshrFields, r.memory.imshr))
        .set("dmshr", fields_json(kMshrFields, r.memory.dmshr))
        .set("l2", fields_json(kCacheFields, r.memory.l2))
        .set("dram", fields_json(kDramFields, r.memory.dram));
    out.set("memory", std::move(memory));
  }

  Json compile = fields_json(kCompileFields, r.compile);
  compile.set("present", r.compile.present);

  Json instances = Json::array();
  for (const InstanceResult& inst : r.instances) {
    Json ij = instance_json(inst);
    ij.set("counters", fields_json(kCounterFields, inst.counters));
    instances.push(std::move(ij));
  }

  out.set("merge", fields_json(kMergeFields, r.merge))
      .set("compile", std::move(compile))
      .set("instances", std::move(instances));
  return out;
}

RunResult result_from_json(const Json& j) {
  RunResult r;
  r.issue_width = static_cast<int>(j.at("issue_width").as_int64());
  r.attempts = static_cast<int>(j.at("attempts").as_int64());
  read_fields(j.at("sim"), kSimFields, r.sim);
  read_fields(j.at("icache"), kCacheFields, r.icache);
  read_fields(j.at("dcache"), kCacheFields, r.dcache);
  if (const Json* memory = j.find("memory")) {
    r.memory.present = true;
    read_fields(memory->at("imshr"), kMshrFields, r.memory.imshr);
    read_fields(memory->at("dmshr"), kMshrFields, r.memory.dmshr);
    read_fields(memory->at("l2"), kCacheFields, r.memory.l2);
    read_fields(memory->at("dram"), kDramFields, r.memory.dram);
  }
  read_fields(j.at("merge"), kMergeFields, r.merge);

  const Json& compile = j.at("compile");
  read_fields(compile, kCompileFields, r.compile);
  r.compile.present = compile.at("present").as_bool();

  const Json& instances = j.at("instances");
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Json& ij = instances.at(i);
    InstanceResult inst = instance_from_json(ij);
    read_fields(ij.at("counters"), kCounterFields, inst.counters);
    r.instances.push_back(std::move(inst));
  }
  return r;
}

}  // namespace

std::uint64_t point_fingerprint(const MachineConfig& cfg,
                                const std::string& workload,
                                const ExperimentOptions& opt) {
  Fingerprint fp;
  fp.str(kSimVersionTag);
  hash_machine(fp, cfg);
  fp.str(canonical_workload(workload));
  fp.f64(opt.scale)
      .u64(opt.budget)
      .u64(opt.timeslice)
      .u64(opt.max_cycles)
      .u64(opt.seed)
      .flag(opt.fast_forward)
      // Slot of the retired fused-engine option, true in every cached run:
      // hashing the constant keeps every existing cache key valid.
      .flag(true);
  // Compiler pass-pipeline options: every knob the compiled code depends
  // on, so points simulated under different compiler settings can never
  // alias one cache record. verify_each_pass is deliberately excluded —
  // it is diagnostic-only and never changes the emitted code, so cached
  // trajectories stay valid (and byte-identical) under --cc-verify. The
  // modulo-scheduling limits are constants; hashing them anyway keeps every
  // existing cache key valid.
  fp.u64(static_cast<std::uint64_t>(opt.compiler.assign))
      .flag(opt.compiler.modulo_schedule)
      .i64(opt.compiler.max_ii)
      .i64(opt.compiler.max_stages);
  return fp.finish();
}

std::string fingerprint_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

std::uint64_t parse_size_bytes(const std::string& spec) {
  constexpr const char* kForm =
      "expected a byte count up to 2^63-1 like 1048576, 512K, 64M or 2G";
  VEXSIM_CHECK_MSG(!spec.empty() && spec != "true",
                   "empty size spec; " << kForm);
  std::uint64_t mult = 1;
  std::string digits = spec;
  switch (std::tolower(static_cast<unsigned char>(spec.back()))) {
    case 'k': mult = 1024ull; break;
    case 'm': mult = 1024ull * 1024; break;
    case 'g': mult = 1024ull * 1024 * 1024; break;
    default: break;
  }
  if (mult != 1) digits.pop_back();
  const bool numeric =
      !digits.empty() && digits.size() <= 15 &&
      std::all_of(digits.begin(), digits.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      });
  // At most 15 digits cannot overflow stoull; the product can, so bound the
  // count before multiplying.
  VEXSIM_CHECK_MSG(numeric && std::stoull(digits) <=
                                  static_cast<std::uint64_t>(INT64_MAX) / mult,
                   "bad size spec '" << spec << "'; " << kForm);
  return std::stoull(digits) * mult;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  VEXSIM_CHECK_MSG(!dir_.empty(), "result cache directory must be non-empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  VEXSIM_CHECK_MSG(!ec, "cannot create result cache directory " << dir_ << ": "
                                                                << ec.message());
}

std::string ResultCache::entry_path(std::uint64_t key) const {
  return dir_ + "/" + fingerprint_hex(key) + ".json";
}

std::optional<RunResult> ResultCache::load(std::uint64_t key) const {
  const std::optional<std::string> text = read_file(entry_path(key));
  if (!text) return std::nullopt;  // plain miss
  try {
    const Json doc = Json::parse(*text);
    // A record from another simulator version (or another key that landed
    // on this path through tampering) is a miss, not an error.
    if (doc.at("version").as_string() != kSimVersionTag) return std::nullopt;
    if (doc.at("key").as_string() != fingerprint_hex(key)) return std::nullopt;
    RunResult r = result_from_json(doc.at("result"));
    r.cached = true;
    r.cache_hit = true;
    return r;
  } catch (const CheckError&) {
    return std::nullopt;  // corrupt or truncated record: treat as a miss
  }
}

void ResultCache::store(std::uint64_t key, const std::string& workload,
                        const RunResult& r) const {
  VEXSIM_CHECK_MSG(!r.failed,
                   "refusing to cache a failed point (" << r.error << ")");
  Json doc = Json::object();
  doc.set("version", std::string(kSimVersionTag))
      .set("key", fingerprint_hex(key))
      .set("workload", workload)
      .set("result", result_json(r));

  // Concurrent sweeps sharing a cache directory may race on the same key;
  // each write renames a complete file into place, so one of the identical
  // records wins atomically.
  write_json_file(entry_path(key), doc);
}

CacheGcStats ResultCache::gc(std::uint64_t max_bytes) const {
  namespace fs = std::filesystem;
  struct Entry {
    fs::file_time_type mtime;
    std::string name;
    std::uint64_t bytes;
  };
  CacheGcStats stats;
  std::vector<Entry> entries;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir_, ec)) {
    std::string name = e.path().filename().string();
    // Record files only: exactly "<16 lowercase hex>.json".
    if (name.size() != 21 || !name.ends_with(".json") ||
        !is_hex16(std::string_view(name).substr(0, 16)))
      continue;
    std::error_code stat_ec;
    if (!e.is_regular_file(stat_ec)) continue;
    const std::uint64_t bytes = e.file_size(stat_ec);
    if (stat_ec) continue;  // removed since the scan listed it
    const fs::file_time_type mtime = e.last_write_time(stat_ec);
    if (stat_ec) continue;
    entries.push_back({mtime, std::move(name), bytes});
    stats.bytes_before += bytes;
  }
  VEXSIM_CHECK_MSG(!ec, "cannot scan result cache directory " << dir_ << ": "
                                                              << ec.message());
  stats.records_before = entries.size();

  // LRU by mtime (name as deterministic tie-break): evict oldest first until
  // the survivors fit the budget.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.name < b.name;
  });
  std::uint64_t bytes_left = stats.bytes_before;
  std::size_t evict = 0;
  while (evict < entries.size() && bytes_left > max_bytes) {
    std::error_code rm_ec;
    fs::remove(dir_ + "/" + entries[evict].name, rm_ec);
    bytes_left -= entries[evict++].bytes;
  }
  stats.evicted = evict;
  stats.records_after = entries.size() - evict;
  stats.bytes_after = bytes_left;
  return stats;
}

}  // namespace vexsim::harness
