#include "isa/config.hpp"

#include <algorithm>
#include <sstream>

#include "isa/config_params.hpp"
#include "util/check.hpp"

namespace vexsim {

std::string to_string(MergeLevel m) {
  return m == MergeLevel::kOperation ? "operation" : "cluster";
}
std::string to_string(SplitLevel s) {
  switch (s) {
    case SplitLevel::kNone: return "none";
    case SplitLevel::kCluster: return "cluster";
    case SplitLevel::kOperation: return "operation";
  }
  return "?";
}
std::string to_string(CommPolicy c) {
  return c == CommPolicy::kNoSplit ? "NS" : "AS";
}
std::string to_string(RegFileOrg r) {
  return r == RegFileOrg::kPartitioned ? "partitioned" : "shared";
}

std::string to_string(MemBackendKind k) {
  return k == MemBackendKind::kFixed ? "fixed" : "hierarchy";
}

MemBackendKind mem_backend_from(const std::string& name) {
  if (name == "fixed") return MemBackendKind::kFixed;
  if (name == "hierarchy") return MemBackendKind::kHierarchy;
  throw CheckError("unknown memory backend '" + name +
                   "' (valid: fixed, hierarchy)");
}

RegFileOrg reg_file_org_from(const std::string& name) {
  if (name == "partitioned") return RegFileOrg::kPartitioned;
  if (name == "shared") return RegFileOrg::kShared;
  throw CheckError("unknown register-file organization '" + name +
                   "' (valid: partitioned, shared)");
}

std::string Technique::name() const {
  if (split == SplitLevel::kNone)
    return merge == MergeLevel::kCluster ? "CSMT" : "SMT";
  std::string base;
  if (merge == MergeLevel::kCluster) {
    base = "CCSI";
  } else {
    base = split == SplitLevel::kCluster ? "COSI" : "OOSI";
  }
  return base + " " + to_string(comm);
}

Technique Technique::parse(const std::string& name) {
  for (const Technique& t : kAll)
    if (t.name() == name) return t;
  std::ostringstream os;
  os << "unknown technique '" << name << "' (valid:";
  for (const Technique& t : kAll) os << " '" << t.name() << "'";
  os << ")";
  throw CheckError(os.str());
}

const Technique Technique::kAll[8] = {
    Technique::csmt(),
    Technique::ccsi(CommPolicy::kNoSplit),
    Technique::ccsi(CommPolicy::kAlwaysSplit),
    Technique::smt(),
    Technique::cosi(CommPolicy::kNoSplit),
    Technique::cosi(CommPolicy::kAlwaysSplit),
    Technique::oosi(CommPolicy::kNoSplit),
    Technique::oosi(CommPolicy::kAlwaysSplit),
};

int LatencyConfig::for_class(OpClass cls) const {
  switch (cls) {
    case OpClass::kAlu: return alu;
    case OpClass::kMul: return mul;
    case OpClass::kMem: return mem;
    case OpClass::kComm: return comm;
    case OpClass::kBranch:
    case OpClass::kNop: return 1;
  }
  return 1;
}

ClusterResourceConfig ClusterResourceConfig::for_issue_width(int w) {
  ClusterResourceConfig c;
  c.issue_slots = w;
  c.alus = w;
  c.muls = std::max(1, w / 2);
  c.mem_units = 1;
  c.branch_units = 1;
  return c;
}

std::string MachineConfig::geometry_name() const {
  if (!asymmetric()) {
    return std::to_string(clusters) + "x" +
           std::to_string(cluster.issue_slots);
  }
  std::string name;
  for (int c = 0; c < clusters; ++c) {
    if (c > 0) name += "+";
    name += std::to_string(cluster_at(c).issue_slots);
  }
  return name;
}

namespace {

bool pow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

std::vector<std::string> MachineConfig::validate_issues() const {
  std::vector<std::string> issues;
  const auto flag = [&issues](const std::string& msg) {
    issues.push_back(msg);
  };
  // One issue per row of `params` outside the range the .conf reader
  // accepts, named `<prefix><key>`; true when every row is in range.
  const auto in_range = [&flag](const std::string& prefix, const auto& params,
                                const auto& block) {
    bool ok = true;
    for (const auto& p : params) {
      const std::int64_t v = block.*p.member;
      if (v >= p.lo && v <= p.hi) continue;
      flag(prefix + p.key + " = " + std::to_string(v) + " out of range [" +
           std::to_string(p.lo) + ", " + std::to_string(p.hi) + "]");
      ok = false;
    }
    return ok;
  };
  // Cache arrays need a power-of-two line and set count. Checked only on an
  // in-range block, so one bad value is one issue and the product of line
  // and ways cannot be zero.
  const auto check_geometry = [&](const std::string& prefix, const auto& c) {
    if (!pow2(c.line_bytes))
      flag(prefix + "line_bytes = " + std::to_string(c.line_bytes) +
           " is not a power of two");
    const std::uint32_t way_bytes = c.line_bytes * c.assoc;
    if (c.size_bytes % way_bytes != 0 || !pow2(c.size_bytes / way_bytes))
      flag(prefix + "size_bytes = " + std::to_string(c.size_bytes) +
           " does not give a power-of-two set count for assoc " +
           std::to_string(c.assoc) + " and line_bytes " +
           std::to_string(c.line_bytes));
  };
  if (clusters < 1 || clusters > kMaxClusters)
    flag("clusters = " + std::to_string(clusters) + " out of range [1, " +
         std::to_string(kMaxClusters) + "]");
  if (hw_threads < 1 || hw_threads > kMaxHwThreads)
    flag("hw_threads = " + std::to_string(hw_threads) + " out of range [1, " +
         std::to_string(kMaxHwThreads) + "]");
  const bool overrides_ok =
      cluster_overrides.empty() ||
      cluster_overrides.size() == static_cast<std::size_t>(clusters);
  if (!overrides_ok)
    flag("cluster_overrides holds " +
         std::to_string(cluster_overrides.size()) +
         " entries but must be empty or hold one per cluster (clusters = " +
         std::to_string(clusters) + ")");
  // Per-cluster checks only when indexing is safe: a bad cluster count or a
  // mismatched override vector would send cluster_at() out of bounds.
  if (clusters >= 1 && clusters <= kMaxClusters && overrides_ok) {
    for (int c = 0; c < clusters; ++c)
      in_range("cluster " + std::to_string(c) + ": ", kClusterParams,
               cluster_at(c));
  }
  // A thread's code is scheduled against per-cluster limits; rotating it
  // onto a differently-provisioned physical cluster would break resource
  // legality, so asymmetric machines run multithreaded without renaming.
  if (asymmetric() && hw_threads > 1 && cluster_renaming)
    flag("cluster_renaming = true on an asymmetric geometry with hw_threads"
         " > 1 (renaming requires a symmetric geometry)");
  // Operation-level split-issue only makes sense with operation-level
  // merging (Figure 4 of the paper).
  if (technique.split == SplitLevel::kOperation &&
      technique.merge != MergeLevel::kOperation)
    flag("technique '" + technique.name() +
         "': operation-level split requires operation-level merging");
  // A shared register file cannot supply the write ports split-issue needs
  // (Section V-C): simultaneous last-parts of several threads.
  if (technique.split != SplitLevel::kNone && hw_threads > 1 &&
      rf_org != RegFileOrg::kPartitioned)
    flag("rf_org = shared: split-issue requires the partitioned register"
         " file");
  in_range("lat.", kLatencyParams, lat);
  if (in_range("icache.", kCacheParams, icache))
    check_geometry("icache.", icache);
  if (in_range("dcache.", kCacheParams, dcache))
    check_geometry("dcache.", dcache);
  // Memory-hierarchy parameters are validated regardless of the selected
  // backend: a config carries one MemoryConfig, and a bad set of inert
  // hierarchy numbers would otherwise only explode when --mem flips.
  if (memory.l1_mshrs < 1 || memory.l1_mshrs > 64)
    flag("memory.l1_mshrs = " + std::to_string(memory.l1_mshrs) +
         " out of range [1, 64]");
  const bool l2_ok = in_range("memory.l2.", kL2Params, memory.l2);
  if (l2_ok) check_geometry("memory.l2.", memory.l2);
  if (in_range("memory.dram.", kDramParams, memory.dram)) {
    if (!pow2(memory.dram.banks))
      flag("memory.dram.banks = " + std::to_string(memory.dram.banks) +
           " is not a power of two");
    if (!pow2(memory.dram.row_bytes))
      flag("memory.dram.row_bytes = " +
           std::to_string(memory.dram.row_bytes) + " is not a power of two");
    else if (l2_ok && pow2(memory.l2.line_bytes) &&
             memory.dram.row_bytes < memory.l2.line_bytes)
      flag("memory.dram.row_bytes = " +
           std::to_string(memory.dram.row_bytes) +
           " smaller than memory.l2.line_bytes = " +
           std::to_string(memory.l2.line_bytes));
  }
  return issues;
}

void MachineConfig::validate() const {
  const std::vector<std::string> issues = validate_issues();
  if (issues.empty()) return;
  std::ostringstream os;
  os << "invalid machine configuration: " << issues.size() << " problem(s):";
  for (const std::string& issue : issues) os << "\n  " << issue;
  throw CheckError(os.str());
}

MachineConfig MachineConfig::paper(int threads, Technique t) {
  MachineConfig cfg;
  cfg.clusters = 4;
  cfg.cluster = ClusterResourceConfig{};  // 4-issue: 4 ALU, 2 MUL, 1 LS
  cfg.hw_threads = threads;
  cfg.technique = t;
  cfg.validate();
  return cfg;
}

MachineConfig MachineConfig::paper_single() {
  MachineConfig cfg = paper(1, Technique::smt());
  return cfg;
}

}  // namespace vexsim
