#include "mdes/machine.hpp"

#include <sstream>

#include "isa/config_params.hpp"

namespace vexsim::mdes {

namespace {

// Reads the section that `owner`'s `key` names, when the key is present,
// with `read`; a missing section is a diagnostic at the key.
template <typename Fn>
void read_referenced_section(const ConfigFile& file, const Interp& interp,
                             Diagnostics& diags, SectionReader& owner,
                             const std::string& key, Fn read) {
  const Entry* entry = owner.section().find(key);
  const auto name = owner.get_string_opt(key);
  if (!name) return;
  const Section* sec = file.section(*name);
  if (sec == nullptr) {
    diags.add(entry->loc, key + " references unknown section [" + *name + "]");
    return;
  }
  SectionReader reader(interp, *sec, diags);
  read(reader);
  reader.check_unknown("[" + sec->name + "]");
}

// Reads every row of `params` into `block`, each within its range.
template <typename Block, typename T, std::size_t N>
void read_params(SectionReader& r, const ConfigParam<Block, T> (&params)[N],
                 Block& block) {
  for (const auto& p : params)
    block.*p.member = static_cast<T>(r.get_int_in(
        p.key, static_cast<int>(block.*p.member), p.lo, p.hi));
}

ClusterResourceConfig cluster_resources_from(SectionReader& r) {
  ClusterResourceConfig res;
  // issue_width applies the paper's FU proportions for the width; explicit
  // per-unit keys then override individual counts.
  if (r.section().find("issue_width") != nullptr)
    res = ClusterResourceConfig::for_issue_width(r.get_int_in(
        "issue_width", res.issue_slots, 1, kMaxIssuePerCluster));
  read_params(r, kClusterParams, res);
  return res;
}

CacheConfig cache_from(SectionReader& r) {
  CacheConfig c;
  read_params(r, kCacheParams, c);
  c.perfect = r.get_bool("perfect", c.perfect);
  return c;
}

// [memory]: backend selection and MSHR bound inline; the L2 and DRAM
// parameter groups live in their own referenced sections, mirroring how
// [machine] references its caches.
MemoryConfig memory_from(const ConfigFile& file, const Interp& interp,
                         Diagnostics& diags, SectionReader& r) {
  MemoryConfig mem;
  if (const auto backend = r.get_named("backend", &mem_backend_from))
    mem.backend = *backend;
  mem.l1_mshrs = static_cast<std::uint32_t>(
      r.get_int_in("l1_mshrs", static_cast<int>(mem.l1_mshrs), 1, 64));
  read_referenced_section(
      file, interp, diags, r, "l2",
      [&mem](SectionReader& s) { read_params(s, kL2Params, mem.l2); });
  read_referenced_section(
      file, interp, diags, r, "dram",
      [&mem](SectionReader& s) { read_params(s, kDramParams, mem.dram); });
  return mem;
}

}  // namespace

MachineConfig machine_from(const ConfigFile& file, const Interp& interp,
                           Diagnostics& diags) {
  MachineConfig cfg;
  const Section* msec = file.section("machine");
  if (msec == nullptr) {
    diags.add({file.origin(), 0}, "missing [machine] section");
    return cfg;
  }
  SectionReader m(interp, *msec, diags);
  cfg.clusters = m.get_int_in("clusters", cfg.clusters, 1, kMaxClusters);
  cfg.hw_threads = m.get_int_in("hw_threads", cfg.hw_threads, 1, kMaxHwThreads);
  if (const auto technique = m.get_named("technique", &Technique::parse))
    cfg.technique = *technique;
  if (const auto rf_org = m.get_named("rf_org", &reg_file_org_from))
    cfg.rf_org = *rf_org;
  cfg.cluster_renaming = m.get_bool("cluster_renaming", cfg.cluster_renaming);
  cfg.branch_on_cluster0_only =
      m.get_bool("branch_on_cluster0_only", cfg.branch_on_cluster0_only);
  cfg.stall_on_store_miss =
      m.get_bool("stall_on_store_miss", cfg.stall_on_store_miss);

  read_referenced_section(file, interp, diags, m, "cluster",
                          [&cfg](SectionReader& r) {
                            cfg.cluster = cluster_resources_from(r);
                          });
  if (m.has_indexed("cluster")) {
    // Any per-cluster override makes the machine explicitly asymmetric:
    // uncovered indices inherit the base cluster.
    cfg.cluster_overrides.assign(static_cast<std::size_t>(cfg.clusters),
                                 cfg.cluster);
    const auto slots = m.indexed_strings("cluster", cfg.clusters);
    for (std::size_t c = 0; c < slots.size(); ++c) {
      if (!slots[c]) continue;
      const Section* sec = file.section(*slots[c]);
      if (sec == nullptr) {
        diags.add(msec->loc, "cluster[" + std::to_string(c) +
                                 "] references unknown section [" + *slots[c] +
                                 "]");
        continue;
      }
      SectionReader r(interp, *sec, diags);
      cfg.cluster_overrides[c] = cluster_resources_from(r);
      r.check_unknown("[" + sec->name + "]");
    }
  }

  read_referenced_section(
      file, interp, diags, m, "latency",
      [&cfg](SectionReader& r) { read_params(r, kLatencyParams, cfg.lat); });
  read_referenced_section(
      file, interp, diags, m, "icache",
      [&cfg](SectionReader& r) { cfg.icache = cache_from(r); });
  read_referenced_section(
      file, interp, diags, m, "dcache",
      [&cfg](SectionReader& r) { cfg.dcache = cache_from(r); });
  read_referenced_section(file, interp, diags, m, "memory",
                          [&](SectionReader& r) {
                            cfg.memory = memory_from(file, interp, diags, r);
                          });
  m.check_unknown("[machine]");
  return cfg;
}

MachineConfig load_machine(const std::string& path) {
  const ConfigFile file = ConfigFile::parse_file(path);
  const Interp interp(file);
  Diagnostics diags;
  const MachineConfig cfg = machine_from(file, interp, diags);
  if (diags.empty())
    for (const std::string& issue : cfg.validate_issues())
      diags.add({path, 0}, issue);
  diags.throw_if_any("machine " + path);
  return cfg;
}

namespace {

// One description-file section: its header, then `key = value` per row.
template <typename Block, typename T, std::size_t N>
void emit_params(std::ostringstream& os, const std::string& name,
                 const ConfigParam<Block, T> (&params)[N], const Block& block) {
  os << "\n[" << name << "]\n";
  for (const auto& p : params) os << p.key << " = " << block.*p.member << "\n";
}

void emit_cache(std::ostringstream& os, const std::string& name,
                const CacheConfig& c) {
  emit_params(os, name, kCacheParams, c);
  os << "perfect = " << (c.perfect ? "true" : "false") << "\n";
}

}  // namespace

std::string to_config(const MachineConfig& cfg) {
  std::ostringstream os;
  os << "# machine description generated by mdes::to_config\n"
     << "[machine]\n"
     << "clusters = " << cfg.clusters << "\n"
     << "hw_threads = " << cfg.hw_threads << "\n"
     << "technique = '" << cfg.technique.name() << "'\n"
     << "cluster_renaming = " << (cfg.cluster_renaming ? "true" : "false")
     << "\n"
     << "rf_org = '" << to_string(cfg.rf_org) << "'\n"
     << "branch_on_cluster0_only = "
     << (cfg.branch_on_cluster0_only ? "true" : "false") << "\n"
     << "stall_on_store_miss = "
     << (cfg.stall_on_store_miss ? "true" : "false") << "\n"
     << "cluster = 'cluster_base'\n";
  for (std::size_t c = 0; c < cfg.cluster_overrides.size(); ++c)
    os << "cluster[" << c << "] = 'cluster" << c << "'\n";
  os << "latency = 'latency'\n"
     << "icache = 'icache'\n"
     << "dcache = 'dcache'\n"
     << "memory = 'memory'\n";
  emit_params(os, "cluster_base", kClusterParams, cfg.cluster);
  for (std::size_t c = 0; c < cfg.cluster_overrides.size(); ++c)
    emit_params(os, "cluster" + std::to_string(c), kClusterParams,
                cfg.cluster_overrides[c]);
  emit_params(os, "latency", kLatencyParams, cfg.lat);
  emit_cache(os, "icache", cfg.icache);
  emit_cache(os, "dcache", cfg.dcache);
  os << "\n[memory]\n"
     << "backend = '" << to_string(cfg.memory.backend) << "'\n"
     << "l1_mshrs = " << cfg.memory.l1_mshrs << "\n"
     << "l2 = 'l2'\n"
     << "dram = 'dram'\n";
  emit_params(os, "l2", kL2Params, cfg.memory.l2);
  emit_params(os, "dram", kDramParams, cfg.memory.dram);
  return os.str();
}

}  // namespace vexsim::mdes
