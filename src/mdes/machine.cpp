#include "mdes/machine.hpp"

#include <sstream>

#include "util/check.hpp"

namespace vexsim::mdes {

namespace {

// Resolves a 'sectionName' reference held by `entry` and deserializes it
// with `read`; missing sections are diagnostics and leave `out` untouched.
template <typename Fn>
void read_referenced_section(const ConfigFile& file, const Interp& interp,
                             Diagnostics& diags, const Entry& entry,
                             const std::string& name, Fn read) {
  const Section* sec = file.section(name);
  if (sec == nullptr) {
    diags.add(entry.loc, entry.key + " references unknown section [" + name +
                             "]");
    return;
  }
  SectionReader reader(interp, *sec, diags);
  read(reader);
  reader.check_unknown("[" + sec->name + "]");
}

ClusterResourceConfig cluster_resources_from(SectionReader& r) {
  ClusterResourceConfig res;
  // issue_width applies the paper's FU proportions for the width; explicit
  // per-unit keys then override individual counts.
  if (r.section().find("issue_width") != nullptr)
    res = ClusterResourceConfig::for_issue_width(r.get_int_in(
        "issue_width", res.issue_slots, 1, kMaxIssuePerCluster));
  res.issue_slots =
      r.get_int_in("issue_slots", res.issue_slots, 1, kMaxIssuePerCluster);
  res.alus = r.get_int_in("alus", res.alus, 0, 64);
  res.muls = r.get_int_in("muls", res.muls, 0, 64);
  res.mem_units = r.get_int_in("mem_units", res.mem_units, 0, 64);
  res.branch_units = r.get_int_in("branch_units", res.branch_units, 0, 64);
  return res;
}

LatencyConfig latency_from(SectionReader& r) {
  LatencyConfig lat;
  lat.alu = r.get_int_in("alu", lat.alu, 1, 1000);
  lat.mul = r.get_int_in("mul", lat.mul, 1, 1000);
  lat.mem = r.get_int_in("mem", lat.mem, 1, 1000);
  lat.comm = r.get_int_in("comm", lat.comm, 1, 1000);
  lat.cmp_to_branch = r.get_int_in("cmp_to_branch", lat.cmp_to_branch, 1, 1000);
  lat.taken_branch_penalty =
      r.get_int_in("taken_branch_penalty", lat.taken_branch_penalty, 0, 1000);
  return lat;
}

CacheConfig cache_from(SectionReader& r) {
  CacheConfig c;
  c.size_bytes = static_cast<std::uint32_t>(r.get_int_in(
      "size_bytes", static_cast<int>(c.size_bytes), 1, 1 << 30));
  c.assoc = static_cast<std::uint32_t>(
      r.get_int_in("assoc", static_cast<int>(c.assoc), 1, 1024));
  c.line_bytes = static_cast<std::uint32_t>(
      r.get_int_in("line_bytes", static_cast<int>(c.line_bytes), 1, 4096));
  c.miss_penalty = static_cast<std::uint32_t>(r.get_int_in(
      "miss_penalty", static_cast<int>(c.miss_penalty), 0, 1'000'000));
  c.perfect = r.get_bool("perfect", c.perfect);
  return c;
}

L2Config l2_from(SectionReader& r) {
  L2Config c;
  c.size_bytes = static_cast<std::uint32_t>(r.get_int_in(
      "size_bytes", static_cast<int>(c.size_bytes), 1, 1 << 30));
  c.assoc = static_cast<std::uint32_t>(
      r.get_int_in("assoc", static_cast<int>(c.assoc), 1, 1024));
  c.line_bytes = static_cast<std::uint32_t>(
      r.get_int_in("line_bytes", static_cast<int>(c.line_bytes), 1, 4096));
  c.hit_latency = static_cast<std::uint32_t>(r.get_int_in(
      "hit_latency", static_cast<int>(c.hit_latency), 1, 1'000'000));
  return c;
}

DramConfig dram_from(SectionReader& r) {
  DramConfig c;
  c.banks = static_cast<std::uint32_t>(
      r.get_int_in("banks", static_cast<int>(c.banks), 1, 65536));
  c.row_bytes = static_cast<std::uint32_t>(
      r.get_int_in("row_bytes", static_cast<int>(c.row_bytes), 1, 1 << 20));
  c.t_row_hit = static_cast<std::uint32_t>(r.get_int_in(
      "t_row_hit", static_cast<int>(c.t_row_hit), 1, 1'000'000));
  c.t_row_closed = static_cast<std::uint32_t>(r.get_int_in(
      "t_row_closed", static_cast<int>(c.t_row_closed), 1, 1'000'000));
  c.t_row_conflict = static_cast<std::uint32_t>(r.get_int_in(
      "t_row_conflict", static_cast<int>(c.t_row_conflict), 1, 1'000'000));
  c.t_bank_busy = static_cast<std::uint32_t>(r.get_int_in(
      "t_bank_busy", static_cast<int>(c.t_bank_busy), 1, 1'000'000));
  return c;
}

// Parses via a named-constant parser (Technique::parse / reg_file_org_from)
// that throws CheckError, converting the throw into a diagnostic at the
// entry's location.
template <typename T, typename ParseFn>
void parse_named(SectionReader& m, const std::string& key, ParseFn parse,
                 Diagnostics& diags, T& out) {
  const Entry* entry = m.section().find(key);
  const auto name = m.get_string_opt(key);
  if (!name) return;
  try {
    out = parse(*name);
  } catch (const CheckError& e) {
    diags.add(entry->loc, e.what());
  }
}

// [memory]: backend selection and MSHR bound inline; the L2 and DRAM
// parameter groups live in their own referenced sections, mirroring how
// [machine] references its caches.
MemoryConfig memory_from(const ConfigFile& file, const Interp& interp,
                         Diagnostics& diags, SectionReader& r) {
  MemoryConfig mem;
  parse_named(r, "backend", &mem_backend_from, diags, mem.backend);
  mem.l1_mshrs = static_cast<std::uint32_t>(
      r.get_int_in("l1_mshrs", static_cast<int>(mem.l1_mshrs), 1, 64));
  if (const Entry* l2_ref = r.section().find("l2"); l2_ref != nullptr) {
    if (const auto name = r.get_string_opt("l2"))
      read_referenced_section(
          file, interp, diags, *l2_ref, *name,
          [&mem](SectionReader& s) { mem.l2 = l2_from(s); });
  }
  if (const Entry* dram_ref = r.section().find("dram"); dram_ref != nullptr) {
    if (const auto name = r.get_string_opt("dram"))
      read_referenced_section(
          file, interp, diags, *dram_ref, *name,
          [&mem](SectionReader& s) { mem.dram = dram_from(s); });
  }
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
  parse_named(m, "technique", &Technique::parse, diags, cfg.technique);
  parse_named(m, "rf_org", &reg_file_org_from, diags, cfg.rf_org);
  cfg.cluster_renaming = m.get_bool("cluster_renaming", cfg.cluster_renaming);
  cfg.branch_on_cluster0_only =
      m.get_bool("branch_on_cluster0_only", cfg.branch_on_cluster0_only);
  cfg.stall_on_store_miss =
      m.get_bool("stall_on_store_miss", cfg.stall_on_store_miss);

  const Entry* cluster_ref = msec->find("cluster");
  if (const auto name = m.get_string_opt("cluster"))
    read_referenced_section(file, interp, diags, *cluster_ref, *name,
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

  if (const Entry* lat_ref = msec->find("latency"); lat_ref != nullptr) {
    if (const auto name = m.get_string_opt("latency"))
      read_referenced_section(
          file, interp, diags, *lat_ref, *name,
          [&cfg](SectionReader& r) { cfg.lat = latency_from(r); });
  }
  if (const Entry* ic_ref = msec->find("icache"); ic_ref != nullptr) {
    if (const auto name = m.get_string_opt("icache"))
      read_referenced_section(
          file, interp, diags, *ic_ref, *name,
          [&cfg](SectionReader& r) { cfg.icache = cache_from(r); });
  }
  if (const Entry* dc_ref = msec->find("dcache"); dc_ref != nullptr) {
    if (const auto name = m.get_string_opt("dcache"))
      read_referenced_section(
          file, interp, diags, *dc_ref, *name,
          [&cfg](SectionReader& r) { cfg.dcache = cache_from(r); });
  }
  if (const Entry* mem_ref = msec->find("memory"); mem_ref != nullptr) {
    if (const auto name = m.get_string_opt("memory"))
      read_referenced_section(file, interp, diags, *mem_ref, *name,
                              [&](SectionReader& r) {
                                cfg.memory =
                                    memory_from(file, interp, diags, r);
                              });
  }
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

void emit_cluster(std::ostringstream& os, const std::string& name,
                  const ClusterResourceConfig& res) {
  os << "\n[" << name << "]\n"
     << "issue_slots = " << res.issue_slots << "\n"
     << "alus = " << res.alus << "\n"
     << "muls = " << res.muls << "\n"
     << "mem_units = " << res.mem_units << "\n"
     << "branch_units = " << res.branch_units << "\n";
}

void emit_cache(std::ostringstream& os, const std::string& name,
                const CacheConfig& c) {
  os << "\n[" << name << "]\n"
     << "size_bytes = " << c.size_bytes << "\n"
     << "assoc = " << c.assoc << "\n"
     << "line_bytes = " << c.line_bytes << "\n"
     << "miss_penalty = " << c.miss_penalty << "\n"
     << "perfect = " << (c.perfect ? "true" : "false") << "\n";
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
  emit_cluster(os, "cluster_base", cfg.cluster);
  for (std::size_t c = 0; c < cfg.cluster_overrides.size(); ++c)
    emit_cluster(os, "cluster" + std::to_string(c), cfg.cluster_overrides[c]);
  os << "\n[latency]\n"
     << "alu = " << cfg.lat.alu << "\n"
     << "mul = " << cfg.lat.mul << "\n"
     << "mem = " << cfg.lat.mem << "\n"
     << "comm = " << cfg.lat.comm << "\n"
     << "cmp_to_branch = " << cfg.lat.cmp_to_branch << "\n"
     << "taken_branch_penalty = " << cfg.lat.taken_branch_penalty << "\n";
  emit_cache(os, "icache", cfg.icache);
  emit_cache(os, "dcache", cfg.dcache);
  os << "\n[memory]\n"
     << "backend = '" << to_string(cfg.memory.backend) << "'\n"
     << "l1_mshrs = " << cfg.memory.l1_mshrs << "\n"
     << "l2 = 'l2'\n"
     << "dram = 'dram'\n";
  os << "\n[l2]\n"
     << "size_bytes = " << cfg.memory.l2.size_bytes << "\n"
     << "assoc = " << cfg.memory.l2.assoc << "\n"
     << "line_bytes = " << cfg.memory.l2.line_bytes << "\n"
     << "hit_latency = " << cfg.memory.l2.hit_latency << "\n";
  os << "\n[dram]\n"
     << "banks = " << cfg.memory.dram.banks << "\n"
     << "row_bytes = " << cfg.memory.dram.row_bytes << "\n"
     << "t_row_hit = " << cfg.memory.dram.t_row_hit << "\n"
     << "t_row_closed = " << cfg.memory.dram.t_row_closed << "\n"
     << "t_row_conflict = " << cfg.memory.dram.t_row_conflict << "\n"
     << "t_bank_busy = " << cfg.memory.dram.t_bank_busy << "\n";
  return os.str();
}

}  // namespace vexsim::mdes
