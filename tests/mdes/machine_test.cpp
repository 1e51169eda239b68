// MachineConfig <-> description file: the shipped configs deserialize to
// the machines they claim, to_config() round-trips exactly, and a
// config-loaded machine is indistinguishable from its C++-literal twin all
// the way down to result-cache fingerprints and sweep-trajectory bytes.
#include "mdes/machine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/result_cache.hpp"
#include "harness/sweep.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

#ifndef VEXSIM_SOURCE_DIR
#define VEXSIM_SOURCE_DIR "."
#endif

namespace vexsim::mdes {
namespace {

std::string config_path(const std::string& name) {
  return std::string(VEXSIM_SOURCE_DIR) + "/configs/" + name;
}

MachineConfig reparse(const MachineConfig& m) {
  const ConfigFile file = ConfigFile::parse_text(to_config(m));
  const Interp interp(file);
  Diagnostics diags;
  const MachineConfig back = machine_from(file, interp, diags);
  EXPECT_TRUE(diags.empty())
      << diags.all().front().loc.str() << ": " << diags.all().front().message;
  return back;
}

Diagnostics diags_of(const std::string& text) {
  const ConfigFile file = ConfigFile::parse_text(text);
  const Interp interp(file);
  Diagnostics diags;
  (void)machine_from(file, interp, diags);
  return diags;
}

TEST(MdesMachine, Paper4x4ConfIsExactlyTheDefaultMachine) {
  const MachineConfig loaded = load_machine(config_path("paper4x4.conf"));
  EXPECT_EQ(loaded, MachineConfig{});
}

TEST(MdesMachine, Asym8422ConfDescribesTheAsymmetricMachine) {
  const MachineConfig m = load_machine(config_path("asym8422.conf"));
  EXPECT_EQ(m.geometry_name(), "8+4+2+2");
  EXPECT_EQ(m.clusters, 4);
  EXPECT_FALSE(m.cluster_renaming);
  EXPECT_EQ(m.total_issue_width(), 16);
  ASSERT_EQ(m.cluster_overrides.size(), 4u);
  // issue_width applies the paper's FU proportions per width.
  EXPECT_EQ(m.cluster_overrides[0].alus, 8);
  EXPECT_EQ(m.cluster_overrides[0].muls, 4);
  EXPECT_EQ(m.cluster_overrides[2].issue_slots, 2);
  EXPECT_EQ(m.cluster_overrides[2].muls, 1);
  // Shared base.conf supplies the paper caches via $(cache_kb) * 1024.
  EXPECT_EQ(m.icache.size_bytes, 64u * 1024u);
  EXPECT_EQ(m.dcache.miss_penalty, 20u);
}

TEST(MdesMachine, ToConfigRoundTripsDefaultAndAsymmetric) {
  EXPECT_EQ(reparse(MachineConfig{}), MachineConfig{});
  const MachineConfig asym = load_machine(config_path("asym8422.conf"));
  EXPECT_EQ(reparse(asym), asym);
}

TEST(MdesMachine, ToConfigRoundTripsRandomizedMachines) {
  Rng rng(20260808);
  for (int iter = 0; iter < 50; ++iter) {
    MachineConfig m;
    m.clusters = rng.range(1, kMaxClusters);
    m.cluster.issue_slots = rng.range(1, kMaxIssuePerCluster);
    m.cluster.alus = rng.range(0, 64);
    m.cluster.muls = rng.range(0, 64);
    m.cluster.mem_units = rng.range(0, 64);
    m.cluster.branch_units = rng.range(0, 64);
    if (rng.chance(0.5)) {
      m.cluster_overrides.assign(static_cast<std::size_t>(m.clusters),
                                 m.cluster);
      for (auto& res : m.cluster_overrides)
        res.issue_slots = rng.range(1, kMaxIssuePerCluster);
    }
    m.branch_on_cluster0_only = rng.chance(0.5);
    m.lat.alu = rng.range(1, 1000);
    m.lat.mul = rng.range(1, 1000);
    m.lat.mem = rng.range(1, 1000);
    m.lat.comm = rng.range(1, 1000);
    m.lat.cmp_to_branch = rng.range(1, 1000);
    m.lat.taken_branch_penalty = rng.range(0, 1000);
    m.icache.size_bytes = static_cast<std::uint32_t>(rng.range(1, 1 << 20));
    m.icache.assoc = static_cast<std::uint32_t>(rng.range(1, 1024));
    m.icache.line_bytes = static_cast<std::uint32_t>(rng.range(1, 4096));
    m.icache.miss_penalty = static_cast<std::uint32_t>(rng.range(0, 1000));
    m.icache.perfect = rng.chance(0.5);
    m.dcache = m.icache;
    m.dcache.assoc = static_cast<std::uint32_t>(rng.range(1, 1024));
    m.hw_threads = rng.range(1, kMaxHwThreads);
    m.technique = Technique::kAll[rng.below(8)];
    m.cluster_renaming = rng.chance(0.5);
    m.rf_org = rng.chance(0.5) ? RegFileOrg::kPartitioned : RegFileOrg::kShared;
    m.stall_on_store_miss = rng.chance(0.5);
    m.memory.backend = rng.chance(0.5) ? MemBackendKind::kHierarchy
                                       : MemBackendKind::kFixed;
    m.memory.l1_mshrs = static_cast<std::uint32_t>(rng.range(1, 64));
    m.memory.l2.size_bytes = static_cast<std::uint32_t>(rng.range(1, 1 << 20));
    m.memory.l2.assoc = static_cast<std::uint32_t>(rng.range(1, 1024));
    m.memory.l2.line_bytes = static_cast<std::uint32_t>(rng.range(1, 4096));
    m.memory.l2.hit_latency = static_cast<std::uint32_t>(rng.range(1, 1000));
    m.memory.dram.banks = static_cast<std::uint32_t>(rng.range(1, 65536));
    m.memory.dram.row_bytes = static_cast<std::uint32_t>(rng.range(1, 1 << 20));
    m.memory.dram.t_row_hit = static_cast<std::uint32_t>(rng.range(1, 1000));
    m.memory.dram.t_row_closed = static_cast<std::uint32_t>(rng.range(1, 1000));
    m.memory.dram.t_row_conflict =
        static_cast<std::uint32_t>(rng.range(1, 1000));
    m.memory.dram.t_bank_busy = static_cast<std::uint32_t>(rng.range(1, 1000));
    EXPECT_EQ(reparse(m), m) << "iteration " << iter;
  }
}

TEST(MdesMachine, ConfigLoadedMachineSharesTheLiteralFingerprint) {
  harness::ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 2000;
  opt.timeslice = 500;
  opt.seed = 7;
  const MachineConfig loaded = load_machine(config_path("paper4x4.conf"));
  const MachineConfig literal;
  EXPECT_EQ(harness::point_fingerprint(loaded, "llhh", opt),
            harness::point_fingerprint(literal, "llhh", opt));
  // And a genuinely different machine gets a different fingerprint.
  MachineConfig narrow = literal;
  narrow.cluster.issue_slots = 2;
  EXPECT_NE(harness::point_fingerprint(narrow, "llhh", opt),
            harness::point_fingerprint(literal, "llhh", opt));
}

TEST(MdesMachine, ConfigLoadedMachineEmitsByteIdenticalSweepJson) {
  harness::ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 2000;
  opt.timeslice = 500;
  opt.seed = 7;
  const std::string workload = "synth:i0.7-m0.2-p0.5-s1";
  auto trajectory = [&](const MachineConfig& cfg) {
    const std::vector<harness::SweepPoint> points = {
        {"twin", cfg, workload, opt}};
    const auto results = harness::run_sweep(points, 1);
    return harness::sweep_json("twin_test", points, results).dump();
  };
  const std::string from_literal = trajectory(MachineConfig{});
  const std::string from_config =
      trajectory(load_machine(config_path("paper4x4.conf")));
  EXPECT_EQ(from_literal, from_config);
}

TEST(MdesMachine, UnknownKeysAndDanglingReferencesAreDiagnosed) {
  const Diagnostics d = diags_of(
      "[machine]\n"
      "clusters = 2\n"
      "clsuters = 4\n"            // typo -> unknown key
      "latency = 'nope'\n"        // dangling section reference
      "cluster = 'c'\n"
      "[c]\n"
      "issue_width = 4\n"
      "alsu = 1\n");              // typo inside a referenced section
  ASSERT_EQ(d.all().size(), 3u);
  EXPECT_NE(d.all()[0].message.find("unknown key 'alsu'"), std::string::npos);
  EXPECT_NE(d.all()[1].message.find("unknown section [nope]"),
            std::string::npos);
  EXPECT_NE(d.all()[2].message.find("unknown key 'clsuters'"),
            std::string::npos);
}

TEST(MdesMachine, OutOfRangeClusterIndexIsDiagnosed) {
  const Diagnostics d = diags_of(
      "[machine]\n"
      "clusters = 2\n"
      "cluster = 'c'\n"
      "cluster[5] = 'c'\n"
      "[c]\n"
      "issue_width = 4\n");
  ASSERT_EQ(d.all().size(), 1u);
  EXPECT_NE(d.all()[0].message.find("outside [0, 1]"), std::string::npos);
}

TEST(MdesMachine, HwThreadsOutOfRangeIsALocatedDiagnostic) {
  // The reader allows what the simulator does, [1, kMaxHwThreads], so the
  // diagnostic names the key's line rather than the whole file.
  for (const int threads : {0, kMaxHwThreads + 1, 64}) {
    const Diagnostics d = diags_of("[machine]\nclusters = 2\nhw_threads = " +
                                   std::to_string(threads) + "\n");
    ASSERT_EQ(d.all().size(), 1u) << threads;
    EXPECT_EQ(d.all()[0].loc.line, 3) << threads;
    EXPECT_NE(d.all()[0].message.find("hw_threads = " +
                                      std::to_string(threads) +
                                      " out of range [1, 8]"),
              std::string::npos)
        << d.all()[0].message;
  }
  EXPECT_TRUE(diags_of("[machine]\nhw_threads = 8\n").empty());

  const std::string dir = testing::TempDir() + "/vexsim_machine_threads";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/nine.conf";
  std::ofstream(path) << "[machine]\n# nine contexts\nhw_threads = 9\n";
  try {
    (void)load_machine(path);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":3: hw_threads = 9"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(MdesMachine, MissingMachineSectionIsDiagnosed) {
  const Diagnostics d = diags_of("[scenario]\nworkload = 'llhh'\n");
  ASSERT_EQ(d.all().size(), 1u);
  EXPECT_NE(d.all()[0].message.find("missing [machine] section"),
            std::string::npos);
}

TEST(MdesMachine, LoadMachineAggregatesValidationIssues) {
  try {
    (void)load_machine("/nonexistent/machine.conf");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST(MdesMachine, ValidateAggregatesEveryViolation) {
  MachineConfig m;
  m.hw_threads = 4;
  m.technique = Technique::ccsi(CommPolicy::kNoSplit);
  m.cluster_overrides.assign(4, m.cluster);
  m.cluster_overrides[1].issue_slots = 0;  // out of range
  m.lat.mem = 0;                           // below minimum
  // Asymmetric + renaming + multithreaded is a third, cross-field violation.
  const std::vector<std::string> issues = m.validate_issues();
  EXPECT_EQ(issues.size(), 3u);
  EXPECT_NE(issues[0].find("cluster 1: issue_slots = 0"), std::string::npos);
  try {
    m.validate();
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("invalid machine configuration"), std::string::npos);
    EXPECT_NE(msg.find("problem(s)"), std::string::npos);
    for (const std::string& issue : issues)
      EXPECT_NE(msg.find(issue), std::string::npos) << issue;
  }
  EXPECT_NO_THROW(MachineConfig{}.validate());
}

TEST(MdesMachine, TechniqueAndRegFileOrgParseRoundTrip) {
  for (const Technique& t : Technique::kAll)
    EXPECT_EQ(Technique::parse(t.name()), t) << t.name();
  try {
    (void)Technique::parse("WARP9");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("WARP9"), std::string::npos);
    EXPECT_NE(msg.find("CCSI NS"), std::string::npos);  // lists valid names
  }
  EXPECT_EQ(reg_file_org_from("partitioned"), RegFileOrg::kPartitioned);
  EXPECT_EQ(reg_file_org_from("shared"), RegFileOrg::kShared);
  EXPECT_EQ(to_string(RegFileOrg::kShared), "shared");
  EXPECT_THROW((void)reg_file_org_from("flat"), CheckError);
}

}  // namespace
}  // namespace vexsim::mdes
