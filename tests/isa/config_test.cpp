#include "isa/config.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/check.hpp"

namespace vexsim {
namespace {

TEST(Config, TechniqueNames) {
  EXPECT_EQ(Technique::smt().name(), "SMT");
  EXPECT_EQ(Technique::csmt().name(), "CSMT");
  EXPECT_EQ(Technique::ccsi(CommPolicy::kNoSplit).name(), "CCSI NS");
  EXPECT_EQ(Technique::ccsi(CommPolicy::kAlwaysSplit).name(), "CCSI AS");
  EXPECT_EQ(Technique::cosi(CommPolicy::kNoSplit).name(), "COSI NS");
  EXPECT_EQ(Technique::oosi(CommPolicy::kAlwaysSplit).name(), "OOSI AS");
}

TEST(Config, AllEightTechniques) {
  // Figure 16 presents exactly these eight configurations.
  EXPECT_EQ(std::size(Technique::kAll), 8u);
  for (const Technique& t : Technique::kAll) {
    MachineConfig cfg = MachineConfig::paper(2, t);
    EXPECT_NO_THROW(cfg.validate()) << t.name();
  }
}

TEST(Config, PaperMachineGeometry) {
  const MachineConfig cfg = MachineConfig::paper(4, Technique::smt());
  EXPECT_EQ(cfg.clusters, 4);
  EXPECT_EQ(cfg.cluster.issue_slots, 4);
  EXPECT_EQ(cfg.total_issue_width(), 16);
  EXPECT_EQ(cfg.cluster.alus, 4);
  EXPECT_EQ(cfg.cluster.muls, 2);
  EXPECT_EQ(cfg.cluster.mem_units, 1);
  EXPECT_EQ(cfg.lat.mem, 2);
  EXPECT_EQ(cfg.lat.mul, 2);
  EXPECT_EQ(cfg.lat.alu, 1);
  EXPECT_EQ(cfg.lat.cmp_to_branch, 2);
  EXPECT_EQ(cfg.lat.taken_branch_penalty, 1);
  EXPECT_EQ(cfg.icache.size_bytes, 64u * 1024);
  EXPECT_EQ(cfg.icache.assoc, 4u);
  EXPECT_EQ(cfg.icache.miss_penalty, 20u);
}

TEST(Config, OperationSplitRequiresOperationMerge) {
  MachineConfig cfg = MachineConfig::paper(2, Technique::smt());
  cfg.technique.merge = MergeLevel::kCluster;
  cfg.technique.split = SplitLevel::kOperation;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(Config, SharedRegFileIncompatibleWithSplit) {
  MachineConfig cfg =
      MachineConfig::paper(2, Technique::ccsi(CommPolicy::kNoSplit));
  cfg.rf_org = RegFileOrg::kShared;
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.technique = Technique::csmt();
  EXPECT_NO_THROW(cfg.validate());  // no split: shared RF is allowed
}

TEST(Config, RenamingRotation) {
  MachineConfig cfg = MachineConfig::paper(4, Technique::csmt());
  // 4-thread 4-cluster: thread i rotated by i (Section IV).
  EXPECT_EQ(cfg.renaming_rotation(0), 0);
  EXPECT_EQ(cfg.renaming_rotation(1), 1);
  EXPECT_EQ(cfg.renaming_rotation(2), 2);
  EXPECT_EQ(cfg.renaming_rotation(3), 3);
  // 2-thread 4-cluster: thread i rotated by i (partial overlap by design).
  MachineConfig cfg2 = MachineConfig::paper(2, Technique::csmt());
  EXPECT_EQ(cfg2.renaming_rotation(0), 0);
  EXPECT_EQ(cfg2.renaming_rotation(1), 1);
  // Disabled renaming rotates nothing.
  cfg2.cluster_renaming = false;
  EXPECT_EQ(cfg2.renaming_rotation(1), 0);
  // Single-threaded machines never rotate.
  MachineConfig cfg1 = MachineConfig::paper_single();
  EXPECT_EQ(cfg1.renaming_rotation(0), 0);
}

TEST(Config, BranchUnitPlacement) {
  MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  cfg.branch_on_cluster0_only = true;
  EXPECT_EQ(cfg.branch_units_at(0), 1);
  EXPECT_EQ(cfg.branch_units_at(1), 0);
  cfg.branch_on_cluster0_only = false;
  EXPECT_EQ(cfg.branch_units_at(3), 1);
}

TEST(Config, AsymmetricGeometry) {
  MachineConfig cfg = MachineConfig::paper(1, Technique::smt());
  EXPECT_FALSE(cfg.asymmetric());
  EXPECT_EQ(cfg.geometry_name(), "4x4");

  cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                           ClusterResourceConfig::for_issue_width(4),
                           ClusterResourceConfig::for_issue_width(2),
                           ClusterResourceConfig::for_issue_width(2)};
  EXPECT_TRUE(cfg.asymmetric());
  EXPECT_EQ(cfg.geometry_name(), "8+4+2+2");
  EXPECT_EQ(cfg.total_issue_width(), 16);
  EXPECT_EQ(cfg.cluster_at(0).issue_slots, 8);
  EXPECT_EQ(cfg.cluster_at(0).muls, 4);
  EXPECT_EQ(cfg.cluster_at(2).issue_slots, 2);
  EXPECT_EQ(cfg.cluster_at(3).mem_units, 1);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, AsymmetricValidation) {
  MachineConfig cfg = MachineConfig::paper(2, Technique::smt());
  // Wrong override count: one entry per cluster or none at all.
  cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(4)};
  EXPECT_THROW(cfg.validate(), CheckError);

  // Renaming would rotate wide bundles onto narrow clusters.
  cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                           ClusterResourceConfig::for_issue_width(4),
                           ClusterResourceConfig::for_issue_width(2),
                           ClusterResourceConfig::for_issue_width(2)};
  cfg.cluster_renaming = true;
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.cluster_renaming = false;
  EXPECT_NO_THROW(cfg.validate());

  // Per-cluster issue bounds still apply to overrides.
  cfg.cluster_overrides[1].issue_slots = kMaxIssuePerCluster + 1;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(Config, BadL1GeometryIsOneNamedIssue) {
  // Each L1 gets the L2's geometry check: a power-of-two line and a
  // power-of-two set count. Without it such a machine passes validate() and
  // fails at its first simulated cycle, in Cache's constructor, naming no
  // field.
  for (const bool data : {false, true}) {
    const std::string name = data ? "dcache" : "icache";
    const auto issues_with = [data](std::uint32_t size, std::uint32_t assoc,
                                    std::uint32_t line) {
      MachineConfig cfg;
      CacheConfig& c = data ? cfg.dcache : cfg.icache;
      c.size_bytes = size;
      c.assoc = assoc;
      c.line_bytes = line;
      return cfg.validate_issues();
    };
    // 48 B lines, 4 ways, 256 sets: only the line is wrong.
    std::vector<std::string> issues = issues_with(49152, 4, 48);
    ASSERT_EQ(issues.size(), 1u) << name;
    EXPECT_EQ(issues[0], name + ".line_bytes = 48 is not a power of two");
    // 49152 B of 4-way 64 B lines is 192 sets.
    issues = issues_with(49152, 4, 64);
    ASSERT_EQ(issues.size(), 1u) << name;
    EXPECT_EQ(issues[0], name +
                             ".size_bytes = 49152 does not give a "
                             "power-of-two set count for assoc 4 and "
                             "line_bytes 64");
    // 3 ways do not divide 64 KB of 64 B lines.
    issues = issues_with(65536, 3, 64);
    ASSERT_EQ(issues.size(), 1u) << name;
    EXPECT_EQ(issues[0].rfind(name + ".size_bytes = 65536 does not give", 0),
              0u)
        << issues[0];
    // A perfect cache still builds its arrays, so it is checked too.
    MachineConfig perfect;
    perfect.icache.perfect = perfect.dcache.perfect = true;
    (data ? perfect.dcache : perfect.icache).line_bytes = 48;
    EXPECT_FALSE(perfect.validate_issues().empty()) << name;
  }
  EXPECT_TRUE(MachineConfig{}.validate_issues().empty());
}

TEST(Config, LatencyForClass) {
  const LatencyConfig lat;
  EXPECT_EQ(lat.for_class(OpClass::kAlu), 1);
  EXPECT_EQ(lat.for_class(OpClass::kMul), 2);
  EXPECT_EQ(lat.for_class(OpClass::kMem), 2);
  EXPECT_EQ(lat.for_class(OpClass::kComm), 1);
}

}  // namespace
}  // namespace vexsim
