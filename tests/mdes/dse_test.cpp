// Design-space-exploration templates: axis parsing, deterministic
// jobs-independent sampling, and the rejection (vs template-bug) split.
#include "mdes/dse.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "util/check.hpp"

#ifndef VEXSIM_SOURCE_DIR
#define VEXSIM_SOURCE_DIR "."
#endif

namespace vexsim::mdes {
namespace {

std::string shipped_template() {
  return std::string(VEXSIM_SOURCE_DIR) + "/configs/dse_template.conf";
}

// Writes a self-contained template (no includes) and returns its path.
std::string write_template(const std::string& tag, const std::string& text) {
  const std::string dir = testing::TempDir() + "/vexsim_dse_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/t.conf";
  std::ofstream os(path, std::ios::binary);
  os << text;
  return path;
}

constexpr const char* kTinyTemplate =
    "[dse]\n"
    "issue   = choice(2, 4, 8)\n"
    "threads = int(1, 4)\n"
    "ilp     = real(0.4, 0.9)\n"
    "[constraints]\n"
    "max_total_issue = 16\n"
    "[machine]\n"
    "clusters   = 4\n"
    "hw_threads = $(threads)\n"
    "cluster    = 'c'\n"
    "[c]\n"
    "issue_width = $(issue)\n"
    "[scenario]\n"
    "workload = repeat('synth:i$(ilp)-m0.2-s@', $(threads))\n"
    "budget   = 2000\n";

TEST(MdesDse, LoadsTheShippedTemplate) {
  const DseTemplate tmpl = load_template(shipped_template());
  ASSERT_EQ(tmpl.axes.size(), 6u);
  EXPECT_EQ(tmpl.axes[0].name, "clusters");
  EXPECT_EQ(tmpl.axes[0].kind, DseAxis::Kind::kChoice);
  EXPECT_EQ(tmpl.axes[2].name, "threads");
  EXPECT_EQ(tmpl.axes[2].kind, DseAxis::Kind::kInt);
  EXPECT_EQ(tmpl.axes[2].ilo, 2);
  EXPECT_EQ(tmpl.axes[2].ihi, 4);
  EXPECT_EQ(tmpl.axes[3].name, "technique");
  ASSERT_EQ(tmpl.axes[3].choices.size(), 3u);
  EXPECT_EQ(tmpl.axes[3].choices[0].s, "CSMT");
  EXPECT_EQ(tmpl.axes[4].kind, DseAxis::Kind::kReal);
  EXPECT_DOUBLE_EQ(tmpl.axes[4].rlo, 0.4);
  EXPECT_EQ(tmpl.axes[5].name, "membk");
  EXPECT_EQ(tmpl.axes[5].kind, DseAxis::Kind::kChoice);
  ASSERT_EQ(tmpl.axes[5].choices.size(), 2u);
  EXPECT_EQ(tmpl.axes[5].choices[1].s, "hierarchy");
  EXPECT_EQ(tmpl.max_total_issue, 16);
  EXPECT_EQ(tmpl.min_total_issue, 4);
}

TEST(MdesDse, SamplingIsDeterministicPerSeedAndIndex) {
  const DseTemplate tmpl = load_template(shipped_template());
  for (std::uint64_t index : {0u, 1u, 7u, 63u}) {
    const DsePoint a = sample_point(tmpl, 7, index);
    const DsePoint b = sample_point(tmpl, 7, index);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.reject_reason, b.reject_reason);
    EXPECT_EQ(a.bindings, b.bindings);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.scenario, b.scenario);
  }
  // A different seed changes at least one of the first few draws.
  bool any_difference = false;
  for (std::uint64_t index = 0; index < 8 && !any_difference; ++index)
    any_difference = !(sample_point(tmpl, 7, index).bindings ==
                       sample_point(tmpl, 8, index).bindings);
  EXPECT_TRUE(any_difference);
}

TEST(MdesDse, DrawsRespectTheDeclaredRanges) {
  const std::string path = write_template("ranges", kTinyTemplate);
  const DseTemplate tmpl = load_template(path);
  std::set<std::int64_t> issues_seen;
  for (std::uint64_t index = 0; index < 64; ++index) {
    const DsePoint p = sample_point(tmpl, 3, index);
    ASSERT_EQ(p.bindings.size(), 3u);
    const Value& issue = p.bindings[0].second;
    const Value& threads = p.bindings[1].second;
    const Value& ilp = p.bindings[2].second;
    EXPECT_TRUE(issue.i == 2 || issue.i == 4 || issue.i == 8);
    EXPECT_GE(threads.i, 1);
    EXPECT_LE(threads.i, 4);
    EXPECT_GE(ilp.d, 0.4);
    EXPECT_LT(ilp.d, 0.9);
    issues_seen.insert(issue.i);
    // The bound values really drive the evaluated sections.
    EXPECT_EQ(p.machine.hw_threads, threads.i);
    EXPECT_EQ(p.machine.cluster.issue_slots, issue.i);
  }
  EXPECT_EQ(issues_seen.size(), 3u);  // 64 draws hit every choice
}

TEST(MdesDse, ConstraintFailuresRejectWithAReason) {
  const std::string path = write_template("rejects", kTinyTemplate);
  const DseTemplate tmpl = load_template(path);
  int accepted = 0, rejected = 0;
  for (std::uint64_t index = 0; index < 64; ++index) {
    const DsePoint p = sample_point(tmpl, 3, index);
    if (p.ok) {
      EXPECT_TRUE(p.reject_reason.empty());
      EXPECT_LE(p.machine.total_issue_width(), 16);
      ++accepted;
    } else {
      // 4 clusters x 8-issue = 32 > 16 is the only reject in this space.
      EXPECT_NE(p.reject_reason.find("exceeds max_total_issue 16"),
                std::string::npos)
          << p.reject_reason;
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(MdesDse, ImpossibleConstraintRejectsEverything) {
  const std::string path = write_template(
      "impossible",
      "[dse]\n"
      "issue = choice(2, 4)\n"
      "[constraints]\n"
      "min_total_issue = 100\n"
      "[machine]\n"
      "clusters = 2\n"
      "cluster  = 'c'\n"
      "[c]\n"
      "issue_width = $(issue)\n"
      "[scenario]\n"
      "workload = 'llhh'\n");
  const DseTemplate tmpl = load_template(path);
  for (std::uint64_t index = 0; index < 16; ++index) {
    const DsePoint p = sample_point(tmpl, 1, index);
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.reject_reason.find("below min_total_issue 100"),
              std::string::npos);
  }
}

TEST(MdesDse, InvalidSampledMachineIsARejectionNotAnError) {
  // hw_threads axis can exceed nothing here, but renaming + asymmetry can't
  // happen; instead drive an invalid machine via a shared register file
  // with split-issue, which validate_issues rejects.
  const std::string path = write_template(
      "invalid",
      "[dse]\n"
      "org = choice('partitioned', 'shared')\n"
      "[machine]\n"
      "hw_threads = 2\n"
      "technique  = 'CCSI NS'\n"
      "rf_org     = '$(org)'\n"
      "[scenario]\n"
      "workload = 'llhh'\n");
  const DseTemplate tmpl = load_template(path);
  int ok = 0, rejected = 0;
  for (std::uint64_t index = 0; index < 32; ++index) {
    const DsePoint p = sample_point(tmpl, 5, index);
    if (p.ok) {
      ++ok;
    } else {
      EXPECT_NE(p.reject_reason.find("invalid machine:"), std::string::npos);
      ++rejected;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(rejected, 0);
}

TEST(MdesDse, BadL1GeometryDrawsAreRejections) {
  // A 48 B line is in the reader's range but builds no cache: the draw must
  // be rejected up front, not accepted and then fail every simulation.
  const std::string path = write_template(
      "l1_geometry",
      "[dse]\n"
      "line = choice(48, 64)\n"
      "[machine]\n"
      "icache = 'l1'\n"
      "dcache = 'l1'\n"
      "[l1]\n"
      "line_bytes = $(line)\n"
      "[scenario]\n"
      "workload = 'llhh'\n");
  const DseTemplate tmpl = load_template(path);
  int ok = 0, rejected = 0;
  for (std::uint64_t index = 0; index < 32; ++index) {
    const DsePoint p = sample_point(tmpl, 3, index);
    if (p.ok) {
      EXPECT_EQ(p.machine.icache.line_bytes, 64u);
      ++ok;
    } else {
      EXPECT_EQ(p.reject_reason.rfind(
                    "invalid machine: icache.line_bytes = 48 is not a "
                    "power of two",
                    0),
                0u)
          << p.reject_reason;
      ++rejected;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(rejected, 0);
}

TEST(MdesDse, TemplateBugsThrowInsteadOfRejecting) {
  // Unknown key under bound axes: an evaluation-time template bug.
  const std::string path = write_template(
      "bug",
      "[dse]\n"
      "issue = choice(2, 4)\n"
      "[machine]\n"
      "issue_wdith = $(issue)\n"  // typo: unknown [machine] key
      "[scenario]\n"
      "workload = 'llhh'\n");
  const DseTemplate tmpl = load_template(path);
  EXPECT_THROW((void)sample_point(tmpl, 1, 0), CheckError);
}

TEST(MdesDse, DrawsBeyondTheSimulatorLimitsAreTemplateErrors) {
  // A draw of 9+ threads, like one of 9+ clusters, fails the [machine]
  // reader at the key's line: the template asks for a machine the
  // simulator cannot build, which no resampling fixes.
  for (const char* key : {"hw_threads", "clusters"}) {
    const std::string path = write_template(
        std::string("limit_") + key,
        std::string("[dse]\n"
                    "n = choice(9)\n"
                    "[machine]\n") +
            key + " = $(n)\n"
                  "[scenario]\n"
                  "workload = 'llhh'\n");
    const DseTemplate tmpl = load_template(path);
    try {
      (void)sample_point(tmpl, 1, 0);
      FAIL() << key << ": expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":4: " + key +
                                           " = 9 out of range [1, 8]"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MdesDse, BadAxisSpecsAreAggregatedLoadErrors) {
  const std::string path = write_template(
      "badaxes",
      "[dse]\n"
      "a = gaussian(0, 1)\n"      // unknown distribution
      "b = int(4, 2)\n"           // inverted range
      "c = choice()\n"            // no values
      "d[0] = choice(1)\n"        // indexed axis
      "[machine]\n"
      "clusters = 2\n"
      "[scenario]\n"
      "workload = 'llhh'\n");
  try {
    (void)load_template(path);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    // choice() yields two diagnostics: the empty-expression evaluation
    // failure and the no-values check.
    EXPECT_NE(msg.find("5 problem(s)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown distribution 'gaussian'"), std::string::npos);
    EXPECT_NE(msg.find("bad int range [4, 2]"), std::string::npos);
    EXPECT_NE(msg.find("choice() needs at least one value"),
              std::string::npos);
    EXPECT_NE(msg.find("axes cannot be indexed"), std::string::npos);
  }
}

TEST(MdesDse, MissingSectionsAreLoadErrors) {
  const std::string path =
      write_template("nosections", "[dse]\nissue = choice(2)\n");
  try {
    (void)load_template(path);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("missing [machine] section"), std::string::npos);
    EXPECT_NE(msg.find("missing [scenario] section"), std::string::npos);
  }
}

}  // namespace
}  // namespace vexsim::mdes
