// Scenario descriptions: [scenario] deserialization, the contexts/technique
// overlays onto the machine, and exact to_config() round trips.
#include "mdes/scenario.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/check.hpp"

#ifndef VEXSIM_SOURCE_DIR
#define VEXSIM_SOURCE_DIR "."
#endif

namespace vexsim::mdes {
namespace {

std::string config_path(const std::string& name) {
  return std::string(VEXSIM_SOURCE_DIR) + "/configs/" + name;
}

Scenario parse_scenario(const std::string& text, Diagnostics& diags) {
  const ConfigFile file = ConfigFile::parse_text(text);
  const Interp interp(file);
  return scenario_from(file, interp, diags);
}

Scenario parse_scenario_ok(const std::string& text) {
  Diagnostics diags;
  const Scenario s = parse_scenario(text, diags);
  EXPECT_TRUE(diags.empty())
      << diags.all().front().loc.str() << ": " << diags.all().front().message;
  return s;
}

TEST(MdesScenario, ReadsEveryField) {
  const Scenario s = parse_scenario_ok(
      "[scenario]\n"
      "workload  = 'llhh'\n"
      "contexts  = 4\n"
      "technique = 'CCSI NS'\n"
      "scale     = 0.25\n"
      "budget    = 60000\n"
      "timeslice = 20000\n"
      "max_cycles = 1000000\n"
      "seed      = 11\n"
      "fast_forward = false\n"
      "compiler  = 'cost_swp'\n");
  EXPECT_EQ(s.workload, "llhh");
  EXPECT_EQ(s.contexts, 4);
  EXPECT_TRUE(s.has_technique);
  EXPECT_EQ(s.technique, Technique::ccsi(CommPolicy::kNoSplit));
  EXPECT_DOUBLE_EQ(s.opt.scale, 0.25);
  EXPECT_EQ(s.opt.budget, 60000u);
  EXPECT_EQ(s.opt.timeslice, 20000u);
  EXPECT_EQ(s.opt.max_cycles, 1000000u);
  EXPECT_EQ(s.opt.seed, 11u);
  EXPECT_FALSE(s.opt.fast_forward);
  EXPECT_EQ(s.opt.compiler.name(), "cost_swp");
}

TEST(MdesScenario, OmittedKeysKeepDefaults) {
  const Scenario s = parse_scenario_ok("[scenario]\nworkload = 'llhh'\n");
  const harness::ExperimentOptions defaults;
  EXPECT_EQ(s.contexts, 0);  // 0 = keep the machine's hw_threads
  EXPECT_FALSE(s.has_technique);
  EXPECT_EQ(s.opt, defaults);
}

TEST(MdesScenario, ProblemsAreAggregatedDiagnostics) {
  Diagnostics diags;
  (void)parse_scenario(
      "[scenario]\n"
      "contexts  = 4\n"           // but no workload
      "technique = 'WARP9'\n"     // unknown technique
      "compiler  = 'O9'\n"        // unknown compiler variant
      "budget    = -3\n"          // negative
      "typo      = 1\n",          // unknown key
      diags);
  ASSERT_EQ(diags.all().size(), 5u);
  EXPECT_NE(diags.all()[0].message.find("workload"), std::string::npos);
  EXPECT_NE(diags.all()[1].message.find("WARP9"), std::string::npos);
  EXPECT_NE(diags.all()[2].message.find("must be non-negative"),
            std::string::npos);
  EXPECT_NE(diags.all()[3].message.find("O9"), std::string::npos);
  EXPECT_NE(diags.all()[4].message.find("unknown key 'typo'"),
            std::string::npos);
}

TEST(MdesScenario, ScaleAtOrBelowZeroIsALocatedDiagnostic) {
  for (const char* value : {"0", "-0.5"}) {
    Diagnostics diags;
    (void)parse_scenario(std::string("[scenario]\n"
                                     "workload = 'llhh'\n"
                                     "scale    = ") +
                             value + "\n",
                         diags);
    ASSERT_EQ(diags.all().size(), 1u) << value;
    EXPECT_EQ(diags.all()[0].loc.line, 3) << value;
    EXPECT_NE(diags.all()[0].message.find("scale"), std::string::npos);
    EXPECT_NE(diags.all()[0].message.find("must be positive"),
              std::string::npos)
        << diags.all()[0].message;
  }
  EXPECT_DOUBLE_EQ(
      parse_scenario_ok("[scenario]\nworkload = 'llhh'\nscale = 0.5\n")
          .opt.scale,
      0.5);
}

TEST(MdesScenario, ContextsOutOfRangeIsALocatedDiagnostic) {
  for (const int contexts : {0, kMaxHwThreads + 1, 64}) {
    Diagnostics diags;
    (void)parse_scenario("[scenario]\n"
                         "workload = 'llhh'\n"
                         "contexts = " +
                             std::to_string(contexts) + "\n",
                         diags);
    ASSERT_EQ(diags.all().size(), 1u) << contexts;
    EXPECT_EQ(diags.all()[0].loc.line, 3) << contexts;
    EXPECT_NE(diags.all()[0].message.find("contexts = " +
                                          std::to_string(contexts) +
                                          " out of range [1, 8]"),
              std::string::npos)
        << diags.all()[0].message;
  }
  EXPECT_EQ(parse_scenario_ok("[scenario]\nworkload = 'llhh'\ncontexts = 8\n")
                .contexts,
            kMaxHwThreads);
}

TEST(MdesScenario, RetiredFusedKeyIsUnknown) {
  // The simulator has one cycle engine, so there is no engine to select.
  Diagnostics diags;
  (void)parse_scenario(
      "[scenario]\n"
      "workload = 'llhh'\n"
      "fused    = false\n",
      diags);
  ASSERT_EQ(diags.all().size(), 1u);
  EXPECT_EQ(diags.all()[0].loc.line, 3);
  EXPECT_NE(diags.all()[0].message.find("unknown key 'fused'"),
            std::string::npos);
}

TEST(MdesScenario, MissingSectionIsADiagnostic) {
  Diagnostics diags;
  (void)parse_scenario("[machine]\nclusters = 2\n", diags);
  ASSERT_EQ(diags.all().size(), 1u);
  EXPECT_NE(diags.all()[0].message.find("missing [scenario] section"),
            std::string::npos);
}

TEST(MdesScenario, ApplyOverlaysContextsAndTechnique) {
  Scenario s;
  s.workload = "llhh";
  MachineConfig base;  // 1 thread, SMT
  // Nothing set: the machine passes through untouched.
  EXPECT_EQ(apply(s, base), base);
  s.contexts = 4;
  s.has_technique = true;
  s.technique = Technique::ccsi(CommPolicy::kAlwaysSplit);
  const MachineConfig over = apply(s, base);
  EXPECT_EQ(over.hw_threads, 4);
  EXPECT_EQ(over.technique, Technique::ccsi(CommPolicy::kAlwaysSplit));
}

TEST(MdesScenario, ToConfigRoundTripsExactly) {
  Scenario s;
  s.workload = "synth:i0.7-m0.2-p0.5-s1+synth:i0.7-m0.2-p0.5-s2";
  s.contexts = 2;
  s.has_technique = true;
  s.technique = Technique::cosi(CommPolicy::kNoSplit);
  s.opt.scale = 0.05;
  s.opt.budget = 2000;
  s.opt.timeslice = 500;
  s.opt.max_cycles = 123456789;
  s.opt.seed = 7;
  s.opt.fast_forward = false;
  s.opt.compiler = cc::CompilerOptions::parse("cost");
  EXPECT_EQ(parse_scenario_ok(to_config(s)), s);

  // Overlays absent: the contexts/technique lines are omitted and the
  // round trip still lands on the exact value.
  Scenario plain;
  plain.workload = "llhh";
  EXPECT_EQ(parse_scenario_ok(to_config(plain)), plain);
}

TEST(MdesScenario, LoadMachineScenarioAppliesOverlays) {
  const MachineScenario ms =
      load_machine_scenario(config_path("paper4x4.conf"));
  // The file's machine is single-threaded; the scenario lifts it to the
  // paper's headline 4-context CCSI NS operating point.
  EXPECT_EQ(ms.machine.hw_threads, 4);
  EXPECT_EQ(ms.machine.technique, Technique::ccsi(CommPolicy::kNoSplit));
  EXPECT_EQ(ms.scenario.workload, "llhh");
  EXPECT_EQ(ms.scenario.opt.budget, 60000u);
  // Everything but the overlays is still the default machine.
  MachineConfig expect;
  expect.hw_threads = 4;
  expect.technique = Technique::ccsi(CommPolicy::kNoSplit);
  EXPECT_EQ(ms.machine, expect);
}

TEST(MdesScenario, LoadMachineScenarioRejectsInvalidCombination) {
  // asym8422 forbids renaming; force a contexts overlay that would pass
  // through but leave an invalid machine if renaming were re-enabled.
  const ConfigFile file = ConfigFile::parse_file(config_path("asym8422.conf"));
  const Interp interp(file);
  Diagnostics diags;
  MachineConfig m = machine_from(file, interp, diags);
  ASSERT_TRUE(diags.empty());
  m.cluster_renaming = true;  // asymmetric + 4 contexts: invalid
  m.hw_threads = 4;
  EXPECT_FALSE(m.validate_issues().empty());
  EXPECT_THROW(m.validate(), CheckError);
}

}  // namespace
}  // namespace vexsim::mdes
