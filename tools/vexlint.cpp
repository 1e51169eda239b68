// vexlint — static dataflow lint over compiled programs.
//
// Compiles every Figure-13 registry kernel and a synthetic-spec grid under
// all four compiler pass-pipeline variants, on the symmetric paper machine
// and an asymmetric 8+4+2+2 geometry, then runs the full static tool stack
// over each program: cc::verify_program (resource/encoding/kernel legality)
// and cc::lint_program (dataflow lint: def-before-use, dead copies, stale
// compare/slct clones, kernel stage-overlap conflicts, dead and unreachable
// code). The run is fully deterministic — compiles are memoized and the
// report is emitted with insertion-ordered keys — so the JSON is
// byte-identical across runs and diffable in CI.
//
// A clean tree reports zero findings; any finding is a compiler bug and
// fails the process (exit 1), which is what the CI vexlint job gates on.
//
// Usage:
//   vexlint --all [--json FILE]      lint the full registry × variant grid
//   vexlint --quick --all            reduced grid (CI smoke)
//   vexlint --kernels idct,mcf       restrict to named programs/specs
//   vexlint --variants cost_swp      restrict compiler variants
//   vexlint --config FILE            also lint on a description-file machine
//   vexlint --scale F               kernel scaling (default 0.1)
//   vexlint --selftest              prove the linter catches the seeded
//                                   PR 5-style clone-placement miscompile
//                                   (exit 0 iff it is flagged)
//   vexlint --verbose               print every finding, not just counts
//
// Any other flag is an error, as is --all with --kernels.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cc/lint.hpp"
#include "cc/options.hpp"
#include "cc/verifier.hpp"
#include "isa/config.hpp"
#include "mdes/machine.hpp"
#include "stats/json.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "vasm/assembler.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace vexsim;

struct Target {
  std::string program;
  std::string variant;
  MachineConfig cfg;
};

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

MachineConfig sym_machine() {
  MachineConfig cfg = MachineConfig::paper_single();
  cfg.validate();
  return cfg;
}

MachineConfig asym_machine() {
  MachineConfig cfg = MachineConfig::paper_single();
  cfg.cluster_renaming = false;
  cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                           ClusterResourceConfig::for_issue_width(4),
                           ClusterResourceConfig::for_issue_width(2),
                           ClusterResourceConfig::for_issue_width(2)};
  cfg.validate();
  return cfg;
}

// The PR 5 miscompile, reduced to its essential shape: a branch-condition
// compare cloned onto another cluster, with the clone's operand localized
// *before* an interleaving redefinition — the clone tests a stale value, so
// the two clusters disagree about the predicate. The linter must flag this
// statically (stale-clone); the dynamic equivalence suite only caught it by
// simulating full cross-variant runs.
constexpr const char* kCloneMiscompile = R"(
    c0 movi r5 = 1
    c0 movi r6 = 3 ; c1 movi r8 = 4
    c0 send ch0 = r5 ; c1 recv r7 = ch0
    c0 movi r5 = 2
    nop
    c0 cmplt b0 = r5, 100 ; c1 cmplt b0 = r7, 100
    nop
    c0 slct r3 = b0, r5, r6 ; c1 slct r4 = b0, r7, r8
    c0 stw 0x100[r0] = r3 ; c1 stw 0x104[r0] = r4
    c0 halt
)";

// The corrected shape: operands localized after the final redefinition, so
// both clones test the same value. Must stay finding-free.
constexpr const char* kCloneFixed = R"(
    c0 movi r5 = 2
    c0 movi r6 = 3 ; c1 movi r8 = 4
    c0 send ch0 = r5 ; c1 recv r7 = ch0
    nop
    c0 cmplt b0 = r5, 100 ; c1 cmplt b0 = r7, 100
    nop
    c0 slct r3 = b0, r5, r6 ; c1 slct r4 = b0, r7, r8
    c0 stw 0x100[r0] = r3 ; c1 stw 0x104[r0] = r4
    c0 halt
)";

int selftest() {
  const MachineConfig cfg = sym_machine();
  const Program bad = assemble(kCloneMiscompile, "pr5_clone_miscompile");
  const cc::LintReport bad_report = cc::lint_program(bad, cfg);
  bool flagged = false;
  for (const cc::LintFinding& f : bad_report.findings) {
    std::cout << "  " << to_string(bad, f) << "\n";
    flagged |= f.check == "stale-clone";
  }
  const Program good = assemble(kCloneFixed, "pr5_clone_fixed");
  const cc::LintReport good_report = cc::lint_program(good, cfg);
  for (const cc::LintFinding& f : good_report.findings)
    std::cout << "  " << to_string(good, f) << "\n";
  if (!flagged) {
    std::cout << "selftest FAILED: stale-clone miscompile not flagged\n";
    return 1;
  }
  if (!good_report.findings.empty()) {
    std::cout << "selftest FAILED: " << good_report.findings.size()
              << " finding(s) on the corrected clone shape\n";
    return 1;
  }
  std::cout << "selftest OK: miscompile flagged statically, corrected "
               "shape clean\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.get_bool("selftest", false)) {
    cli.reject_unknown();  // the selftest reads no other flag
    return selftest();
  }

  const bool quick = cli.get_bool("quick", false);
  const double scale = cli.get_double("scale", quick ? 0.05 : 0.1);
  const bool verbose = cli.get_bool("verbose", false);
  // --all names the default grid, which --kernels narrows.
  VEXSIM_CHECK_MSG(!(cli.get_bool("all", false) && cli.has("kernels")),
                   "--all and --kernels are exclusive");
  const std::string json_path = cli.get("json", "");

  std::vector<std::string> programs;
  if (cli.has("kernels")) {
    programs = split_list(cli.get("kernels", ""));
  } else {
    for (const wl::BenchmarkInfo& info : wl::benchmark_registry())
      programs.push_back(info.name);
    if (quick) {
      programs = {"mcf", "djpeg", "idct", "x264"};
      programs.emplace_back("synth:i0.5-m0.2-p0.5-s1");
      programs.emplace_back("synth:i0.9-m0.1-p0.5-s2");
    } else {
      // Synthetic grid: ILP gradient × memory intensity, plus branch- and
      // comm-heavy points, all with pipeline-parallel headroom so the
      // modulo scheduler actually fires under the *_swp variants.
      for (const char* spec :
           {"synth:i0.2-m0.1-p0.5-s1", "synth:i0.2-m0.3-p0.5-s2",
            "synth:i0.5-m0.1-p0.5-s3", "synth:i0.5-m0.3-p0.5-s4",
            "synth:i0.8-m0.1-p0.5-s5", "synth:i0.8-m0.3-p0.5-s6",
            "synth:i0.95-m0.1-p0.5-s7", "synth:i0.95-m0.3-p0.5-s8",
            "synth:i0.5-m0.2-b0.3-s9", "synth:i0.7-m0.1-c0.4-s10"})
        programs.emplace_back(spec);
    }
  }

  const std::vector<std::string> variants =
      cli.has("variants") ? split_list(cli.get("variants", ""))
                          : std::vector<std::string>{"greedy", "cost",
                                                     "cost_swp", "greedy_swp"};

  // The built-in grid machines, plus any description-file machine the
  // caller adds with --config FILE (lints the compiler against authored
  // geometries, not just the two hard-coded ones).
  std::vector<MachineConfig> machines = {sym_machine(), asym_machine()};
  if (cli.has("config")) {
    MachineConfig cfg = mdes::load_machine(cli.get("config", ""));
    cfg.hw_threads = 1;  // lint compiles single-threaded programs
    cfg.technique = Technique::smt();
    cfg.validate();
    machines.push_back(cfg);
  }
  cli.reject_unknown();

  std::vector<Target> targets;
  for (const MachineConfig& cfg : machines)
    for (const std::string& variant : variants)
      for (const std::string& program : programs)
        targets.push_back(Target{program, variant, cfg});

  Json report = Json::object();
  report.set("tool", "vexlint");
  report.set("scale", scale);
  Json target_array = Json::array();

  std::size_t total_findings = 0;
  std::size_t compile_errors = 0;
  for (const Target& t : targets) {
    Json entry = Json::object();
    entry.set("program", t.program);
    entry.set("variant", t.variant);
    entry.set("machine", t.cfg.geometry_name());
    Json findings = Json::array();
    try {
      const cc::CompilerOptions opt = cc::CompilerOptions::parse(t.variant);
      cc::CompileStats stats;
      const auto prog = wl::make_benchmark(t.program, t.cfg, scale, opt,
                                           &stats);
      entry.set("instructions", stats.instructions);
      entry.set("operations", stats.operations);
      entry.set("swp_loops", stats.swp_loops);

      auto add = [&](const std::string& check, std::uint64_t instr,
                     const std::string& what) {
        Json f = Json::object();
        f.set("check", check);
        f.set("instr", instr);
        f.set("what", what);
        findings.push(std::move(f));
        ++total_findings;
        if (verbose)
          std::cout << t.program << "/" << t.variant << "/"
                    << t.cfg.geometry_name() << "[" << instr << "] " << check
                    << ": " << what << "\n";
      };
      for (const cc::VerifyIssue& issue : cc::verify_program(*prog, t.cfg))
        add("verify", issue.instr, issue.what);
      const cc::LintReport lint = cc::lint_program(*prog, t.cfg);
      for (const cc::LintFinding& f : lint.findings)
        add(f.check, f.instr, f.what);

      Json pressure = Json::array();
      for (int c = 0; c < t.cfg.clusters; ++c)
        pressure.push(lint.pressure.max_gpr[static_cast<std::size_t>(c)]);
      entry.set("max_gpr_pressure", std::move(pressure));
    } catch (const std::exception& e) {
      ++compile_errors;
      Json f = Json::object();
      f.set("check", "compile-error");
      f.set("instr", 0);
      f.set("what", std::string(e.what()));
      findings.push(std::move(f));
      if (verbose)
        std::cout << t.program << "/" << t.variant << " compile-error: "
                  << e.what() << "\n";
    }
    entry.set("findings", std::move(findings));
    target_array.push(std::move(entry));
  }

  report.set("targets", std::move(target_array));
  report.set("programs", static_cast<std::uint64_t>(targets.size()));
  report.set("findings", static_cast<std::uint64_t>(total_findings));
  report.set("compile_errors", static_cast<std::uint64_t>(compile_errors));

  if (!json_path.empty()) write_json_file(json_path, report);

  std::cout << "vexlint: " << targets.size() << " compiled program(s), "
            << total_findings << " finding(s), " << compile_errors
            << " compile error(s)\n";
  return total_findings == 0 && compile_errors == 0 ? 0 : 1;
}
