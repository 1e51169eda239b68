// Ablation A6: compiler pass-pipeline quality — greedy vs cost-model
// cluster assignment vs cost-model + software pipelining, across the paper
// mixes and a synthetic ILP gradient on the symmetric and asymmetric
// machines.
//
// Every point reports both the machine's view (IPC) and the compiler's
// (static ops/instruction, inter-cluster copies, software-pipelined loop
// count) — the "compile" object in BENCH_abl_compiler.json — so compile
// quality lands in the bench trajectories next to the performance it
// produces.
//
// --check-quality turns the run into the CI compile-quality gate: on the
// high-ILP synthetic points (ILP dial >= 0.8) the cost-model assigner must
// not regress static ops/instruction against greedy, with or without
// software pipelining. Exit status 1 lists the violations.
//
// All points run through the parallel sweep engine; results are
// bit-identical for any --jobs value and land in BENCH_abl_compiler.json.
//
// Flags: --cc NAME, --cc-verify, --config FILE (base machine description),
//        --mem fixed|hierarchy (memory backend; default fixed),
//        --scale, --budget, --timeslice, --seed, --quick, --paper,
//        --jobs N, --progress N, --json FILE, --cache[=DIR]/--no-cache,
//        --timeout MS, --retries N, --check-quality, --shard I/N (run one
//        round-robin slice and emit a shard document for tools/vexmerge;
//        skips tables and the quality gate), --cache-gc SIZE.
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "harness/sweep.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"

namespace {

constexpr const char* kVariants[] = {"greedy", "cost", "cost_swp"};

std::string ilp_token(double ilp) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << ilp;
  return os.str();
}

// One synthetic program per context: the ILP dial under test, moderate
// memory traffic, and a pipeline-parallel fraction so the modulo scheduler
// has recurrence headroom to work with.
std::string synth_mix(double ilp, int contexts) {
  std::string mix;
  for (int k = 1; k <= contexts; ++k) {
    if (k > 1) mix += "+";
    mix += "synth:i" + ilp_token(ilp) + "-m0.20-p0.5-s" + std::to_string(k);
  }
  return mix;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  harness::ExperimentOptions base_opt =
      harness::ExperimentOptions::from_cli(cli);
  if (cli.get_bool("quick", false) && !cli.has("budget")) {
    base_opt.budget = 30'000;
    base_opt.timeslice = 10'000;
  }

  const bool quick = cli.get_bool("quick", false);
  const bool check_quality = cli.get_bool("check-quality", false);
  const std::vector<std::string> mixes =
      quick ? std::vector<std::string>{"llmm", "hhhh"}
            : std::vector<std::string>{"llll", "lmmh", "mmmm", "llmm", "llmh",
                                       "llhh", "lmhh", "mmhh", "hhhh"};
  const std::vector<double> ilps =
      quick ? std::vector<double>{0.5, 0.8, 0.95}
            : std::vector<double>{0.2, 0.5, 0.8, 0.9, 0.95};

  auto sym_cfg = [&base_opt] {
    MachineConfig cfg =
        base_opt.machine(4, Technique::ccsi(CommPolicy::kNoSplit));
    cfg.validate();
    return cfg;
  };
  auto asym_cfg = [&base_opt] {
    MachineConfig cfg =
        base_opt.machine(4, Technique::ccsi(CommPolicy::kNoSplit));
    cfg.cluster_renaming = false;
    cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                             ClusterResourceConfig::for_issue_width(4),
                             ClusterResourceConfig::for_issue_width(2),
                             ClusterResourceConfig::for_issue_width(2)};
    cfg.validate();
    return cfg;
  };

  std::cout << "Ablation: compiler pipeline (greedy vs cost-model vs "
               "+software-pipelining), CCSI-NS, 4 contexts\n\n";

  std::vector<harness::SweepPoint> points;
  auto add_point = [&points, &base_opt](const MachineConfig& cfg,
                                        const std::string& label_base,
                                        const std::string& workload) {
    for (const char* variant : kVariants) {
      harness::ExperimentOptions opt = base_opt;
      opt.compiler = cc::CompilerOptions::parse(variant);
      points.push_back(harness::SweepPoint{label_base + "/" + variant, cfg,
                                           workload, opt});
    }
  };
  for (const std::string& mix : mixes) add_point(sym_cfg(), mix, mix);
  for (const double ilp : ilps) {
    add_point(sym_cfg(), "i" + ilp_token(ilp) + "/4x4", synth_mix(ilp, 4));
    add_point(asym_cfg(), "i" + ilp_token(ilp) + "/8+4+2+2",
              synth_mix(ilp, 4));
  }

  const std::vector<RunResult> results =
      harness::run_sweep_and_dump(cli, "abl_compiler", points);

  if (const auto code = harness::skip_tables(cli, results, std::cout))
    return *code;

  std::vector<std::string> headers{"workload"};
  for (const char* variant : kVariants) {
    headers.push_back(std::string(variant) + " o/i");
    headers.push_back(std::string(variant) + " ipc");
  }
  headers.emplace_back("swp loops");
  Table table(headers);
  std::vector<std::string> label_bases;
  for (const std::string& mix : mixes) label_bases.push_back(mix);
  for (const double ilp : ilps) {
    label_bases.push_back("i" + ilp_token(ilp) + "/4x4");
    label_bases.push_back("i" + ilp_token(ilp) + "/8+4+2+2");
  }
  for (const std::string& base : label_bases) {
    std::vector<std::string> row{base};
    std::uint64_t swp_loops = 0;
    for (const char* variant : kVariants) {
      const RunResult& r =
          harness::result_for(points, results, base + "/" + variant);
      row.push_back(Table::fmt(r.compile.ops_per_instruction()));
      row.push_back(Table::fmt(r.ipc()));
      swp_loops = std::max(swp_loops, r.compile.swp_loops);
    }
    row.push_back(std::to_string(swp_loops));
    table.add_row(std::move(row));
  }
  std::cout << table.to_text() << "\n";

  std::cout << "Shape check: the cost model shortens schedules where greedy "
               "overloads a class or a narrow cluster (asymmetric rows); "
               "software pipelining converts list-schedule stalls in "
               "recurrence-light loops into kernel overlap, which shows up "
               "as both denser static code and higher IPC.\n";

  if (!check_quality) return 0;

  // Compile-quality gate: on the high-ILP synthetic gradient the
  // cost-model pipelines must not regress static density against greedy.
  int violations = 0;
  for (const double ilp : ilps) {
    if (ilp < 0.8) continue;
    for (const char* geom : {"4x4", "8+4+2+2"}) {
      const std::string base = "i" + ilp_token(ilp) + "/" + geom;
      const double greedy_opi =
          harness::result_for(points, results, base + "/greedy")
              .compile.ops_per_instruction();
      for (const char* variant : {"cost", "cost_swp"}) {
        const double opi =
            harness::result_for(points, results, base + "/" + variant)
                .compile.ops_per_instruction();
        if (opi + 1e-9 < greedy_opi) {
          std::cerr << "compile-quality violation: " << base << "/" << variant
                    << " ops/instruction " << opi << " < greedy "
                    << greedy_opi << "\n";
          ++violations;
        }
      }
    }
  }
  if (violations > 0) {
    std::cerr << violations << " compile-quality violation(s)\n";
    return 1;
  }
  std::cout << "compile-quality gate: cost-model >= greedy ops/instruction "
               "on every high-ILP synthetic point\n";
  return 0;
}
