// Ablation A5: synthetic-workload scenario sweep — the experiment space the
// fixed Figure-13 suite cannot reach.
//
// Sweeps a continuous ILP gradient × {2,4,6,8} hardware contexts ×
// {symmetric 4x4, asymmetric 8+4+2+2} cluster geometries across all eight
// multithreading techniques. Each point's workload is a generated mix of
// per-context synthetic programs (one seed per context) at the given ILP
// level, so context counts beyond the paper's four and lopsided machines
// get exercised with controlled, reproducible pressure.
//
// Cluster renaming is off for both geometries (required on the asymmetric
// machine — rotation would land wide bundles on narrow clusters — and kept
// off on the symmetric one so the geometry axis is the only difference).
//
// All points run through the parallel sweep engine; results are
// bit-identical for any --jobs value and land in BENCH_abl_synth.json.
//
// Flags: --cc NAME, --cc-verify, --config FILE (base machine description),
//        --mem fixed|hierarchy (memory backend; default fixed),
//        --scale, --budget, --timeslice, --seed, --quick, --paper,
//        --jobs N, --progress N, --json FILE (default BENCH_abl_synth.json),
//        --cache[=DIR]/--no-cache (result cache), --timeout MS, --retries N,
//        --shard I/N (run one round-robin slice and emit a shard document
//        for tools/vexmerge), --cache-gc SIZE (post-sweep cache eviction).
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "harness/sweep.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"

namespace {

std::string ilp_token(double ilp) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << ilp;
  return os.str();
}

// One synthetic program per context: same ILP level, distinct seeds.
std::string synth_mix(double ilp, int contexts) {
  std::string mix;
  for (int k = 1; k <= contexts; ++k) {
    if (k > 1) mix += "+";
    mix += "synth:i" + ilp_token(ilp) + "-m0.20-b0.05-s" + std::to_string(k);
  }
  return mix;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  harness::ExperimentOptions opt = harness::ExperimentOptions::from_cli(cli);
  if (cli.get_bool("quick", false) && !cli.has("budget")) {
    // 128 points: keep the smoke run snappy.
    opt.budget = 20'000;
    opt.timeslice = 10'000;
  }

  const std::vector<double> ilps = cli.get_bool("quick", false)
                                       ? std::vector<double>{0.2, 0.8}
                                       : std::vector<double>{0.1, 0.5, 0.9};
  const std::vector<int> contexts = {2, 4, 6, 8};

  auto make_cfg = [&opt](bool asym, int threads, Technique t) {
    MachineConfig cfg = opt.machine(threads, t);
    cfg.cluster_renaming = false;
    if (asym)
      cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                               ClusterResourceConfig::for_issue_width(4),
                               ClusterResourceConfig::for_issue_width(2),
                               ClusterResourceConfig::for_issue_width(2)};
    cfg.validate();
    return cfg;
  };

  std::cout << "Ablation: synthetic ILP gradient x context count x geometry "
               "(all eight techniques)\n\n";

  std::vector<harness::SweepPoint> points;
  for (const bool asym : {false, true}) {
    for (const double ilp : ilps) {
      for (const int threads : contexts) {
        for (const Technique& t : Technique::kAll) {
          MachineConfig cfg = make_cfg(asym, threads, t);
          const std::string label = "i" + ilp_token(ilp) + "/" +
                                    std::to_string(threads) + "T/" +
                                    cfg.geometry_name() + "/" + t.name();
          points.push_back(
              {label, std::move(cfg), synth_mix(ilp, threads), opt});
        }
      }
    }
  }
  const std::vector<RunResult> results =
      harness::run_sweep_and_dump(cli, "abl_synth", points);

  if (const auto code = harness::skip_tables(cli, results, std::cout))
    return *code;

  for (const bool asym : {false, true}) {
    const std::string geom = asym ? "8+4+2+2" : "4x4";
    std::cout << "Geometry " << geom << ":\n";
    std::vector<std::string> headers{"ilp", "contexts"};
    for (const Technique& t : Technique::kAll) headers.push_back(t.name());
    Table table(headers);
    for (const double ilp : ilps) {
      for (const int threads : contexts) {
        std::vector<std::string> row{ilp_token(ilp), std::to_string(threads)};
        for (const Technique& t : Technique::kAll) {
          const std::string label = "i" + ilp_token(ilp) + "/" +
                                    std::to_string(threads) + "T/" + geom +
                                    "/" + t.name();
          row.push_back(
              Table::fmt(harness::result_for(points, results, label).ipc()));
        }
        table.add_row(std::move(row));
      }
    }
    std::cout << table.to_text() << "\n";
  }

  std::cout << "Shape check: IPC grows with the ILP dial; split-issue gains "
               "concentrate at low ILP and high context counts, where bundle "
               "conflicts dominate; the asymmetric machine leans harder on "
               "merging (narrow clusters congest first).\n";
  return 0;
}
