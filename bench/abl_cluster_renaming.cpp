// Ablation A1: cluster renaming on/off (Section IV).
//
// Renaming statically rotates each thread's clusters; without it every
// thread's code competes for the compiler's favourite clusters and both
// CSMT and CCSI lose most merging opportunities.
//
// All simulation points run through the parallel sweep engine; --jobs N
// picks the worker count (results are bit-identical for any N) and the raw
// per-point statistics land in a JSON trajectory file.
//
// Flags: --cc NAME, --cc-verify, --config FILE (base machine description),
//        --mem fixed|hierarchy (memory backend; default fixed),
//        --scale, --budget, --timeslice, --seed, --quick, --paper, --csv,
//        --jobs N, --progress N, --json FILE,
//        --cache[=DIR]/--no-cache (result cache), --timeout MS, --retries N,
//        --shard I/N (run one round-robin slice and emit a shard document
//        for tools/vexmerge), --cache-gc SIZE (post-sweep cache eviction).
#include <iostream>
#include <vector>

#include "harness/sweep.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"
#include "workloads/workloads.hpp"

namespace {

std::string label_of(const char* wname, const vexsim::Technique& t,
                     bool renamed) {
  return std::string(wname) + "/" + t.name() +
         (renamed ? "/renamed" : "/identity");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  const auto opt = harness::ExperimentOptions::from_cli(cli);
  const bool csv = cli.get_bool("csv", false);

  std::cout << "Ablation: cluster renaming (4-thread machine)\n\n";

  const std::vector<const char*> workloads = {"llll", "mmmm", "hhhh"};
  const std::vector<Technique> techniques = {
      Technique::csmt(), Technique::ccsi(CommPolicy::kAlwaysSplit),
      Technique::smt()};
  std::vector<harness::SweepPoint> points;
  for (const char* wname : workloads) {
    for (const Technique& t : techniques) {
      for (bool renamed : {true, false}) {
        MachineConfig cfg = opt.machine(4, t);
        cfg.cluster_renaming = renamed;
        points.push_back({label_of(wname, t, renamed), cfg, wname, opt});
      }
    }
  }
  const std::vector<RunResult> results =
      harness::run_sweep_and_dump(cli, "abl_cluster_renaming", points);

  if (const auto code = harness::skip_tables(cli, results, std::cout))
    return *code;

  Table table({"workload", "technique", "IPC renamed", "IPC identity",
               "renaming gain"});
  for (const char* wname : workloads) {
    for (const Technique& t : techniques) {
      const RunResult& with_ren =
          harness::result_for(points, results, label_of(wname, t, true));
      const RunResult& without =
          harness::result_for(points, results, label_of(wname, t, false));
      table.add_row({wname, t.name(), Table::fmt(with_ren.ipc()),
                     Table::fmt(without.ipc()),
                     Table::pct(speedup(with_ren.ipc(), without.ipc()))});
    }
  }
  if (csv)
    std::cout << table.to_csv();
  else
    std::cout << table.to_text();
  std::cout << "\nShape check: renaming gains are largest for cluster-level "
               "merging (CSMT/CCSI), where whole-cluster conflicts dominate.\n";
  return 0;
}
