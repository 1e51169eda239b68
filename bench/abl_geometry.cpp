// Ablation A4: machine geometry sweep — how the CCSI gain over CSMT moves
// with cluster count and per-cluster issue width.
//
// Intuition from the paper: more clusters = more independent bundles =
// more opportunities for cluster-level split; wider clusters reduce
// conflicts and shrink the gain.
//
// All simulation points run through the parallel sweep engine; --jobs N
// picks the worker count (results are bit-identical for any N) and the raw
// per-point statistics land in a JSON trajectory file.
//
// Flags: --cc NAME, --cc-verify, --config FILE (base machine description),
//        --mem fixed|hierarchy (memory backend; default fixed),
//        --scale, --budget, --timeslice, --seed, --quick, --paper,
//        --jobs N, --json FILE (default BENCH_sweep.json),
//        --cache[=DIR]/--no-cache (result cache), --timeout MS, --retries N,
//        --shard I/N (run one round-robin slice and emit a shard document
//        for tools/vexmerge), --cache-gc SIZE (post-sweep cache eviction).
#include <algorithm>
#include <iostream>
#include <vector>

#include "harness/sweep.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  const auto opt = harness::ExperimentOptions::from_cli(cli);

  std::cout << "Ablation: geometry sweep (4 threads, workloads llll and "
               "hhhh)\n\n";

  auto make_cfg = [&opt](Technique t, int clusters, int issue) {
    MachineConfig cfg = opt.machine(4, t);
    cfg.clusters = clusters;
    cfg.cluster.issue_slots = issue;
    cfg.cluster.alus = issue;
    cfg.cluster.muls = std::max(1, issue / 2);
    cfg.cluster.mem_units = 1;
    cfg.validate();
    return cfg;
  };

  // Per (workload, geometry): the CSMT baseline followed by CCSI AS.
  std::vector<harness::SweepPoint> points;
  for (const char* wname : {"llll", "hhhh"}) {
    for (int clusters : {2, 4}) {
      for (int issue : {2, 4}) {
        const std::string geom = std::string(wname) + "/" +
                                 std::to_string(clusters) + "x" +
                                 std::to_string(issue);
        points.push_back({geom + "/CSMT",
                          make_cfg(Technique::csmt(), clusters, issue), wname,
                          opt});
        points.push_back(
            {geom + "/CCSI AS",
             make_cfg(Technique::ccsi(CommPolicy::kAlwaysSplit), clusters,
                      issue),
             wname, opt});
      }
    }
  }
  const std::vector<RunResult> results =
      harness::run_sweep_and_dump(cli, "abl_geometry", points);

  if (const auto code = harness::skip_tables(cli, results, std::cout))
    return *code;

  Table table({"workload", "clusters", "issue/cluster", "CSMT IPC",
               "CCSI AS IPC", "CCSI gain"});
  for (const char* wname : {"llll", "hhhh"}) {
    for (int clusters : {2, 4}) {
      for (int issue : {2, 4}) {
        const std::string geom = std::string(wname) + "/" +
                                 std::to_string(clusters) + "x" +
                                 std::to_string(issue);
        const RunResult& base =
            harness::result_for(points, results, geom + "/CSMT");
        const RunResult& ccsi =
            harness::result_for(points, results, geom + "/CCSI AS");
        table.add_row({wname, std::to_string(clusters), std::to_string(issue),
                       Table::fmt(base.ipc()), Table::fmt(ccsi.ipc()),
                       Table::pct(speedup(ccsi.ipc(), base.ipc()))});
      }
    }
  }
  std::cout << table.to_text();
  std::cout << "\nShape check: the split-issue gain grows with cluster count "
               "(more bundles to split across).\n";
  return 0;
}
