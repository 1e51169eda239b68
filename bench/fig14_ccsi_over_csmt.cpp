// Figure 14: speedup of cluster-level split-issue (CCSI) over CSMT for the
// 2-thread and 4-thread machines, under both communication policies
// (NS = no split of send/recv instructions, AS = always split).
//
// All simulation points run through the parallel sweep engine; --jobs N
// picks the worker count (results are bit-identical for any N) and the raw
// per-point statistics land in a JSON trajectory file.
//
// Flags: --cc NAME, --cc-verify, --config FILE (base machine description),
//        --mem fixed|hierarchy (memory backend; default fixed),
//        --scale, --budget, --timeslice, --seed, --quick, --paper, --csv,
//        --jobs N, --json FILE (default BENCH_sweep.json),
//        --cache[=DIR]/--no-cache (result cache), --timeout MS, --retries N,
//        --shard I/N (run one round-robin slice and emit a shard document
//        for tools/vexmerge), --cache-gc SIZE (post-sweep cache eviction).
#include <iostream>
#include <vector>

#include "harness/sweep.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  const auto opt = harness::ExperimentOptions::from_cli(cli);
  const bool csv = cli.get_bool("csv", false);

  std::cout << "Figure 14: CCSI speedup over CSMT (%)\n"
            << "paper averages: 2T NS 6.1 / 2T AS 8.7 / 4T NS 3.5 / 4T AS 7.5\n\n";

  // Per workload and thread count: the CSMT baseline followed by CCSI under
  // both communication policies — 6 points per workload.
  std::vector<harness::SweepPoint> points;
  for (const wl::WorkloadSpec& spec : wl::paper_workloads()) {
    for (int threads : {2, 4}) {
      const std::string suffix = "/" + std::to_string(threads) + "T";
      points.push_back({spec.name + "/CSMT" + suffix,
                        opt.machine(threads, Technique::csmt()), spec.name,
                        opt});
      for (CommPolicy comm : {CommPolicy::kNoSplit, CommPolicy::kAlwaysSplit}) {
        const Technique t = Technique::ccsi(comm);
        points.push_back({spec.name + "/" + t.name() + suffix,
                          opt.machine(threads, t), spec.name, opt});
      }
    }
  }
  const std::vector<RunResult> results =
      harness::run_sweep_and_dump(cli, "fig14_ccsi_over_csmt", points);

  if (const auto code = harness::skip_tables(cli, results, std::cout))
    return *code;

  Table table({"workload", "2T NS", "2T AS", "4T NS", "4T AS"});
  std::vector<double> avg(4, 0.0);
  int n = 0;
  for (const wl::WorkloadSpec& spec : wl::paper_workloads()) {
    std::vector<std::string> row{spec.name};
    int col = 0;
    for (int threads : {2, 4}) {
      const std::string suffix = "/" + std::to_string(threads) + "T";
      const RunResult& base = harness::result_for(
          points, results, spec.name + "/CSMT" + suffix);
      for (CommPolicy comm : {CommPolicy::kNoSplit, CommPolicy::kAlwaysSplit}) {
        const RunResult& ccsi = harness::result_for(
            points, results,
            spec.name + "/" + Technique::ccsi(comm).name() + suffix);
        const double s = speedup(ccsi.ipc(), base.ipc());
        avg[static_cast<std::size_t>(col)] += s;
        row.push_back(Table::pct(s));
        ++col;
      }
    }
    ++n;
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg_row{"avg"};
  for (double a : avg) avg_row.push_back(Table::pct(a / n));
  table.add_row(std::move(avg_row));

  if (csv)
    std::cout << table.to_csv();
  else
    std::cout << table.to_text();
  std::cout << "\nShape check: AS >= NS on average; gains largest for "
               "low-ILP-heavy mixes (llll) under NS and for comm-heavy "
               "high-ILP mixes under AS.\n";
  return 0;
}
