// Figure 15: speedups of cluster-level (COSI) and operation-level (OOSI)
// split-issue over SMT, for 2-thread and 4-thread machines, NS and AS.
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

namespace {

const struct {
  vexsim::SplitLevel split;
  vexsim::CommPolicy comm;
} kConfigs[] = {
    {vexsim::SplitLevel::kCluster, vexsim::CommPolicy::kNoSplit},
    {vexsim::SplitLevel::kCluster, vexsim::CommPolicy::kAlwaysSplit},
    {vexsim::SplitLevel::kOperation, vexsim::CommPolicy::kNoSplit},
    {vexsim::SplitLevel::kOperation, vexsim::CommPolicy::kAlwaysSplit},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  const auto opt = harness::ExperimentOptions::from_cli(cli);
  const bool csv = cli.get_bool("csv", false);

  std::cout
      << "Figure 15: COSI and OOSI speedups over SMT (%)\n"
      << "paper averages: COSI 2T 7.5(NS)/9.8(AS), 4T 6.4(NS)/9.4(AS); "
         "OOSI 2T 8.2(NS)/13.0(AS), 4T 7.9(NS)/15.7(AS)\n\n";

  // Per thread count and workload: the SMT baseline followed by the four
  // split-issue variants — 5 points per (threads, workload) pair.
  std::vector<harness::SweepPoint> points;
  for (int threads : {2, 4}) {
    const std::string suffix = "/" + std::to_string(threads) + "T";
    for (const wl::WorkloadSpec& spec : wl::paper_workloads()) {
      points.push_back({spec.name + "/SMT" + suffix,
                        opt.machine(threads, Technique::smt()), spec.name,
                        opt});
      for (const auto& c : kConfigs) {
        const Technique t{MergeLevel::kOperation, c.split, c.comm};
        points.push_back({spec.name + "/" + t.name() + suffix,
                          opt.machine(threads, t), spec.name, opt});
      }
    }
  }
  const std::vector<RunResult> results =
      harness::run_sweep_and_dump(cli, "fig15_cosi_oosi_over_smt", points);

  if (const auto code = harness::skip_tables(cli, results, std::cout))
    return *code;

  for (int threads : {2, 4}) {
    const std::string suffix = "/" + std::to_string(threads) + "T";
    std::cout << threads << "-thread machine\n";
    Table table({"workload", "COSI NS", "COSI AS", "OOSI NS", "OOSI AS"});
    std::vector<double> avg(4, 0.0);
    int n = 0;
    for (const wl::WorkloadSpec& spec : wl::paper_workloads()) {
      const RunResult& base =
          harness::result_for(points, results, spec.name + "/SMT" + suffix);
      std::vector<std::string> row{spec.name};
      for (std::size_t c = 0; c < 4; ++c) {
        const Technique t{MergeLevel::kOperation, kConfigs[c].split,
                          kConfigs[c].comm};
        const RunResult& run = harness::result_for(
            points, results, spec.name + "/" + t.name() + suffix);
        const double s = speedup(run.ipc(), base.ipc());
        avg[c] += s;
        row.push_back(Table::pct(s));
      }
      ++n;
      table.add_row(std::move(row));
    }
    std::vector<std::string> avg_row{"avg"};
    for (double a : avg) avg_row.push_back(Table::pct(a / n));
    table.add_row(std::move(avg_row));
    if (csv)
      std::cout << table.to_csv() << "\n";
    else
      std::cout << table.to_text() << "\n";
  }
  std::cout << "Shape check: OOSI >= COSI on average; AS >= NS; the OOSI-COSI "
               "gap stays small (paper: 0.7-2.7% at 2T, 1.4-5.7% at 4T).\n";
  return 0;
}
