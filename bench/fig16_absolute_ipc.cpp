// Figure 16: absolute IPC of all eight multithreading techniques, averaged
// over the nine workload mixes, for the 2-thread and 4-thread machines.
//
// All 144 simulation points (8 techniques x 2 thread counts x 9 mixes) run
// through the parallel sweep engine: --jobs N picks the worker count
// (results are bit-identical for any N) and the raw per-point statistics
// land in a JSON trajectory.
//
// Flags: --cc NAME, --cc-verify, --config FILE (base machine description),
//        --mem fixed|hierarchy (memory backend; default fixed),
//        --scale, --budget, --timeslice, --seed, --quick, --paper, --csv,
//        --per-workload (print each mix's IPC too), --jobs N, --progress N,
//        --json FILE (default BENCH_fig16_absolute_ipc.json),
//        --cache[=DIR]/--no-cache (result cache), --timeout MS, --retries N,
//        --shard I/N (run one round-robin slice and emit a shard document
//        for tools/vexmerge), --cache-gc SIZE (post-sweep cache eviction).
#include <iostream>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  const auto opt = harness::ExperimentOptions::from_cli(cli);
  const bool per_workload = cli.get_bool("per-workload", false);
  const bool csv = cli.get_bool("csv", false);

  std::cout << "Figure 16: absolute IPC of all techniques (avg over the nine "
               "mixes)\n\n";

  auto label_of = [](const Technique& t, int threads,
                     const std::string& mix) {
    return t.name() + "/" + std::to_string(threads) + "T/" + mix;
  };

  std::vector<harness::SweepPoint> points;
  for (const Technique& t : Technique::kAll)
    for (const int threads : {2, 4})
      for (const wl::WorkloadSpec& spec : wl::paper_workloads())
        points.push_back({label_of(t, threads, spec.name),
                          opt.machine(threads, t), spec.name, opt});
  const std::vector<RunResult> results =
      harness::run_sweep_and_dump(cli, "fig16_absolute_ipc", points);

  if (const auto code = harness::skip_tables(cli, results, std::cout))
    return *code;

  Table table({"technique", "2T IPC", "4T IPC"});
  for (const Technique& t : Technique::kAll) {
    std::vector<std::string> row{t.name()};
    for (const int threads : {2, 4}) {
      std::vector<double> ipcs;
      for (const wl::WorkloadSpec& spec : wl::paper_workloads())
        ipcs.push_back(
            harness::result_for(points, results, label_of(t, threads, spec.name))
                .ipc());
      row.push_back(Table::fmt(mean(ipcs)));
    }
    table.add_row(std::move(row));
  }

  if (csv)
    std::cout << table.to_csv();
  else
    std::cout << table.to_text();

  if (per_workload) {
    for (const Technique& t : Technique::kAll) {
      for (const int threads : {2, 4}) {
        Table detail({"workload", "IPC"});
        for (const wl::WorkloadSpec& spec : wl::paper_workloads())
          detail.add_row({spec.name,
                          Table::fmt(harness::result_for(
                                         points, results,
                                         label_of(t, threads, spec.name))
                                         .ipc())});
        std::cout << "\n" << t.name() << " " << threads << "T\n"
                  << detail.to_text();
      }
    }
  }

  std::cout << "\nShape check (paper): CCSI AS ~= SMT at 2T; split-issue "
               "shrinks the CSMT-vs-SMT gap (27% -> 13% at 4T); ordering "
               "CSMT < CCSI NS < CCSI AS and SMT < COSI < OOSI per comm "
               "policy.\n";
  return 0;
}
