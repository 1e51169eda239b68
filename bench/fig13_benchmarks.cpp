// Figure 13(a): the benchmark table — ILP class, IPCr (real memory) and
// IPCp (perfect memory) for each benchmark, single-threaded on the 16-issue
// 4-cluster machine, next to the paper's reported values.
//
// Both memory configurations of every benchmark run through the parallel
// sweep engine: --jobs N picks the worker count (results are bit-identical
// for any N) and the raw per-point statistics land in a JSON trajectory.
//
// Flags: --cc NAME, --cc-verify, --config FILE (base machine description),
//        --mem fixed|hierarchy (memory backend; default fixed),
//        --scale, --budget, --seed, --quick, --paper, --csv, --jobs N,
//        --progress N, --json FILE (default BENCH_fig13_benchmarks.json),
//        --cache[=DIR]/--no-cache (result cache), --timeout MS, --retries N,
//        --shard I/N (run one round-robin slice and emit a shard document
//        for tools/vexmerge), --cache-gc SIZE (post-sweep cache eviction).
#include <iostream>
#include <vector>

#include "harness/sweep.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  harness::ExperimentOptions opt = harness::ExperimentOptions::from_cli(cli);
  const bool csv = cli.get_bool("csv", false);
  opt.timeslice = ~0ull;  // single program per point: no context switching

  std::cout << "Figure 13(a): benchmarks — measured vs paper (single thread, "
               "4 clusters x 4-issue)\n\n";

  auto make_cfg = [&opt](bool perfect_memory) {
    MachineConfig cfg = opt.machine_single();
    cfg.icache.perfect = perfect_memory;
    cfg.dcache.perfect = perfect_memory;
    return cfg;
  };

  std::vector<harness::SweepPoint> points;
  for (const wl::BenchmarkInfo& info : wl::benchmark_registry()) {
    points.push_back({info.name + "/IPCr", make_cfg(false), info.name, opt});
    points.push_back({info.name + "/IPCp", make_cfg(true), info.name, opt});
  }
  const std::vector<RunResult> results =
      harness::run_sweep_and_dump(cli, "fig13_benchmarks", points);

  if (const auto code = harness::skip_tables(cli, results, std::cout))
    return *code;

  Table table({"benchmark", "class", "IPCr", "IPCp", "paper IPCr",
               "paper IPCp", "IPCr/IPCp", "paper ratio"});
  for (const wl::BenchmarkInfo& info : wl::benchmark_registry()) {
    const RunResult& real =
        harness::result_for(points, results, info.name + "/IPCr");
    const RunResult& perfect =
        harness::result_for(points, results, info.name + "/IPCp");
    table.add_row({info.name, std::string(1, static_cast<char>(info.ilp)),
                   Table::fmt(real.ipc()), Table::fmt(perfect.ipc()),
                   Table::fmt(info.paper_ipcr), Table::fmt(info.paper_ipcp),
                   Table::fmt(real.ipc() / perfect.ipc()),
                   Table::fmt(info.paper_ipcr / info.paper_ipcp)});
  }
  if (csv)
    std::cout << table.to_csv();
  else
    std::cout << table.to_text();
  std::cout << "\nShape check: l < m < h ordering of IPCp; mcf/blowfish/cjpeg "
               "show the largest IPCr/IPCp gaps.\n";
  return 0;
}
