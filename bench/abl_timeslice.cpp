// Ablation A3: timeslice sensitivity (Section VI-A uses 5M cycles).
//
// The context-switch drain and the cold-cache effect after a switch shrink
// as the timeslice grows; results should be stable across reasonable
// slices, supporting the paper's claim that the respawning scheme does not
// need FAME-style stabilization.
//
// All simulation points run through the parallel sweep engine; --jobs N
// picks the worker count (results are bit-identical for any N) and the raw
// per-point statistics land in a JSON trajectory file.
//
// Flags: --cc NAME, --cc-verify, --config FILE (base machine description),
//        --mem fixed|hierarchy (memory backend; default fixed),
//        --scale, --budget, --seed, --quick, --paper, --csv, --jobs N,
//        --progress N, --json FILE,
//        --cache[=DIR]/--no-cache (result cache), --timeout MS, --retries N,
//        --shard I/N (run one round-robin slice and emit a shard document
//        for tools/vexmerge), --cache-gc SIZE (post-sweep cache eviction).
#include <iostream>
#include <vector>

#include "harness/sweep.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  auto opt = harness::ExperimentOptions::from_cli(cli);
  const bool csv = cli.get_bool("csv", false);

  std::cout << "Ablation: timeslice sensitivity (llhh, 2-thread CCSI AS)\n\n";

  const std::vector<std::uint64_t> slices = {10'000, 25'000, 50'000, 100'000,
                                             200'000};
  std::vector<harness::SweepPoint> points;
  for (std::uint64_t slice : slices) {
    opt.timeslice = slice;
    points.push_back(
        {"slice/" + std::to_string(slice),
         opt.machine(2, Technique::ccsi(CommPolicy::kAlwaysSplit)),
         "llhh", opt});
  }
  const std::vector<RunResult> results =
      harness::run_sweep_and_dump(cli, "abl_timeslice", points);

  if (const auto code = harness::skip_tables(cli, results, std::cout))
    return *code;

  Table table({"timeslice", "IPC", "drain cycles", "context-switch rate"});
  for (std::uint64_t slice : slices) {
    const RunResult& r = harness::result_for(
        points, results, "slice/" + std::to_string(slice));
    table.add_row({std::to_string(slice), Table::fmt(r.ipc(), 3),
                   std::to_string(r.sim.drain_cycles),
                   Table::fmt(static_cast<double>(r.sim.cycles) /
                                  static_cast<double>(slice),
                              1)});
  }
  if (csv)
    std::cout << table.to_csv();
  else
    std::cout << table.to_text();
  std::cout << "\nShape check: IPC varies only a few percent across a 20x "
               "timeslice range.\n";
  return 0;
}
