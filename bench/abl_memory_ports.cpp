// Ablation A2: memory ports per cluster and the buffered-store drain stalls
// of Section V-D.
//
// Split-issue defers stores into buffers that drain at last-part; with one
// port per cluster the drain can collide with same-cycle memory operations
// and stall the pipeline. This ablation measures those stalls and what a
// second port would buy.
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
                     int ports) {
  return std::string(wname) + "/" + t.name() + "/p" + std::to_string(ports);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  const auto opt = harness::ExperimentOptions::from_cli(cli);
  const bool csv = cli.get_bool("csv", false);

  std::cout << "Ablation: memory ports vs buffered-store drain stalls "
               "(4-thread machine)\n\n";

  const std::vector<const char*> workloads = {"llmm", "mmhh", "hhhh"};
  const std::vector<Technique> techniques = {
      Technique::ccsi(CommPolicy::kAlwaysSplit),
      Technique::oosi(CommPolicy::kAlwaysSplit)};
  std::vector<harness::SweepPoint> points;
  for (const char* wname : workloads) {
    for (const Technique& t : techniques) {
      for (int ports : {1, 2}) {
        MachineConfig cfg = opt.machine(4, t);
        cfg.cluster.mem_units = ports;
        points.push_back({label_of(wname, t, ports), cfg, wname, opt});
      }
    }
  }
  const std::vector<RunResult> results =
      harness::run_sweep_and_dump(cli, "abl_memory_ports", points);

  if (const auto code = harness::skip_tables(cli, results, std::cout))
    return *code;

  Table table({"workload", "technique", "ports", "IPC", "drain-stall cyc",
               "stall frac"});
  for (const char* wname : workloads) {
    for (const Technique& t : techniques) {
      for (int ports : {1, 2}) {
        const RunResult& r =
            harness::result_for(points, results, label_of(wname, t, ports));
        table.add_row(
            {wname, t.name(), std::to_string(ports), Table::fmt(r.ipc()),
             std::to_string(r.sim.memport_stall_cycles),
             Table::pct(static_cast<double>(r.sim.memport_stall_cycles) /
                        static_cast<double>(r.sim.cycles))});
      }
    }
  }
  if (csv)
    std::cout << table.to_csv();
  else
    std::cout << table.to_text();
  std::cout << "\nShape check: drain stalls are a small fraction of cycles "
               "(the paper treats them as rare); a second port removes them "
               "for a modest IPC gain.\n";
  return 0;
}
