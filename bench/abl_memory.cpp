// Ablation A3: memory backend — the seed's flat miss penalty vs the
// MSHR/L2/DRAM hierarchy.
//
// The paper charges every L1 miss a flat 20 cycles. The hierarchy backend
// replaces that with bounded MSHRs (coalescing + structural stalls), a
// shared inclusive L2, and banked DRAM with row-buffer timing. This
// ablation walks a cache-hostility gradient — paper mixes that mostly fit
// the 64 KB L1, then synthetic chases with growing footprints (f-dial),
// then regular strided streams (st-dial) — and shows where the flat
// penalty stops being a good model: L2-resident footprints are *cheaper*
// than the flat charge (12 < 20 cycles) while DRAM-bound chases are far
// more expensive, and strided streams win back row-buffer hits that a
// random chase never sees.
//
// All simulation points run through the parallel sweep engine; --jobs N
// picks the worker count (results are bit-identical for any N) and the raw
// per-point statistics land in a JSON trajectory file (hierarchy points
// carry a "memory" block with MSHR/L2/DRAM counters).
//
// Flags: --mem fixed|hierarchy (ignored here: the ablation runs both),
//        --cc NAME, --cc-verify, --config FILE (base machine description),
//        --scale, --budget, --timeslice, --seed, --quick, --paper, --csv,
//        --jobs N, --progress N, --json FILE,
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

namespace {

struct GradientPoint {
  const char* label;     // table row name
  const char* workload;  // registry mix or synth spec
};

// Cache hostility rises top to bottom: paper mixes, then data-dependent
// chases over growing pools, then regular strides over the largest pool.
const GradientPoint kGradient[] = {
    {"llmm", "llmm"},
    {"hhhh", "hhhh"},
    {"chase-f64", "synth:i0.5-m0.5-s11-f64"},
    {"chase-f256", "synth:i0.5-m0.5-s11-f256"},
    {"chase-f1024", "synth:i0.5-m0.5-s11-f1024"},
    {"stream-f1024-st64", "synth:i0.5-m0.5-s11-f1024-st64"},
    {"stream-f1024-st4096", "synth:i0.5-m0.5-s11-f1024-st4096"},
};

std::string label_of(const GradientPoint& g, vexsim::MemBackendKind mem) {
  return std::string(g.label) + "/" + std::string(to_string(mem));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  const auto opt = harness::ExperimentOptions::from_cli(cli);
  const bool csv = cli.get_bool("csv", false);

  std::cout << "Ablation: flat miss penalty vs MSHR/L2/DRAM hierarchy "
               "(4-thread CCSI-AS machine)\n\n";

  const Technique tech = Technique::ccsi(CommPolicy::kAlwaysSplit);
  std::vector<harness::SweepPoint> points;
  for (const GradientPoint& g : kGradient) {
    for (const MemBackendKind mem :
         {MemBackendKind::kFixed, MemBackendKind::kHierarchy}) {
      MachineConfig cfg = opt.machine(4, tech);
      cfg.memory.backend = mem;
      points.push_back({label_of(g, mem), cfg, g.workload, opt});
    }
  }
  const std::vector<RunResult> results =
      harness::run_sweep_and_dump(cli, "abl_memory", points);

  if (const auto code = harness::skip_tables(cli, results, std::cout))
    return *code;

  Table table({"workload", "IPC fixed", "IPC hier", "delta", "L1d miss%",
               "L2 hit%", "DRAM acc", "DRAM row-hit%", "MSHR stalls"});
  for (const GradientPoint& g : kGradient) {
    const RunResult& fixed = harness::result_for(
        points, results, label_of(g, MemBackendKind::kFixed));
    const RunResult& hier = harness::result_for(
        points, results, label_of(g, MemBackendKind::kHierarchy));
    const mem::MemoryStats& m = hier.memory;
    const double l2_hit_rate = 1.0 - m.l2.miss_rate();
    table.add_row(
        {g.label, Table::fmt(fixed.ipc()), Table::fmt(hier.ipc()),
         Table::pct(hier.ipc() / fixed.ipc() - 1.0),
         Table::pct(hier.dcache.miss_rate()),
         m.l2.accesses() == 0 ? "-" : Table::pct(l2_hit_rate),
         std::to_string(m.dram.accesses()),
         m.dram.accesses() == 0 ? "-" : Table::pct(m.dram.row_hit_rate()),
         std::to_string(m.imshr.full_stalls + m.dmshr.full_stalls)});
  }
  if (csv)
    std::cout << table.to_csv();
  else
    std::cout << table.to_text();
  std::cout << "\nShape check: mixes whose misses fall straight through to "
               "DRAM pay roughly double the flat 20-cycle charge and slow "
               "down a few percent; once the footprint spills past the L1 "
               "the shared L2 absorbs the re-references at 12 cycles and "
               "the hierarchy pulls ahead; the short-stride stream is the "
               "one shape that earns substantial DRAM row-buffer hits.\n";
  return 0;
}
