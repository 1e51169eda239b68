// Synthetic-workload sweep on an asymmetric machine.
//
// Demonstrates the wl_synth subsystem end-to-end: an asymmetric 8+4+2+2
// cluster geometry, a 6-context machine filled with a '+'-composed mix of
// generated programs walking the ILP dial, and a small technique sweep run
// through the parallel engine.
//
//   $ ./example_synth_sweep [--jobs N]
#include <iostream>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  const harness::SweepOptions sweep_opts = harness::SweepOptions::from_cli(cli);
  cli.reject_unknown();

  // An asymmetric machine: one wide cluster and a tail of narrow ones,
  // total issue width 16 like the paper's 4x4. Cluster renaming must stay
  // off (a rotated thread would land wide bundles on narrow clusters).
  auto make_cfg = [](Technique t) {
    MachineConfig cfg = MachineConfig::paper(6, t);
    cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                             ClusterResourceConfig::for_issue_width(4),
                             ClusterResourceConfig::for_issue_width(2),
                             ClusterResourceConfig::for_issue_width(2)};
    cfg.cluster_renaming = false;
    cfg.validate();
    return cfg;
  };

  // Six contexts, six generated programs: a gradient from serial chains
  // (i0.1) to machine-saturating parallelism (i0.9), moderate memory
  // pressure, a dash of inter-cluster communication.
  const std::string mix =
      "synth:i0.10-m0.30-c0.10-s1+synth:i0.25-m0.30-c0.10-s2+"
      "synth:i0.40-m0.30-c0.10-s3+synth:i0.60-m0.30-c0.10-s4+"
      "synth:i0.75-m0.30-c0.10-s5+synth:i0.90-m0.30-c0.10-s6";

  harness::ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 40'000;
  opt.timeslice = 20'000;

  std::vector<harness::SweepPoint> points;
  for (const Technique t :
       {Technique::csmt(), Technique::ccsi(CommPolicy::kAlwaysSplit),
        Technique::smt(), Technique::oosi(CommPolicy::kAlwaysSplit)})
    points.push_back({t.name(), make_cfg(t), mix, opt});
  const auto results = harness::run_sweep(points, sweep_opts);

  std::cout << "6 synthetic contexts on the asymmetric "
            << points[0].cfg.geometry_name() << " machine:\n\n";
  Table table({"technique", "IPC", "split instructions"});
  for (std::size_t i = 0; i < points.size(); ++i)
    table.add_row({points[i].label, Table::fmt(results[i].ipc()),
                   std::to_string(results[i].sim.split_instructions)});
  std::cout << table.to_text();
  std::cout << "\nSplit-issue (CCSI/OOSI) recovers issue slots the merge "
               "conflicts on the narrow clusters would otherwise waste.\n";
  return 0;
}
