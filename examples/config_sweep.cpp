// Machine/scenario description files end-to-end.
//
// Loads a machine + scenario from a `.conf` description (default:
// configs/paper4x4.conf), prints what was described, then sweeps the
// scenario's workload across a few techniques on the described machine
// through the parallel engine — the config-file twin of synth_sweep.
//
//   $ ./example_config_sweep [--file configs/asym8422.conf] [--jobs N]
#include <iostream>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "mdes/scenario.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  const std::string path = cli.get("file", "configs/paper4x4.conf");
  const harness::SweepOptions sweep_opts = harness::SweepOptions::from_cli(cli);
  cli.reject_unknown();

  // One call parses the file (includes, $(var) arithmetic, strict unknown
  // -key checks), deserializes both sections, applies the scenario's
  // contexts/technique overlays and validates the result.
  const mdes::MachineScenario ms = mdes::load_machine_scenario(path);

  std::cout << "machine from " << path << ": " << ms.machine.geometry_name()
            << ", " << ms.machine.hw_threads << " contexts, "
            << ms.machine.technique.name() << ", workload '"
            << ms.scenario.workload << "'\n\n";

  // The described technique plus the two bracketing baselines.
  std::vector<Technique> techniques = {Technique::smt(), Technique::csmt()};
  if (ms.machine.hw_threads > 1 &&
      !(ms.machine.technique == Technique::smt()) &&
      !(ms.machine.technique == Technique::csmt()))
    techniques.push_back(ms.machine.technique);

  std::vector<harness::SweepPoint> points;
  for (const Technique& t : techniques) {
    MachineConfig cfg = ms.machine;
    cfg.technique = t;
    cfg.validate();
    points.push_back({t.name(), cfg, ms.scenario.workload, ms.scenario.opt});
  }
  const auto results = harness::run_sweep(points, sweep_opts);

  Table table({"technique", "IPC", "cycles"});
  for (std::size_t i = 0; i < points.size(); ++i)
    table.add_row({points[i].label, Table::fmt(results[i].ipc()),
                   std::to_string(results[i].sim.cycles)});
  table.print(std::cout);

  // Round-trip: the serialized machine re-parses to an equal value.
  const MachineConfig reparsed = [] (const std::string& text) {
    const mdes::ConfigFile file = mdes::ConfigFile::parse_text(text);
    const mdes::Interp interp(file);
    mdes::Diagnostics diags;
    const MachineConfig cfg = machine_from(file, interp, diags);
    diags.throw_if_any("round trip");
    return cfg;
  }(mdes::to_config(ms.machine));
  std::cout << "\nround trip: "
            << (reparsed == ms.machine ? "machine == parse(to_config(machine))"
                                       : "MISMATCH")
            << "\n";
  return reparsed == ms.machine ? 0 : 1;
}
