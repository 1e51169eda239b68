#include "harness/experiments.hpp"

#include "mdes/machine.hpp"
#include "util/check.hpp"
#include "workloads/workloads.hpp"

namespace vexsim::harness {

MachineConfig ExperimentOptions::machine(int threads,
                                         Technique technique) const {
  MachineConfig cfg = base_machine ? *base_machine : MachineConfig{};
  cfg.hw_threads = threads;
  cfg.technique = technique;
  if (mem_backend) cfg.memory.backend = *mem_backend;
  cfg.validate();
  return cfg;
}

MachineConfig ExperimentOptions::machine_single() const {
  return machine(1, Technique::smt());
}

bool operator==(const ExperimentOptions& a, const ExperimentOptions& b) {
  const bool machines_equal =
      (a.base_machine == nullptr) == (b.base_machine == nullptr) &&
      (a.base_machine == nullptr || *a.base_machine == *b.base_machine);
  return machines_equal && a.scale == b.scale && a.budget == b.budget &&
         a.timeslice == b.timeslice && a.max_cycles == b.max_cycles &&
         a.seed == b.seed && a.fast_forward == b.fast_forward &&
         a.compiler == b.compiler && a.mem_backend == b.mem_backend;
}

ExperimentOptions ExperimentOptions::from_cli(const Cli& cli) {
  ExperimentOptions opt;
  if (cli.get_bool("paper", false)) {
    opt.scale = 1.0;
    opt.budget = 200'000'000;
    opt.timeslice = 5'000'000;
    opt.max_cycles = ~0ull;
  }
  if (cli.get_bool("quick", false)) {
    opt.scale = 0.05;
    opt.budget = 80'000;
    opt.timeslice = 40'000;
  }
  opt.scale = cli.get_double("scale", opt.scale);
  VEXSIM_CHECK_MSG(opt.scale > 0.0, "--scale must be > 0, got " << opt.scale);
  opt.budget = cli.get_positive("budget", opt.budget);
  opt.timeslice = cli.get_positive("timeslice", opt.timeslice);
  opt.seed = static_cast<std::uint64_t>(cli.get_int(
      "seed", static_cast<std::int64_t>(opt.seed)));
  if (cli.has("cc"))
    opt.compiler = cc::CompilerOptions::parse(cli.get("cc", ""));
  opt.compiler.verify_each_pass =
      cli.get_bool("cc-verify", opt.compiler.verify_each_pass);
  if (cli.has("config"))
    opt.base_machine = std::make_shared<const MachineConfig>(
        mdes::load_machine(cli.get("config", "")));
  if (cli.has("mem"))
    opt.mem_backend = mem_backend_from(cli.get("mem", ""));
  return opt;
}

DriverParams driver_params(const ExperimentOptions& opt) {
  DriverParams params;
  params.timeslice = opt.timeslice;
  params.budget = opt.budget;
  params.max_cycles = opt.max_cycles;
  params.seed = opt.seed;
  params.respawn = true;
  params.fast_forward = opt.fast_forward;
  return params;
}

RunResult run_workload_on(const MachineConfig& cfg,
                          const std::string& workload_name,
                          const ExperimentOptions& opt,
                          std::optional<Deadline> deadline) {
  const wl::WorkloadSpec spec = wl::workload(workload_name);
  CompileSummary compile;
  auto programs =
      wl::build_workload(spec, cfg, opt.scale, opt.compiler, &compile);
  MultiprogramDriver driver(cfg, std::move(programs), driver_params(opt));
  RunResult result = driver.run(deadline);
  result.compile = compile;
  return result;
}

RunResult run_workload(const std::string& workload_name, int threads,
                       Technique technique, const ExperimentOptions& opt) {
  return run_workload_on(opt.machine(threads, technique), workload_name, opt);
}

RunResult run_single(const std::string& benchmark, bool perfect_memory,
                     const ExperimentOptions& opt) {
  MachineConfig cfg = opt.machine_single();
  cfg.icache.perfect = perfect_memory;
  cfg.dcache.perfect = perfect_memory;
  return run_workload_on(cfg, benchmark, opt);
}

}  // namespace vexsim::harness
