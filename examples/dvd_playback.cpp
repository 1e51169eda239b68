// The paper's motivating scenario (Section VI-A): "playing a dvd requires
// multiple threads for decryption (low ILP), video decoding (high ILP),
// audio decoding (medium ILP) etc. along with the operating system threads
// (low ILP)."
//
// This example builds that mix from the benchmark kernels — blowfish
// (decryption), idct (video), g721decode (audio), bzip2 (OS-ish background
// work) — and compares all eight multithreading techniques on it.
//
//   $ ./dvd_playback [--budget N] [--threads 2|4]
#include <iostream>

#include "sim/driver.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace vexsim;
  const Cli cli(argc, argv);
  const std::uint64_t budget = cli.get_positive("budget", 120'000);
  const int threads = cli.get_int_in("threads", 4, 1, kMaxHwThreads);
  cli.reject_unknown();

  const char* roles[][2] = {{"blowfish", "decryption"},
                            {"idct", "video decode"},
                            {"g721decode", "audio decode"},
                            {"bzip2", "background/OS"}};

  std::cout << "DVD-playback mix on the " << threads
            << "-thread machine:\n";
  for (const auto& r : roles)
    std::cout << "  " << r[0] << " (" << r[1] << ")\n";
  std::cout << "\n";

  Table table({"technique", "IPC", "vs CSMT", "split instr", "multi-thread "
               "cycles"});
  double csmt_ipc = 0.0;
  for (const Technique& t : Technique::kAll) {
    const MachineConfig cfg = MachineConfig::paper(threads, t);
    std::vector<std::shared_ptr<const Program>> programs;
    for (const auto& r : roles)
      programs.push_back(wl::make_benchmark(r[0], cfg, 0.1));
    DriverParams params;
    params.budget = budget;
    params.timeslice = 50'000;
    params.max_cycles = 200'000'000;
    MultiprogramDriver driver(cfg, std::move(programs), params);
    const RunResult res = driver.run();
    if (t == Technique::csmt()) csmt_ipc = res.ipc();
    table.add_row(
        {t.name(), Table::fmt(res.ipc()),
         csmt_ipc > 0 ? Table::pct(speedup(res.ipc(), csmt_ipc)) : "-",
         std::to_string(res.sim.split_instructions),
         Table::pct(static_cast<double>(res.sim.multi_thread_cycles) /
                    static_cast<double>(res.sim.cycles))});
  }
  std::cout << table.to_text();
  std::cout << "\nCluster-level split-issue (CCSI AS) buys most of "
               "operation-level split-issue's gain at a fraction of the "
               "hardware cost — the paper's punchline.\n";
  return 0;
}
