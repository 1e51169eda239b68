// vexperf entry point: set-up, timed passes, output checks and the report.
//
//   vexperf --workload paper_mix|design_space|warm_rerun --seed N
//           --seconds S --trace 0|1 [--budget N] [--workdir DIR]
//           [--spans FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer report
// of the traced run. Either way the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}, and the exit
// code is nonzero when any output check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "vexperf.hpp"

namespace vexperf {

namespace {

namespace fs = std::filesystem;
using vexsim::RunResult;

// A private directory for caches and scratch files, removed on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent)
      : path_(parent + "/vexperf-" + std::to_string(::getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// Per-second rate of `count` over a pass time; 0 when no pass completed.
double rate(std::uint64_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

// The highest of the usual percentiles that still has at least ten samples
// beyond it, or 0 when there are too few samples for any.
double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  return 0.0;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) q += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return q + "'";
}

Config parse_config(int argc, char** argv) {
  const vexsim::Cli cli(argc, argv);
  Config cfg;
  cfg.workload = cli.get("workload", "");
  VEXSIM_CHECK_MSG(!cfg.workload.empty(),
                   "--workload paper_mix|design_space|warm_rerun is required");
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  cfg.seconds = cli.get_double("seconds", cfg.seconds);
  cfg.trace = cli.get_int("trace", 0) != 0;
  // Half the cores, at least 2: the parallel pass then measures the
  // program, not the scheduler.
  cfg.jobs_par =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()) / 2);
  cfg.budget = static_cast<std::uint64_t>(cli.get_int("budget", 0));
  cfg.workdir = cli.get("workdir", fs::temp_directory_path().string());
  cfg.template_path = VEXPERF_TEMPLATE;
  cfg.golden_path = VEXPERF_GOLDEN;
  cfg.spans_path = cli.get("spans", "");
  cfg.setup_only = cli.get_bool("setup-only", false);
  cfg.corrupt = cli.get_bool("corrupt", false);
  VEXSIM_CHECK_MSG(cfg.seconds > 0.0, "--seconds must be > 0");
  return cfg;
}

// Set-up time of the workload in a fresh process: the workload memo is
// process-global, so only a new process starts with nothing compiled.
double setup_in_fresh_process(const Config& cfg, const std::string& scratch) {
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  std::ostringstream cmd;
  cmd << shell_quote(self) << " --setup-only --workload " << cfg.workload
      << " --seed " << cfg.seed << " --budget " << cfg.budget
      << " --workdir " << shell_quote(scratch);
  FILE* child = ::popen(cmd.str().c_str(), "r");
  VEXSIM_CHECK_MSG(child != nullptr, "cannot start the set-up process");
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, child) != nullptr) out += buf;
  const int status = ::pclose(child);  // waits for the child to end
  VEXSIM_CHECK_MSG(status == 0, "set-up process failed: " << out);
  std::istringstream in(out);
  std::string tag;
  double seconds = 0.0;
  in >> tag >> seconds;
  VEXSIM_CHECK_MSG(tag == "setup_s", "unexpected set-up output: " << out);
  return seconds;
}

// Running totals of the output checks.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void add(std::size_t points, std::size_t bad, const std::string& what) {
    attempted += points;
    failed += bad;
    if (bad > 0) notes.push_back(what + ": " + std::to_string(bad));
  }
};

struct Pass {
  double wall_s = 0.0;
  std::vector<RunResult> results;
  std::string trajectory;
  std::string merged;
};

// One timed pass: run_sweep + sweep_json (+ the 4-way split-and-merge on
// warm_rerun), exactly what a bench binary does per sweep.
Pass timed_pass(const Workload& w, int jobs, const std::string& cache_dir) {
  vexsim::harness::SweepOptions opts;
  opts.jobs = jobs;
  opts.cache_dir = cache_dir;
  std::ostream quiet(nullptr);  // no cache summary line per pass
  opts.progress_stream = &quiet;
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  pass.results = vexsim::harness::run_sweep(w.points, opts);
  pass.trajectory =
      vexsim::harness::sweep_json(w.name, w.points, pass.results).dump();
  if (!w.warm_cache_dir.empty())
    pass.merged = split_and_merge(w.name, w.points, pass.results);
  pass.wall_s = seconds_between(t0, Clock::now());
  return pass;
}

std::uint64_t total_cycles(const std::vector<RunResult>& results) {
  std::uint64_t c = 0;
  for (const RunResult& r : results) c += r.sim.cycles;
  return c;
}

// Alternating --jobs 1 / --jobs N passes: a fixed number of rounds that
// fills about --seconds, at least kMinPasses. Every pass is checked against
// the reference.
//
// Each setting's figure is its best pass. Noise on a shared host only ever
// slows a pass down, and it drifts over minutes, so a run's median moves
// with the load around it; over a fixed number of passes the best one
// repeats from run to run. The report prints the median next to it.
struct Passes {
  std::vector<double> serial;          // --jobs 1 pass wall times
  std::vector<double> parallel;        // --jobs N pass wall times
  std::uint64_t cycles = 0;            // simulated cycles of one pass
  std::vector<std::string> reference;  // per-point entries
  std::string reference_trajectory;
  std::vector<RunResult> reference_results;
};

Passes run_passes(const Config& cfg, const Workload& w,
                  const std::string& scratch, Tally& tally) {
  Passes out;
  const std::size_t n = w.points.size();
  if (!w.fill_docs.empty()) out.reference = w.fill_docs;
  bool corrupted = false;
  int pass_no = 0;
  const int rounds =
      std::max(kMinPasses, static_cast<int>(cfg.seconds / w.round_s));
  for (int round = 1; round <= rounds; ++round) {
    for (const int jobs : {1, cfg.jobs_par}) {
      const std::string dir =
          w.cold_cache ? scratch + "/pass" + std::to_string(pass_no++)
                       : w.warm_cache_dir;
      Pass pass;
      try {
        pass = timed_pass(w, jobs, dir);
      } catch (const std::exception& e) {
        tally.add(n, n, std::string("sweep threw: ") + e.what());
        if (w.cold_cache) fs::remove_all(dir);
        continue;
      }
      if (cfg.corrupt && jobs > 1 && !corrupted) {
        ++pass.results.front().sim.cycles;  // a deliberately wrong result
        corrupted = true;
      }
      const std::vector<std::string> docs = point_docs(w.points, pass.results);
      const std::string tag = "--jobs " + std::to_string(jobs) + " pass";
      if (out.reference.empty()) out.reference = docs;
      if (out.reference_results.empty()) {
        out.reference_results = pass.results;
        out.reference_trajectory = pass.trajectory;
        out.cycles = total_cycles(pass.results);
        tally.add(0, count_invalid(w.points, pass.results),
                  "invalid results");
        if (w.cold_cache) {
          // The same cold cache, now serving every point, must render the
          // same trajectory.
          const Pass served = timed_pass(w, cfg.jobs_par, dir);
          tally.add(n,
                    count_mismatches(point_docs(w.points, served.results),
                                     out.reference),
                    "cache-served pass differs");
        }
      }
      tally.add(n, count_mismatches(docs, out.reference), tag + " differs");
      if (pass.trajectory != out.reference_trajectory)
        tally.add(0, 1, tag + " trajectory text differs");
      if (!w.warm_cache_dir.empty() && pass.merged != pass.trajectory)
        tally.add(0, 1, "4-way merge differs from sweep_json");
      if (w.cold_cache) fs::remove_all(dir);
      (jobs == 1 ? out.serial : out.parallel).push_back(pass.wall_s);
    }
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream line;
  line << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << std::min(tally.failed, tally.attempted)
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    line << (i > 0 ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << number(metrics[i].value)
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  line << "}}";
  std::cout << line.str() << std::endl;
}

void print_metric(const Metric& m, const std::string& note) {
  std::cout << "  " << std::left << std::setw(26) << m.name << std::right
            << std::setw(14) << std::setprecision(6) << m.value << " "
            << std::left << std::setw(10) << m.unit << std::right << note
            << "\n";
}

// The pass wall times a metric was computed from: median, tail percentile,
// best and sample count.
std::string pass_note(const std::vector<double>& walls) {
  if (walls.empty()) return "(no pass completed)";
  std::ostringstream s;
  s << std::setprecision(4) << "pass wall median " << median(walls) << " s";
  const double p = tail_percentile(walls.size());
  if (p > 0.0) s << ", p" << p << " " << quantile(walls, p / 100.0) << " s";
  s << ", best " << best(walls) << " s (n=" << walls.size() << ")";
  if (walls.size() <= 8) {  // few enough to list
    s << ":";
    for (const double w : walls) s << " " << w;
  }
  return s.str();
}

int run(int argc, char** argv) {
  const Config cfg = parse_config(argc, argv);
  const ScratchDir scratch(cfg.workdir);

  if (cfg.setup_only) {
    const Workload w = make_workload(cfg, scratch.path(), true);
    std::cout << "setup_s " << number(w.setup_s) << std::endl;
    return 0;
  }

  Tally tally;
  // Trace mode leaves the programs unbuilt, so the replay meets the cold
  // workload memo a fresh bench process meets.
  const Workload w = make_workload(cfg, scratch.path(), !cfg.trace);
  const std::size_t n = w.points.size();
  std::cout << "vexperf " << w.name << ": seed " << cfg.seed << ", "
            << n << " points, --jobs 1 and --jobs " << cfg.jobs_par
            << (cfg.trace ? ", traced run" : "") << "\n";

  std::optional<Replay> replay;
  if (cfg.trace) replay = traced_replay(w, scratch.path() + "/replay-cache");

  const Passes passes = run_passes(cfg, w, scratch.path(), tally);

  if (w.name == "paper_mix" && cfg.budget == 0) {
    std::size_t compared = 0;
    tally.add(0,
              count_golden_mismatches(cfg.golden_path, w.points,
                                      passes.reference, compared),
              "points differ from the fig14 golden");
    std::cout << "  golden check: " << compared
              << " fig14 points compared\n";
  }

  std::vector<Metric> metrics;
  if (cfg.trace) {
    tally.add(n, count_mismatches(replay->docs, passes.reference),
              "traced run differs from run_sweep");
    if (replay->trajectory != passes.reference_trajectory)
      tally.add(0, 1, "traced trajectory text differs");
    if (!w.warm_cache_dir.empty() && replay->merged != replay->trajectory)
      tally.add(0, 1, "traced 4-way merge differs from sweep_json");
    UntracedFigures u;
    u.serial_wall_s = median(passes.serial);
    u.points_per_s = rate(n, best(passes.serial));
    u.points_per_s_par = rate(n, best(passes.parallel));
    u.jobs_par = cfg.jobs_par;
    metrics = layer_metrics(w, *replay, u);
    if (!cfg.spans_path.empty()) write_spans(cfg.spans_path, *replay);
    std::cout << "per-layer report (traced run vs untraced --jobs 1 pass "
                 "of "
              << std::setprecision(4) << u.serial_wall_s << " s)\n";
    for (const Metric& m : metrics) print_metric(m, "");
  } else {
    std::vector<double> setup{w.setup_s};
    double setup_total = w.setup_s;
    while (static_cast<int>(setup.size()) < kSetupRuns ||
           setup_total < kSetupSeconds) {
      setup.push_back(setup_in_fresh_process(cfg, scratch.path()));
      setup_total += setup.back();
    }
    const double serial = best(passes.serial);
    const double parallel = best(passes.parallel);
    metrics = {
        {"points_per_s", rate(n, serial), "points/s"},
        {"points_per_s_par", rate(n, parallel), "points/s"},
        {"sim_mcycles_per_s", rate(passes.cycles, serial) / 1e6, "Mcycles/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::cout << "end-to-end metrics (from the best pass time of each "
                 "--jobs setting)\n";
    print_metric(metrics[0], pass_note(passes.serial));
    print_metric(metrics[1], pass_note(passes.parallel));
    print_metric(metrics[2], "--jobs 1");
    print_metric(metrics[3], "(n=" + std::to_string(setup.size()) +
                                 " fresh-process set-ups)");
    print_metric(metrics[4], "");
  }
  print_metric({"failed_frac",
                tally.attempted == 0
                    ? 0.0
                    : static_cast<double>(tally.failed) /
                          static_cast<double>(tally.attempted),
                "ratio"},
               "(" + std::to_string(tally.failed) + " of " +
                   std::to_string(tally.attempted) + " point runs)");
  if (w.name == "paper_mix" && tally.failed == 0)
    print_metric({"paper_err_pp",
                  paper_error_pp(w.points, passes.reference_results), "pp"},
                 "(12 Fig. 14/15 averages)");
  for (const std::string& note : tally.notes)
    std::cout << "  CHECK FAILED: " << note << "\n";
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace vexperf

int main(int argc, char** argv) {
  try {
    return vexperf::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "vexperf: " << e.what() << std::endl;
    return 2;
  }
}
