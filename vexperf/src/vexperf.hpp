// vexperf: the repository's performance benchmark.
//
// Three sweep workloads (paper_mix, design_space, warm_rerun), each built
// from a --seed the way the bench binaries build their point lists, timed
// end to end through harness::run_sweep + harness::sweep_json at --jobs 1
// and --jobs N, with output checks on every pass. A separate traced run
// replays the same points call by call and attributes host time to the
// layers behind the public calls (see README.md next to this file).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/sweep.hpp"

namespace vexperf {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Accepted design points of design_space (and of warm_rerun's share):
// 2 x the 54 round-robin strata, so every seed runs the same mix.
inline constexpr int kDesignSamples = 108;
// Timed passes per --jobs setting, at least.
inline constexpr int kMinPasses = 3;
// Set-up samples per run (fresh processes), at least; more until
// kSetupSeconds of set-up time has been measured.
inline constexpr int kSetupRuns = 5;
inline constexpr double kSetupSeconds = 1.0;

// Command-line configuration of one benchmark process.
struct Config {
  std::string workload;     // paper_mix | design_space | warm_rerun
  std::uint64_t seed = 42;
  double seconds = 30.0;    // about this long: sets the timed round count
  bool trace = false;       // traced run + per-layer report instead of e2e
  int jobs_par = 2;         // N of the --jobs N passes: max(2, nproc / 2)
  std::uint64_t budget = 0; // > 0 overrides every point's budget (tests)
  std::string workdir;      // parent of the run's private scratch directory
  std::string template_path;  // design_space.conf next to the sources
  std::string golden_path;    // tests/golden/BENCH_fig14_quick.golden.json
  std::string spans_path;   // trace mode: where the span log is written
  bool setup_only = false;  // child mode: run set-up, print its duration
  bool corrupt = false;     // tests: perturb one result of a --jobs N pass
};

// A workload's generated inputs: its point list plus what set-up measured.
struct Workload {
  std::string name;
  std::vector<vexsim::harness::SweepPoint> points;
  // Typical wall time of one --jobs 1 + --jobs N round of passes on a
  // 4-core x86-64 host. It turns --seconds into a fixed number of rounds,
  // so that every build of the program is timed over the same sample size.
  double round_s = 0.0;
  // design_space: every timed pass starts from an empty result cache.
  bool cold_cache = false;
  // warm_rerun: the result cache filled during set-up, and the trajectory
  // entries the filling sweep rendered (the reference for served passes).
  std::string warm_cache_dir;
  std::vector<std::string> fill_docs;
  // mdes layer, measured during set-up: template load + sampling time and
  // the sampler's draw counts.
  double sample_s = 0.0;
  std::uint64_t draws = 0;
  std::uint64_t accepted = 0;
  double setup_s = 0.0;  // wall time of make_workload()
};

// Enumerates the points (sampling the template where the workload has
// one), then builds every program when `build_programs` is set; warm_rerun
// also fills its result cache under `scratch`. Set-up is everything here.
[[nodiscard]] Workload make_workload(const Config& cfg,
                                     const std::string& scratch,
                                     bool build_programs);

// Mean absolute error, in percentage points, of the 12 Fig. 14/15 average
// speedups simulated by a paper_mix sweep against the paper's values.
[[nodiscard]] double paper_error_pp(
    const std::vector<vexsim::harness::SweepPoint>& points,
    const std::vector<vexsim::RunResult>& results);

// ---------------------------------------------------------------- checks

// One rendered trajectory entry per point (sweep_point_json, dumped).
[[nodiscard]] std::vector<std::string> point_docs(
    const std::vector<vexsim::harness::SweepPoint>& points,
    const std::vector<vexsim::RunResult>& results);

// Points whose result breaks a simulator invariant (failed, faulted, no
// cycles, more ops issued than issue slots, no instances).
[[nodiscard]] std::size_t count_invalid(
    const std::vector<vexsim::harness::SweepPoint>& points,
    const std::vector<vexsim::RunResult>& results);

// Points whose rendered entry differs from the reference entry.
[[nodiscard]] std::size_t count_mismatches(
    const std::vector<std::string>& docs,
    const std::vector<std::string>& reference);

// paper_mix points shared with the fig14 golden trajectory whose entry
// differs from the golden's (labels aside). Throws when the golden cannot
// be read; returns the number of golden points compared via `compared`.
[[nodiscard]] std::size_t count_golden_mismatches(
    const std::string& golden_path,
    const std::vector<vexsim::harness::SweepPoint>& points,
    const std::vector<std::string>& docs, std::size_t& compared);

// Splits a finished sweep into 4 round-robin shard documents, round-trips
// each through its text form, and merges them back with merge_shards.
// Returns the merged trajectory text ("" when the merge is incomplete).
[[nodiscard]] std::string split_and_merge(
    const std::string& experiment,
    const std::vector<vexsim::harness::SweepPoint>& points,
    const std::vector<vexsim::RunResult>& results);

// ----------------------------------------------------------------- trace

// One recorded call: name ("layer.call"), interval, enclosing span (-1 at
// top level) and the point it served (-1 for pass-level calls).
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  int point = -1;
};

// Outcome of the traced replay of a workload's points.
struct Replay {
  std::vector<vexsim::RunResult> results;
  std::vector<std::string> docs;      // per-point entries
  std::string trajectory;             // sweep_json text
  std::string merged;                 // split_and_merge text (warm only)
  std::vector<Span> spans;
  Clock::time_point start;
  Clock::time_point end;
  // Workload-memo bookkeeping of the build_workload calls: component
  // lookups, the ones that compiled, and which points compiled anything.
  std::uint64_t memo_lookups = 0;
  std::uint64_t memo_misses = 0;
  std::vector<char> point_compiled;
  std::vector<char> point_hit;        // served from the result cache
};

// Replays `w` point by point with the calls run_sweep and run_workload_on
// make, recording a span around each. design_space replays into a fresh
// cache directory `cold_cache_dir`; warm_rerun replays against its filled
// cache; paper_mix runs uncached, as its timed passes do.
[[nodiscard]] Replay traced_replay(const Workload& w,
                                   const std::string& cold_cache_dir);

// Writes the spans as one JSON document.
void write_spans(const std::string& path, const Replay& replay);

// The q-quantile (0..1) of `v`, interpolating between samples; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

// A metric by name, in report order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Per-layer metrics from a replay plus the untraced passes' figures.
struct UntracedFigures {
  double serial_wall_s = 0.0;       // median --jobs 1 pass wall time
  double points_per_s = 0.0;
  double points_per_s_par = 0.0;
  int jobs_par = 2;
};
[[nodiscard]] std::vector<Metric> layer_metrics(const Workload& w,
                                                const Replay& replay,
                                                const UntracedFigures& u);

}  // namespace vexperf
