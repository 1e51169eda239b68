// Parallel experiment-sweep engine.
//
// A sweep is a flat list of independent simulation points, each fully
// described by (MachineConfig, workload, ExperimentOptions). Points run on a
// small thread pool; every point owns a private deterministic Rng stream
// (seeded from its ExperimentOptions), so results are bit-identical to a
// serial run regardless of --jobs and of worker interleaving. Bench binaries
// build their point lists up front, run the sweep, then render tables and a
// machine-readable JSON trajectory from the in-order results.
//
// Each point takes one path on whichever worker claims it: fingerprint,
// cache lookup, and on a miss the simulation (with its retries) and a cache
// store. Scale-out features, all off by default:
//  * Result caching (`cache_dir` / --cache): a point whose content hash is
//    already in the cache is served by its worker instead of simulated;
//    misses run as usual and are persisted. Cached results are
//    bit-identical to fresh ones (the golden suite is the referee), and a
//    cold-cache run emits byte-identical JSON to a warm one. An interrupted
//    sweep re-run with the same cache resumes where it stopped.
//  * Sharding (`shard` / --shard i/N): only the round-robin slice the shard
//    owns is run; see harness/shard.hpp for the documents vexmerge folds.
//  * Per-point timeout/retry (`point_timeout_ms` / `max_retries`): a
//    timed-out or thrown point is re-attempted with its original derived
//    seed. A timed-out attempt stops itself at the driver's next deadline
//    poll, on its own worker, so no abandoned attempt keeps running.
//    When either knob is set the sweep is failure-tolerant — a point
//    that exhausts its attempts becomes a structured per-point failure
//    (RunResult::failed + error, "failed": true in the JSON) instead of
//    aborting the whole sweep. With both knobs at their defaults, failures
//    aggregate into a single exception reporting every failed label.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiments.hpp"
#include "stats/json.hpp"

namespace vexsim::harness {

// A `--shard i/N` assignment. Inactive (the default) means "run everything
// and emit the plain trajectory"; an explicit --shard — including 1/1 —
// switches the bench to shard-document output for vexmerge.
struct ShardSpec {
  int index = 1;  // 1-based
  int count = 1;
  bool active = false;

  // Parses "i/N". CheckError on anything else — 0/4, 5/4, i/0, non-numeric,
  // missing slash — with a message naming the valid form.
  [[nodiscard]] static ShardSpec parse(const std::string& spec);
  // Reads --shard; absent flag yields an inactive spec.
  [[nodiscard]] static ShardSpec from_cli(const Cli& cli);

  // Round-robin ownership of manifest index `i` (0-based).
  [[nodiscard]] bool owns(std::size_t i) const {
    return static_cast<int>(i % static_cast<std::size_t>(count)) == index - 1;
  }
  // How many of the indices [0, total) this shard owns.
  [[nodiscard]] std::size_t owned_count(std::size_t total) const {
    const auto first = static_cast<std::size_t>(index - 1);
    const auto stride = static_cast<std::size_t>(count);
    return total > first ? (total - first + stride - 1) / stride : 0;
  }
  [[nodiscard]] std::string str() const {  // "2/4"
    return std::to_string(index) + "/" + std::to_string(count);
  }
  [[nodiscard]] std::string tag() const {  // "2of4", for file names
    return std::to_string(index) + "of" + std::to_string(count);
  }
};

struct SweepPoint {
  std::string label;      // unique within a sweep; keys the JSON entry
  MachineConfig cfg;
  std::string workload;   // any wl::workload()-resolvable name
  ExperimentOptions opt;
};

struct SweepOptions {
  int jobs = 1;  // worker threads; >= 1 (checked)
  // When > 0, a progress line ("sweep: K/N points") goes to
  // *progress_stream after every `progress_every` completed points, cache
  // hits included — long paper-scale sweeps stay observable without
  // touching the results.
  int progress_every = 0;
  std::ostream* progress_stream = nullptr;  // nullptr = std::cerr

  // Content-addressed result cache directory (harness/result_cache.hpp);
  // empty disables caching. Hits are served by the worker that claims the
  // point; misses are simulated and persisted. Served/total counts go to
  // *progress_stream ("sweep: served K/N points from result cache").
  std::string cache_dir;

  // When >= 0 (--cache-gc SIZE), the cache directory is garbage-collected
  // after the sweep completes: oldest-mtime records are evicted until the
  // rest fit the budget. Requires cache_dir; a summary line goes to
  // *progress_stream.
  std::int64_t cache_gc_bytes = -1;

  // Wall-clock budget per simulation attempt; 0 = unlimited. The driver
  // polls the deadline every MultiprogramDriver::kDeadlinePollCycles cycles
  // and stops the attempt on its worker (the compile before it runs to the
  // end), then the point is retried. Caveat: wall-clock timeouts are
  // inherently nondeterministic — when one actually fires, the affected
  // point's "attempts" count (and, if retries are exhausted, its "failed"
  // record) reflects this machine's load, so byte-level trajectory
  // identity across runs is only guaranteed while no attempt times out.
  // Simulated statistics stay bit-identical regardless: a retried success
  // re-runs with identical options and seed.
  int point_timeout_ms = 0;
  // Extra attempts after the first for a timed-out or thrown point. Each
  // retry re-runs the point unchanged — same ExperimentOptions, same
  // derived seed — so a success on any attempt is bit-identical to a
  // first-try success.
  int max_retries = 0;

  // The slice of the points this process runs. Inactive runs them all; the
  // counts N in the progress and cache lines are the points it owns.
  ShardSpec shard;

  // Failure tolerance is implied by configuring either retry knob: the
  // operator asked for per-point fault handling, so an exhausted point is
  // recorded as a structured failure instead of poisoning the sweep.
  [[nodiscard]] bool failure_tolerant() const {
    return point_timeout_ms > 0 || max_retries > 0;
  }

  // Applies --jobs/--progress/--cache[=DIR]/--no-cache/--timeout MS/
  // --retries N/--cache-gc SIZE/--shard I/N. Bare `--cache` uses
  // ./sweep-cache; --no-cache wins over --cache (so a wrapper script's
  // cache can be disabled without editing it). --cache-gc accepts K/M/G
  // suffixes and is an error without an active --cache. The retired
  // --flush N is an error naming --cache, which resumes an interrupted
  // sweep instead.
  static SweepOptions from_cli(const Cli& cli);
};

// Decorrelated per-point seed stream: splitmix64 over (base, index). Points
// built from a single --seed get independent Rng streams that never depend
// on scheduling order.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t index);

// Runs every point the shard owns and returns results in point order,
// foreign points default-constructed. The calling thread is one of the
// `jobs` workers, so jobs == 1 is the serial loop; results are
// bit-identical for any job count. In the default (non-tolerant)
// configuration, point errors are aggregated after all workers drain into
// one CheckError reporting the failed-point count and the first few failing
// labels; with failure_tolerant() options, failed points come back as
// structured RunResult failures instead.
[[nodiscard]] std::vector<RunResult> run_sweep(
    const std::vector<SweepPoint>& points, const SweepOptions& opts);
[[nodiscard]] std::vector<RunResult> run_sweep(
    const std::vector<SweepPoint>& points, int jobs);

// Builds the BENCH_*.json trajectory document: one entry per point carrying
// the configuration axes and the full per-run statistics.
[[nodiscard]] Json sweep_json(const std::string& experiment,
                              const std::vector<SweepPoint>& points,
                              const std::vector<RunResult>& results);

// One rendered trajectory entry (the per-point subtree of sweep_json).
// Exposed for the shard layer, which embeds these subtrees in shard
// documents so vexmerge can re-emit them byte-identically.
[[nodiscard]] Json sweep_point_json(const SweepPoint& p, const RunResult& r);

// Bench-binary entry point: runs the sweep with --jobs workers (progress
// via --progress N) and writes the trajectory to --json (default
// BENCH_<experiment>.json), returning the in-order results for table
// rendering. Before the sweep starts it calls cli.reject_unknown(), so a
// bench reads every flag of its own before this call; a flag first read
// after it is rejected as unknown.
//
// Under --shard i/N only the owned round-robin slice is run and the output
// becomes a shard document (default name
// BENCH_<experiment>.shard<i>of<N>.json) for tools/vexmerge; the returned
// vector still has one entry per point, with foreign points left
// default-constructed — sharded benches skip table rendering (skip_tables).
[[nodiscard]] std::vector<RunResult> run_sweep_and_dump(
    const Cli& cli, const std::string& experiment,
    const std::vector<SweepPoint>& points);

// Points in `results` that failed under --timeout/--retries.
[[nodiscard]] std::size_t failed_points(const std::vector<RunResult>& results);

// Bench exit code when the tables cannot be rendered from `results`, with
// the reason written to `out`; nullopt when they can. A --shard run holds
// only its own slice (exit 0: render from the vexmerge output instead). A
// point that failed under --timeout/--retries has no statistics to divide
// by (exit 1, after printing how many failed; the JSON is already written).
[[nodiscard]] std::optional<int> skip_tables(
    const Cli& cli, const std::vector<RunResult>& results, std::ostream& out);

// Result of the point carrying `label`; CheckError when absent. Keys table
// rendering on labels instead of fragile parallel index arithmetic.
[[nodiscard]] const RunResult& result_for(
    const std::vector<SweepPoint>& points,
    const std::vector<RunResult>& results, const std::string& label);

}  // namespace vexsim::harness
