#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace vexsim::harness {
namespace {

// Tiny budgets: the determinism property does not depend on run length.
ExperimentOptions tiny_options(std::uint64_t seed) {
  ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 2'000;
  opt.timeslice = 500;
  opt.seed = seed;
  return opt;
}

// Two workloads by three techniques, each point on its own derived stream.
std::vector<SweepPoint> sample_points(std::uint64_t base_seed) {
  std::vector<SweepPoint> points;
  std::uint64_t i = 0;
  for (const char* w : {"llll", "mmhh"}) {
    for (const Technique t : {Technique::csmt(), Technique::smt(),
                              Technique::ccsi(CommPolicy::kAlwaysSplit)}) {
      points.push_back({std::string(w) + "/" + t.name(),
                        MachineConfig::paper(2, t), w,
                        tiny_options(derive_seed(base_seed, i))});
      ++i;
    }
  }
  return points;
}

TEST(Sweep, ParallelBitIdenticalToSerialAcrossSeeds) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7},
                                   std::uint64_t{20100419}}) {
    const auto points = sample_points(seed);
    const auto serial = run_sweep(points, 1);
    const auto parallel = run_sweep(points, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].sim.cycles, parallel[i].sim.cycles) << i;
      EXPECT_EQ(serial[i].sim.ops_issued, parallel[i].sim.ops_issued) << i;
      EXPECT_EQ(serial[i].sim.instructions_retired,
                parallel[i].sim.instructions_retired)
          << i;
      ASSERT_EQ(serial[i].instances.size(), parallel[i].instances.size());
      for (std::size_t k = 0; k < serial[i].instances.size(); ++k)
        EXPECT_EQ(serial[i].instances[k].arch_fingerprint,
                  parallel[i].instances[k].arch_fingerprint)
            << i << "/" << k;
    }
    // The emitted trajectory document must be byte-identical too — this is
    // what the bench-level --jobs 1 vs --jobs 8 JSON comparison relies on.
    EXPECT_EQ(sweep_json("sweep_test", points, serial).dump(),
              sweep_json("sweep_test", points, parallel).dump());
  }
}

TEST(Sweep, SeedChangesResults) {
  const auto a = run_sweep(sample_points(1), 2);
  const auto b = run_sweep(sample_points(2), 2);
  // Different driver seeds reshuffle context switches; cycle counts of the
  // multithreaded runs should not all coincide.
  bool any_differ = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    any_differ |= a[i].sim.cycles != b[i].sim.cycles;
  EXPECT_TRUE(any_differ);
}

TEST(Sweep, DeriveSeedIsDeterministicAndDecorrelated) {
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(derive_seed(42, i));
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

TEST(Sweep, ProgressReportingEveryNPoints) {
  const auto points = sample_points(5);  // six points
  std::ostringstream progress;
  SweepOptions opts;
  opts.jobs = 3;
  opts.progress_every = 2;
  opts.progress_stream = &progress;
  const auto results = run_sweep(points, opts);
  EXPECT_EQ(results.size(), points.size());
  const std::string text = progress.str();
  EXPECT_NE(text.find("sweep: 2/6 points"), std::string::npos) << text;
  EXPECT_NE(text.find("sweep: 4/6 points"), std::string::npos) << text;
  EXPECT_NE(text.find("sweep: 6/6 points"), std::string::npos) << text;
  // Every line is a counter multiple: nothing else is reported.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);

  // Progress reporting must not perturb the results.
  const auto quiet = run_sweep(points, 1);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].sim.cycles, quiet[i].sim.cycles) << i;

  // Disabled by default: nothing is written.
  std::ostringstream silent;
  SweepOptions off;
  off.jobs = 2;
  off.progress_stream = &silent;
  (void)run_sweep(points, off);
  EXPECT_TRUE(silent.str().empty());
}

TEST(Sweep, JsonDefaultNameAndGeometryAxis) {
  const auto points = sample_points(4);
  const auto results = run_sweep(points, 2);
  const std::string text = sweep_json("t", points, results).dump();
  EXPECT_NE(text.find("\"geometry\": \"4x4\""), std::string::npos);
}

TEST(Sweep, RejectsNonPositiveJobs) {
  EXPECT_THROW((void)run_sweep({}, 0), CheckError);
  EXPECT_THROW((void)run_sweep({}, -3), CheckError);
  EXPECT_TRUE(run_sweep({}, 4).empty());
}

TEST(Sweep, WorkerExceptionsPropagate) {
  std::vector<SweepPoint> points = sample_points(1);
  points[1].workload = "no-such-mix";
  EXPECT_THROW((void)run_sweep(points, 4), CheckError);
  EXPECT_THROW((void)run_sweep(points, 1), CheckError);
}

std::string fresh_cache_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/vexsim_sweep_cache_" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

// Replaces every occurrence of `from` with `to`; asserts at least one match.
std::string replace_all_in(std::string text, const std::string& from,
                           const std::string& to) {
  std::size_t pos = 0;
  std::size_t n = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
    ++n;
  }
  EXPECT_GT(n, 0u);
  return text;
}

TEST(Sweep, CacheServesBitIdenticalResults) {
  const auto points = sample_points(11);
  SweepOptions opts;
  opts.jobs = 3;
  opts.cache_dir = fresh_cache_dir("bitident");

  const auto cold = run_sweep(points, opts);
  const auto warm = run_sweep(points, opts);
  ASSERT_EQ(cold.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_FALSE(cold[i].cache_hit) << i;   // fresh simulation...
    EXPECT_TRUE(cold[i].cached) << i;       // ...persisted on the way out
    EXPECT_TRUE(warm[i].cache_hit) << i;    // served without simulating
    EXPECT_TRUE(warm[i].cached) << i;
  }

  // The acceptance property: a cold-cache sweep and a warm-cache sweep
  // serialize to byte-identical trajectories.
  const std::string cold_json = sweep_json("cache_test", points, cold).dump();
  const std::string warm_json = sweep_json("cache_test", points, warm).dump();
  EXPECT_EQ(cold_json, warm_json);

  // Against an uncached run, every simulated statistic is bit-identical;
  // the only JSON difference is the documented `cached` provenance flag.
  const auto uncached = run_sweep(points, 2);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(warm[i].sim.cycles, uncached[i].sim.cycles) << i;
    EXPECT_EQ(warm[i].sim.ops_issued, uncached[i].sim.ops_issued) << i;
    ASSERT_EQ(warm[i].instances.size(), uncached[i].instances.size());
    for (std::size_t k = 0; k < warm[i].instances.size(); ++k)
      EXPECT_EQ(warm[i].instances[k].arch_fingerprint,
                uncached[i].instances[k].arch_fingerprint)
          << i << "/" << k;
  }
  const std::string uncached_json =
      sweep_json("cache_test", points, uncached).dump();
  EXPECT_EQ(replace_all_in(uncached_json, "\"cached\": false",
                           "\"cached\": true"),
            warm_json);
}

TEST(Sweep, CacheSummaryLineReportsHitCounts) {
  const auto points = sample_points(12);
  SweepOptions opts;
  opts.jobs = 2;
  opts.cache_dir = fresh_cache_dir("summary");
  std::ostringstream cold_log;
  opts.progress_stream = &cold_log;
  (void)run_sweep(points, opts);
  EXPECT_NE(cold_log.str().find("served 0/6 points from result cache"),
            std::string::npos)
      << cold_log.str();
  std::ostringstream warm_log;
  opts.progress_stream = &warm_log;
  (void)run_sweep(points, opts);
  EXPECT_NE(warm_log.str().find("served 6/6 points from result cache"),
            std::string::npos)
      << warm_log.str();

  // Without a cache directory the summary line never appears (the silent
  // default-progress contract of ProgressReportingEveryNPoints).
  std::ostringstream quiet;
  SweepOptions off;
  off.jobs = 2;
  off.progress_stream = &quiet;
  (void)run_sweep(points, off);
  EXPECT_TRUE(quiet.str().empty());
}

TEST(Sweep, MixedHitsAndMissesKeepOrder) {
  // Warm every point, then drop all records but one: that point is served,
  // the others re-simulate, and the sweep still returns results in point
  // order.
  const auto points = sample_points(13);
  SweepOptions opts;
  opts.jobs = 4;
  opts.cache_dir = fresh_cache_dir("partial");
  const auto cold = run_sweep(points, opts);
  // Clearing the whole directory but one record leaves 1 hit + 5 misses.
  std::size_t kept = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(opts.cache_dir)) {
    if (kept++ > 0) std::filesystem::remove(entry.path());
  }
  std::ostringstream log;
  opts.progress_stream = &log;
  const auto mixed = run_sweep(points, opts);
  EXPECT_NE(log.str().find("served 1/6 points from result cache"),
            std::string::npos)
      << log.str();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    hits += mixed[i].cache_hit ? 1u : 0u;
    EXPECT_EQ(mixed[i].sim.cycles, cold[i].sim.cycles) << i;
  }
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(sweep_json("t", points, mixed).dump(),
            sweep_json("t", points, cold).dump());
}

TEST(Sweep, ProgressCountsCacheHits) {
  // Hits are served by the workers, so a warm sweep reports progress like
  // a cold one: one line per point at progress_every = 1.
  const auto points = sample_points(14);  // six points
  SweepOptions opts;
  opts.jobs = 3;
  opts.cache_dir = fresh_cache_dir("progress");
  std::ostringstream cold_log;
  opts.progress_stream = &cold_log;
  const auto cold = run_sweep(points, opts);
  std::ostringstream warm_log;
  opts.progress_stream = &warm_log;
  opts.progress_every = 1;
  const auto warm = run_sweep(points, opts);
  const std::string text = warm_log.str();
  EXPECT_NE(text.find("served 6/6 points from result cache"),
            std::string::npos)
      << text;
  std::size_t lines = 0;
  for (std::size_t k = 1; k <= points.size(); ++k) {
    const std::string line = "sweep: " + std::to_string(k) + "/6 points\n";
    if (text.find(line) != std::string::npos) ++lines;
  }
  EXPECT_EQ(lines, 6u) << text;
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 7) << text;
  EXPECT_EQ(sweep_json("t", points, warm).dump(),
            sweep_json("t", points, cold).dump());
}

TEST(Sweep, ShardRunsOnlyItsSlice) {
  const auto points = sample_points(15);  // six points
  SweepOptions full;
  full.jobs = 2;
  full.cache_dir = fresh_cache_dir("shard_full");
  const auto reference = run_sweep(points, full);

  // Shard 2/4 owns points 1 and 5.
  SweepOptions opts;
  opts.jobs = 3;
  opts.cache_dir = fresh_cache_dir("shard_slice");
  opts.shard = ShardSpec::parse("2/4");
  opts.progress_every = 1;
  std::ostringstream log;
  opts.progress_stream = &log;
  const auto sharded = run_sweep(points, opts);
  ASSERT_EQ(sharded.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RunResult& expected = opts.shard.owns(i) ? reference[i] : RunResult{};
    EXPECT_EQ(sweep_point_json(points[i], sharded[i]).dump(),
              sweep_point_json(points[i], expected).dump())
        << i;
  }
  const std::string text = log.str();
  EXPECT_NE(text.find("sweep: 1/2 points\n"), std::string::npos) << text;
  EXPECT_NE(text.find("sweep: 2/2 points\n"), std::string::npos) << text;
  EXPECT_NE(text.find("served 0/2 points from result cache"),
            std::string::npos)
      << text;
  // Only the owned points reached the cache.
  std::size_t records = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(opts.cache_dir))
    ++records;
  EXPECT_EQ(records, 2u);

  // A shard that owns no point runs nothing.
  opts.shard = ShardSpec::parse("8/8");
  std::ostringstream empty_log;
  opts.progress_stream = &empty_log;
  const auto none = run_sweep(points, opts);
  ASSERT_EQ(none.size(), points.size());
  EXPECT_NE(empty_log.str().find("served 0/0 points from result cache"),
            std::string::npos)
      << empty_log.str();
}

TEST(Sweep, AggregatedErrorReportsCountAndLabels) {
  std::vector<SweepPoint> points = sample_points(1);
  points[1].workload = "no-such-mix";
  points[4].workload = "also-missing";
  try {
    (void)run_sweep(points, 4);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2/6 points failed"), std::string::npos) << what;
    EXPECT_NE(what.find(points[1].label), std::string::npos) << what;
    EXPECT_NE(what.find(points[4].label), std::string::npos) << what;
    EXPECT_NE(what.find("no-such-mix"), std::string::npos) << what;
  }
}

TEST(Sweep, RetriesExhaustedBecomeStructuredFailures) {
  std::vector<SweepPoint> points = sample_points(3);
  points[2].workload = "no-such-mix";
  SweepOptions opts;
  opts.jobs = 4;
  opts.max_retries = 2;  // implies failure tolerance

  const auto results = run_sweep(points, opts);  // must not throw
  ASSERT_EQ(results.size(), points.size());
  EXPECT_TRUE(results[2].failed);
  EXPECT_EQ(results[2].attempts, 3);  // 1 try + 2 retries
  EXPECT_NE(results[2].error.find("no-such-mix"), std::string::npos)
      << results[2].error;
  EXPECT_EQ(results[2].sim.cycles, 0u);

  // Healthy points are untouched by the failure machinery...
  const auto plain = run_sweep(sample_points(3), 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i == 2) continue;
    EXPECT_FALSE(results[i].failed) << i;
    EXPECT_EQ(results[i].attempts, 1) << i;
    EXPECT_EQ(results[i].sim.cycles, plain[i].sim.cycles) << i;
  }
  // ...and the whole tolerant sweep is deterministic across --jobs.
  const auto serial = run_sweep(points, [] {
    SweepOptions o;
    o.jobs = 1;
    o.max_retries = 2;
    return o;
  }());
  EXPECT_EQ(sweep_json("t", points, results).dump(),
            sweep_json("t", points, serial).dump());
  // The failed point is visible in the trajectory.
  const std::string text = sweep_json("t", points, results).dump();
  EXPECT_NE(text.find("\"failed\": true"), std::string::npos);
  EXPECT_NE(text.find("\"error\": "), std::string::npos);
}

TEST(Sweep, GenerousTimeoutIsBitIdenticalAcrossJobs) {
  // A timeout that never fires must not perturb anything: same stats, one
  // attempt per point, identical JSON for any worker count.
  const auto points = sample_points(6);
  SweepOptions opts;
  opts.jobs = 4;
  opts.point_timeout_ms = 600'000;
  const auto timed = run_sweep(points, opts);
  opts.jobs = 1;
  const auto timed_serial = run_sweep(points, opts);
  const auto plain = run_sweep(points, 2);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(timed[i].attempts, 1) << i;
    EXPECT_FALSE(timed[i].failed) << i;
    EXPECT_EQ(timed[i].sim.cycles, plain[i].sim.cycles) << i;
  }
  EXPECT_EQ(sweep_json("t", points, timed).dump(),
            sweep_json("t", points, timed_serial).dump());
  EXPECT_EQ(sweep_json("t", points, timed).dump(),
            sweep_json("t", points, plain).dump());
}

TEST(Sweep, ExpiredTimeoutIsRecordedAsFailure) {
  // A single deliberately heavy point (a ~second of simulation even on an
  // idle machine) under a 25 ms budget: both attempts time out and the
  // failure is structured. Only the heavy point runs under the tight
  // timeout — external load slows the simulation down, which can only
  // widen the margin, so this is stable under a parallel test suite.
  std::vector<SweepPoint> points = {sample_points(7)[0]};
  points[0].opt.budget = 1'000'000;
  points[0].opt.timeslice = 100'000;
  SweepOptions opts;
  opts.jobs = 2;
  opts.point_timeout_ms = 25;
  opts.max_retries = 1;
  const auto results = run_sweep(points, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].failed);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_NE(results[0].error.find("timed out after 25 ms"), std::string::npos)
      << results[0].error;
  EXPECT_EQ(results[0].sim.cycles, 0u);
  // The failure shows up in the trajectory rather than as an exception.
  const std::string text = sweep_json("t", points, results).dump();
  EXPECT_NE(text.find("\"failed\": true"), std::string::npos);
  EXPECT_NE(text.find("timed out after 25 ms"), std::string::npos);
}

// Threads of this process, counted from /proc/self/task.
std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(Sweep, TimedOutAttemptsLeaveNoThreadBehind) {
  // The heavy point of ExpiredTimeoutIsRecordedAsFailure: every attempt
  // times out. Each one stops on the thread that ran it, so when run_sweep
  // returns nothing it started is still running.
  std::vector<SweepPoint> points = {sample_points(7)[0]};
  points[0].opt.budget = 1'000'000;
  points[0].opt.timeslice = 100'000;
  SweepOptions opts;
  opts.jobs = 2;
  opts.point_timeout_ms = 25;
  opts.max_retries = 1;
  const std::size_t before = live_threads();
  const auto results = run_sweep(points, opts);
  EXPECT_EQ(live_threads(), before);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].failed);
  EXPECT_EQ(results[0].attempts, 2);
}

TEST(Sweep, FailedPointsAreNeverCached) {
  std::vector<SweepPoint> points = sample_points(8);
  points[1].workload = "no-such-mix";
  SweepOptions opts;
  opts.jobs = 2;
  opts.max_retries = 1;
  opts.cache_dir = fresh_cache_dir("failures");
  const auto first = run_sweep(points, opts);
  EXPECT_TRUE(first[1].failed);
  EXPECT_FALSE(first[1].cached);
  // The second run hits for the five good points and re-fails the bad one
  // fresh — a transient failure must never be replayed from disk.
  std::ostringstream log;
  opts.progress_stream = &log;
  const auto second = run_sweep(points, opts);
  EXPECT_NE(log.str().find("served 5/6 points from result cache"),
            std::string::npos)
      << log.str();
  EXPECT_TRUE(second[1].failed);
  EXPECT_FALSE(second[1].cache_hit);
  EXPECT_EQ(sweep_json("t", points, first).dump(),
            sweep_json("t", points, second).dump());
}

TEST(Sweep, FromCliParsesCacheTimeoutRetries) {
  const auto opts_for = [](std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    const Cli cli(static_cast<int>(argv.size()), argv.data());
    return SweepOptions::from_cli(cli);
  };
  EXPECT_EQ(opts_for({}).cache_dir, "");
  EXPECT_FALSE(opts_for({}).failure_tolerant());
  EXPECT_EQ(opts_for({"--cache"}).cache_dir, "sweep-cache");
  EXPECT_EQ(opts_for({"--cache", "my-dir"}).cache_dir, "my-dir");
  EXPECT_EQ(opts_for({"--cache=my-dir"}).cache_dir, "my-dir");
  // --no-cache wins so wrapper-script caches can be disabled per run.
  EXPECT_EQ(opts_for({"--cache", "my-dir", "--no-cache"}).cache_dir, "");
  EXPECT_EQ(opts_for({"--no-cache"}).cache_dir, "");
  const SweepOptions t = opts_for({"--timeout", "250", "--retries", "2"});
  EXPECT_EQ(t.point_timeout_ms, 250);
  EXPECT_EQ(t.max_retries, 2);
  EXPECT_TRUE(t.failure_tolerant());
  EXPECT_THROW((void)opts_for({"--timeout", "-1"}), CheckError);
  EXPECT_THROW((void)opts_for({"--retries", "-2"}), CheckError);
  // Values outside int are errors, not narrowed: 4294967297 ms would
  // narrow to a 1 ms timeout.
  EXPECT_THROW((void)opts_for({"--timeout", "4294967297"}), CheckError);
  EXPECT_THROW((void)opts_for({"--retries", "4294967298"}), CheckError);
  EXPECT_THROW((void)opts_for({"--progress", "4294967297"}), CheckError);
  EXPECT_EQ(opts_for({"--timeout", "2147483647"}).point_timeout_ms, INT_MAX);
  // Anything but one whole number is an error, not a prefix or a zero.
  EXPECT_THROW((void)opts_for({"--timeout", "abc"}), CheckError);
  EXPECT_THROW((void)opts_for({"--retries", "2x"}), CheckError);
  EXPECT_THROW((void)opts_for({"--timeout"}), CheckError);
  // A --cache-gc budget above INT64_MAX is an error, not a wrapped 0.
  EXPECT_THROW((void)opts_for({"--cache", "d", "--cache-gc", "17179869184G"}),
               CheckError);
  EXPECT_EQ(opts_for({"--cache", "d", "--cache-gc", "8589934591G"})
                .cache_gc_bytes,
            INT64_MAX - (1ll << 30) + 1);
  // --shard is a sweep option too.
  EXPECT_FALSE(opts_for({}).shard.active);
  const SweepOptions s = opts_for({"--shard", "3/4"});
  EXPECT_TRUE(s.shard.active);
  EXPECT_EQ(s.shard.str(), "3/4");
  EXPECT_THROW((void)opts_for({"--shard", "5/4"}), CheckError);
}

TEST(Sweep, FlushFlagIsRejected) {
  // The retired --flush must not be silently ignored: a script waiting for
  // its checkpoints would wait forever. The error points at --cache.
  for (const std::vector<const char*>& args :
       {std::vector<const char*>{"prog", "--flush", "2"},
        std::vector<const char*>{"prog", "--flush=10"},
        std::vector<const char*>{"prog", "--cache", "d", "--flush", "1"}}) {
    const Cli cli(static_cast<int>(args.size()), args.data());
    try {
      (void)SweepOptions::from_cli(cli);
      FAIL() << "--flush was accepted";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--flush"), std::string::npos) << what;
      EXPECT_NE(what.find("--cache"), std::string::npos) << what;
    }
  }
}

TEST(Sweep, FlushIsNotListedAmongTheFlagsRead) {
  // from_cli looks --flush up only to reject it, so the unknown-option
  // error must not offer it as a flag the program reads.
  const std::vector<const char*> args{"prog", "--cahce", "x"};
  const Cli cli(static_cast<int>(args.size()), args.data());
  (void)SweepOptions::from_cli(cli);
  try {
    cli.reject_unknown();
    FAIL() << "--cahce was accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown option --cahce"), std::string::npos) << what;
    EXPECT_NE(what.find("--cache"), std::string::npos) << what;
    EXPECT_EQ(what.find("--flush"), std::string::npos) << what;
  }
}

TEST(Sweep, SkipTablesOnShardRunsAndFailedPoints) {
  const auto skip = [](std::initializer_list<const char*> args,
                       const std::vector<RunResult>& results,
                       std::ostringstream& out) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return skip_tables(Cli(static_cast<int>(argv.size()), argv.data()),
                       results, out);
  };
  std::vector<RunResult> results(3);
  std::ostringstream out;
  EXPECT_EQ(failed_points(results), 0u);
  EXPECT_EQ(skip({}, results, out), std::nullopt);
  EXPECT_EQ(out.str(), "");

  // A shard run holds only its slice: skip, exit 0.
  EXPECT_EQ(skip({"--shard", "2/4"}, results, out), 0);
  EXPECT_NE(out.str().find("shard run: tables skipped"), std::string::npos);

  // A tolerated failure has no IPC to divide by: skip, exit 1, say how many.
  results[0].failed = true;
  results[2].failed = true;
  EXPECT_EQ(failed_points(results), 2u);
  out.str("");
  EXPECT_EQ(skip({}, results, out), 1);
  EXPECT_NE(out.str().find("2/3 points failed"), std::string::npos)
      << out.str();
  // A shard run still exits 0 whatever its points did.
  EXPECT_EQ(skip({"--shard", "1/1"}, results, out), 0);
}

TEST(Sweep, ResultForLooksUpByLabel) {
  const auto points = sample_points(1);
  const auto results = run_sweep(points, 2);
  EXPECT_EQ(&result_for(points, results, points[3].label), &results[3]);
  EXPECT_THROW((void)result_for(points, results, "no-such-label"), CheckError);
}

TEST(Sweep, JsonCarriesConfigurationAxes) {
  const auto points = sample_points(3);
  const auto results = run_sweep(points, 2);
  const Json doc = sweep_json("sweep_test", points, results);
  const std::string text = doc.dump();
  EXPECT_NE(text.find("\"experiment\": \"sweep_test\""), std::string::npos);
  EXPECT_NE(text.find("\"workload\": \"llll\""), std::string::npos);
  EXPECT_NE(text.find("\"technique\": \"CCSI AS\""), std::string::npos);
  EXPECT_NE(text.find("\"ipc\":"), std::string::npos);
  EXPECT_NE(text.find("\"arch_fingerprint\":"), std::string::npos);
}

}  // namespace
}  // namespace vexsim::harness
