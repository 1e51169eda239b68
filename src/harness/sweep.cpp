#include "harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "harness/result_cache.hpp"
#include "harness/shard.hpp"
#include "harness/stat_fields.hpp"
#include "util/check.hpp"

namespace vexsim::harness {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + (index + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

constexpr const char* kShardForm =
    "--shard expects I/N with integers 1 <= I <= N (for example 2/4)";

bool parse_small_uint(const std::string& s, int& out) {
  if (s.empty() || s.size() > 6) return false;
  for (const char c : s)
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
  out = std::stoi(s);
  return true;
}

}  // namespace

ShardSpec ShardSpec::parse(const std::string& spec) {
  const std::size_t slash = spec.find('/');
  int index = 0;
  int count = 0;
  const bool well_formed =
      slash != std::string::npos &&
      parse_small_uint(spec.substr(0, slash), index) &&
      parse_small_uint(spec.substr(slash + 1), count) && index >= 1 &&
      count >= 1 && index <= count;
  VEXSIM_CHECK_MSG(well_formed, kShardForm << "; got '" << spec << "'");
  return {index, count, true};
}

ShardSpec ShardSpec::from_cli(const Cli& cli) {
  if (!cli.has("shard")) return {};
  const std::string spec = cli.get("shard", "");
  // Bare `--shard` parses as the boolean value "true"; reject it with the
  // same message as any other malformed spec.
  VEXSIM_CHECK_MSG(spec != "true", kShardForm << "; got ''");
  return parse(spec);
}

SweepOptions SweepOptions::from_cli(const Cli& cli) {
  // The retired --flush gets its own error rather than reject_unknown()'s,
  // so the message can say what replaced it. given() is not a read, so the
  // flags reject_unknown() lists as read leave --flush out.
  VEXSIM_CHECK_MSG(!cli.given("flush"),
                   "--flush is no longer supported; run the sweep with "
                   "--cache[=DIR] and re-run it with the same --cache to "
                   "resume where it stopped");
  SweepOptions opts;
  opts.jobs = cli.jobs();
  opts.progress_every =
      cli.get_int_in("progress", opts.progress_every, 0, INT_MAX);
  // Read --no-cache even without --cache: alone it is valid (a no-op), and
  // reject_unknown() only accepts flags that were looked up.
  const bool no_cache = cli.get_bool("no-cache", false);
  if (cli.has("cache") && !no_cache) {
    const std::string dir = cli.get("cache", "");
    // Bare `--cache` parses as the boolean value "true"; map it to the
    // default directory.
    opts.cache_dir = (dir.empty() || dir == "true") ? "sweep-cache" : dir;
  }
  if (cli.has("cache-gc")) {
    VEXSIM_CHECK_MSG(!opts.cache_dir.empty(),
                     "--cache-gc needs an active result cache; add "
                     "--cache[=DIR] (or drop --no-cache)");
    opts.cache_gc_bytes =
        static_cast<std::int64_t>(parse_size_bytes(cli.get("cache-gc", "")));
  }
  opts.point_timeout_ms =
      cli.get_int_in("timeout", opts.point_timeout_ms, 0, INT_MAX);
  opts.max_retries = cli.get_int_in("retries", opts.max_retries, 0, INT_MAX);
  opts.shard = ShardSpec::from_cli(cli);
  return opts;
}

namespace {

// One simulation attempt on the calling thread. Under a timeout the driver
// polls the attempt's deadline and stops the run itself once it has passed.
bool attempt(const SweepPoint& point, int timeout_ms, RunResult& out,
             std::string& error) {
  std::optional<Deadline> deadline;
  if (timeout_ms > 0)
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(timeout_ms);
  try {
    out = run_workload_on(point.cfg, point.workload, point.opt, deadline);
    return true;
  } catch (const DeadlineExceeded&) {
    error = "timed out after " + std::to_string(timeout_ms) + " ms";
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown exception";
  }
  return false;
}

}  // namespace

std::vector<RunResult> run_sweep(const std::vector<SweepPoint>& points,
                                 const SweepOptions& opts) {
  const int jobs = opts.jobs;
  VEXSIM_CHECK_MSG(jobs >= 1, "sweep needs at least one job, got " << jobs);
  VEXSIM_CHECK_MSG(opts.progress_every >= 0, "progress_every must be >= 0");
  VEXSIM_CHECK_MSG(opts.point_timeout_ms >= 0, "point_timeout_ms must be >= 0");
  VEXSIM_CHECK_MSG(opts.max_retries >= 0, "max_retries must be >= 0");
  VEXSIM_CHECK_MSG(opts.shard.index >= 1 &&
                       opts.shard.index <= opts.shard.count,
                   "shard " << opts.shard.str() << " out of range");
  std::vector<RunResult> results(points.size());
  // Per-point error text in the non-tolerant configuration; aggregated into
  // one exception after the workers drain.
  std::vector<std::string> fatal_errors(points.size());
  std::vector<char> fatal(points.size(), 0);
  std::ostream* progress_to =
      opts.progress_stream != nullptr ? opts.progress_stream : &std::cerr;
  std::unique_ptr<ResultCache> cache;
  if (!opts.cache_dir.empty())
    cache = std::make_unique<ResultCache>(opts.cache_dir);

  // The owned points are first, first + stride, ...; workers claim them by
  // their rank k in that sequence.
  const auto first = static_cast<std::size_t>(opts.shard.index - 1);
  const auto stride = static_cast<std::size_t>(opts.shard.count);
  const std::size_t owned = opts.shard.owned_count(points.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> cache_hits{0};
  std::atomic<bool> store_failed{false};
  std::mutex progress_mutex;
  const int max_attempts = 1 + opts.max_retries;

  // Point i, start to end: a cache hit is served; a miss is simulated (with
  // its retries) and stored.
  const auto run_point = [&](std::size_t i) {
    const SweepPoint& p = points[i];
    // A point whose fingerprint cannot be computed (unknown workload name)
    // is uncacheable; its attempts then surface the real resolution error.
    std::optional<std::uint64_t> key;
    if (cache != nullptr) {
      try {
        key = point_fingerprint(p.cfg, p.workload, p.opt);
      } catch (const CheckError&) {
      }
    }
    if (key) {
      if (std::optional<RunResult> hit = cache->load(*key)) {
        results[i] = std::move(*hit);
        cache_hits.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }

    RunResult r;
    std::string error;
    int used_attempts = 0;
    bool ok = false;
    // Retries re-run the point unchanged (same options, hence the same
    // derived seed): wall-clock timeouts come from machine load, not from
    // the simulation, so a retry of a timed-out point usually succeeds —
    // bit-identically to a first-try success.
    while (!ok && used_attempts < max_attempts) {
      ++used_attempts;
      ok = attempt(p, opts.point_timeout_ms, r, error);
    }

    if (ok) {
      r.attempts = used_attempts;
      if (key && !store_failed.load(std::memory_order_relaxed)) {
        try {
          r.cached = true;
          cache->store(*key, p.workload, r);
        } catch (...) {
          // An unwritable cache (full disk, permissions) degrades to
          // uncached operation; the sweep's results outrank persistence.
          r.cached = false;
          store_failed.store(true, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(progress_mutex);
          *progress_to << "sweep: result-cache store failed; caching "
                          "disabled for this run" << std::endl;
        }
      }
      results[i] = std::move(r);
    } else if (opts.failure_tolerant()) {
      // Structured per-point failure: the sweep completes and the JSON
      // records what went wrong where, instead of one bad point poisoning
      // hours of finished work.
      RunResult failure;
      failure.failed = true;
      failure.error = error;
      failure.attempts = max_attempts;
      results[i] = std::move(failure);
    } else {
      fatal_errors[i] = error;
      fatal[i] = 1;
    }
  };

  const auto worker = [&] {
    for (std::size_t k = next.fetch_add(1); k < owned; k = next.fetch_add(1)) {
      run_point(first + k * stride);
      const std::size_t done_count = completed.fetch_add(1) + 1;
      if (opts.progress_every > 0 &&
          (done_count % static_cast<std::size_t>(opts.progress_every) == 0 ||
           done_count == owned)) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        *progress_to << "sweep: " << done_count << "/" << owned << " points"
                     << std::endl;
      }
    }
  };

  // The calling thread is one of the workers. jthreads join on destruction,
  // so the pool is drained even when the caller's share throws.
  {
    const std::size_t n_workers =
        std::min(static_cast<std::size_t>(jobs), owned);
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < n_workers; ++t) pool.emplace_back(worker);
    worker();
  }

  if (cache != nullptr)
    *progress_to << "sweep: served " << cache_hits.load() << "/" << owned
                 << " points from result cache" << std::endl;

  // Aggregate every fatal error into one exception: the first failure alone
  // hides how widespread the breakage is (and which configs it touched).
  std::size_t n_failed = 0;
  for (const char f : fatal) n_failed += static_cast<std::size_t>(f);
  if (n_failed > 0) {
    constexpr std::size_t kMaxReported = 3;
    std::ostringstream msg;
    msg << "sweep: " << n_failed << "/" << owned
        << " points failed; first " << std::min(n_failed, kMaxReported)
        << ":";
    std::size_t reported = 0;
    for (std::size_t i = 0; i < points.size() && reported < kMaxReported; ++i) {
      if (fatal[i] == 0) continue;
      msg << (reported == 0 ? " " : "; ") << "'" << points[i].label
          << "': " << fatal_errors[i];
      ++reported;
    }
    if (n_failed > kMaxReported) msg << "; ...";
    throw CheckError(msg.str());
  }

  // Post-sweep cache maintenance: evict down to the byte budget so a
  // long-lived shared cache directory stays bounded. Runs after the sweep so
  // this run's own records are the newest and survive preferentially.
  if (cache != nullptr && opts.cache_gc_bytes >= 0) {
    const CacheGcStats gc =
        cache->gc(static_cast<std::uint64_t>(opts.cache_gc_bytes));
    *progress_to << "sweep: cache-gc evicted " << gc.evicted << "/"
                 << gc.records_before << " records (" << gc.bytes_before
                 << " -> " << gc.bytes_after << " bytes, budget "
                 << opts.cache_gc_bytes << ")" << std::endl;
  }
  return results;
}

std::vector<RunResult> run_sweep(const std::vector<SweepPoint>& points,
                                 int jobs) {
  SweepOptions opts;
  opts.jobs = jobs;
  return run_sweep(points, opts);
}

Json sweep_point_json(const SweepPoint& p, const RunResult& r) {
  Json cfg = Json::object();
  cfg.set("threads", p.cfg.hw_threads)
      .set("technique", p.cfg.technique.name())
      .set("clusters", p.cfg.clusters)
      .set("issue_width", p.cfg.total_issue_width())
      .set("geometry", p.cfg.geometry_name())
      .set("cluster_renaming", p.cfg.cluster_renaming)
      .set("seed", p.opt.seed)
      .set("scale", p.opt.scale)
      .set("budget", p.opt.budget)
      .set("timeslice", p.opt.timeslice)
      .set("cc", p.opt.compiler.name());

  Json sim = Json::object();
  sim.set("ipc", r.ipc());
  append_fields(sim, kSimFields, r.sim);

  Json caches = Json::object();
  caches.set("icache_hits", r.icache.hits)
      .set("icache_misses", r.icache.misses)
      .set("dcache_hits", r.dcache.hits)
      .set("dcache_misses", r.dcache.misses);

  Json point = Json::object();
  point.set("label", p.label)
      .set("workload", p.workload)
      .set("config", std::move(cfg))
      .set("sim", std::move(sim))
      .set("caches", std::move(caches));
  // Hierarchy-backend statistics; absent under the fixed backend so every
  // pre-hierarchy golden trajectory stays byte-identical.
  if (r.memory.present) {
    Json dram = fields_json(kDramFields, r.memory.dram);
    dram.set("row_hit_rate", r.memory.dram.row_hit_rate());
    Json memory = Json::object();
    memory.set("imshr", fields_json(kMshrFields, r.memory.imshr))
        .set("dmshr", fields_json(kMshrFields, r.memory.dmshr))
        .set("l2_hits", r.memory.l2.hits)
        .set("l2_misses", r.memory.l2.misses)
        .set("dram", std::move(dram));
    point.set("memory", std::move(memory));
  }

  // Compile quality of the workload's static code (per-component stats
  // summed by build_workload), so BENCH trajectories track the compiler
  // alongside the machine.
  Json compile = Json::object();
  compile.set("ops_per_instruction", r.compile.ops_per_instruction());
  append_fields(compile, kCompileFields, r.compile);

  Json instances = Json::array();
  for (const InstanceResult& inst : r.instances)
    instances.push(instance_json(inst));

  point.set("merge", fields_json(kMergeFields, r.merge))
      .set("compile", std::move(compile))
      .set("instances", std::move(instances));
  // Harness provenance. `cached` is cache membership (stored or served), so
  // cold- and warm-cache sweeps serialize identically; per-run hit counts go
  // to the progress stream instead. `attempts` replays from the cache record
  // and is equally stable.
  point.set("cached", r.cached)
      .set("attempts", r.attempts)
      .set("failed", r.failed);
  if (r.failed) point.set("error", r.error);
  return point;
}

Json sweep_json(const std::string& experiment,
                const std::vector<SweepPoint>& points,
                const std::vector<RunResult>& results) {
  VEXSIM_CHECK(points.size() == results.size());
  Json doc = Json::object();
  doc.set("experiment", experiment);
  Json arr = Json::array();
  for (std::size_t i = 0; i < points.size(); ++i)
    arr.push(sweep_point_json(points[i], results[i]));
  doc.set("points", std::move(arr));
  return doc;
}

const RunResult& result_for(const std::vector<SweepPoint>& points,
                            const std::vector<RunResult>& results,
                            const std::string& label) {
  VEXSIM_CHECK(points.size() == results.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    if (points[i].label == label) return results[i];
  VEXSIM_CHECK_MSG(false, "no sweep point labelled '" << label << "'");
  std::abort();  // unreachable: the check above throws
}

std::vector<RunResult> run_sweep_and_dump(
    const Cli& cli, const std::string& experiment,
    const std::vector<SweepPoint>& points) {
  const SweepOptions opts = SweepOptions::from_cli(cli);
  const ShardSpec& shard = opts.shard;
  const std::string path = cli.get(
      "json", shard.active
                  ? "BENCH_" + experiment + ".shard" + shard.tag() + ".json"
                  : "BENCH_" + experiment + ".json");
  cli.reject_unknown();
  const std::vector<RunResult> results = run_sweep(points, opts);
  if (!shard.active) {
    write_json_file(path, sweep_json(experiment, points, results));
    return results;
  }

  // --shard i/N: the manifest is identical in every shard process (point
  // lists are a pure function of the bench flags); the document carries it
  // and the owned records for tools/vexmerge.
  std::vector<std::size_t> indices;
  std::vector<Json> docs;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!shard.owns(i)) continue;
    indices.push_back(i);
    docs.push_back(sweep_point_json(points[i], results[i]));
  }
  write_json_file(path, sweep_shard_json(experiment, shard,
                                         build_manifest(points), indices,
                                         std::move(docs), false));
  std::cerr << "sweep: shard " << shard.str() << " ran " << indices.size()
            << "/" << points.size() << " points -> " << path << std::endl;
  return results;
}

std::size_t failed_points(const std::vector<RunResult>& results) {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(),
                    [](const RunResult& r) { return r.failed; }));
}

std::optional<int> skip_tables(const Cli& cli,
                               const std::vector<RunResult>& results,
                               std::ostream& out) {
  if (ShardSpec::from_cli(cli).active) {
    out << "shard run: tables skipped; merge the shard JSONs with "
           "tools/vexmerge\n";
    return 0;
  }
  const std::size_t failed = failed_points(results);
  if (failed == 0) return std::nullopt;
  out << failed << "/" << results.size()
      << " points failed: tables skipped; the JSON trajectory marks them "
         "\"failed\"\n";
  return 1;
}

}  // namespace vexsim::harness
