#include "harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>

#include "harness/result_cache.hpp"
#include "harness/shard.hpp"
#include "util/check.hpp"

namespace vexsim::harness {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + (index + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

SweepOptions SweepOptions::from_cli(const Cli& cli) {
  SweepOptions opts;
  opts.jobs = cli.jobs();
  opts.progress_every =
      cli.get_int_in("progress", opts.progress_every, 0, INT_MAX);
  opts.flush_every = cli.get_int_in("flush", opts.flush_every, 0, INT_MAX);
  if (cli.has("cache") && !cli.get_bool("no-cache", false)) {
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
  std::vector<RunResult> results(points.size());
  // Per-point error text in the non-tolerant configuration; aggregated into
  // one exception after the workers drain.
  std::vector<std::string> fatal_errors(points.size());
  std::vector<char> fatal(points.size(), 0);
  std::ostream* progress_to =
      opts.progress_stream != nullptr ? opts.progress_stream : &std::cerr;

  // Cache pre-pass: hits are served in point order before the thread pool
  // starts; only misses become worker items. A point whose fingerprint
  // cannot be computed (unknown workload name) is uncacheable — the worker
  // then surfaces the real resolution error.
  std::unique_ptr<ResultCache> cache;
  std::vector<std::uint64_t> keys(points.size(), 0);
  std::vector<char> cacheable(points.size(), 0);
  std::vector<std::size_t> todo;
  todo.reserve(points.size());
  std::size_t cache_hits = 0;
  if (!opts.cache_dir.empty()) {
    cache = std::make_unique<ResultCache>(opts.cache_dir);
    for (std::size_t i = 0; i < points.size(); ++i) {
      try {
        keys[i] = point_fingerprint(points[i].cfg, points[i].workload,
                                    points[i].opt);
        cacheable[i] = 1;
      } catch (const CheckError&) {
      }
      if (cacheable[i] != 0) {
        if (std::optional<RunResult> hit = cache->load(keys[i])) {
          results[i] = std::move(*hit);
          ++cache_hits;
          continue;
        }
      }
      todo.push_back(i);
    }
  } else {
    todo.resize(points.size());
    std::iota(todo.begin(), todo.end(), std::size_t{0});
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{cache_hits};
  std::mutex progress_mutex;
  // Incremental-flush bookkeeping, guarded by progress_mutex: which points
  // have finished and how far the fully-complete prefix reaches. Cache hits
  // are complete before any worker starts.
  std::vector<char> done(points.size(), 0);
  std::size_t prefix = 0;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (results[i].cache_hit) done[i] = 1;
  while (prefix < points.size() && done[prefix] != 0) ++prefix;
  const bool flushing = opts.flush_every > 0 && opts.flush_fn != nullptr;
  std::atomic<bool> flush_failed{false};
  std::atomic<bool> store_failed{false};
  const int max_attempts = 1 + opts.max_retries;
  auto worker = [&] {
    for (;;) {
      const std::size_t t = next.fetch_add(1);
      if (t >= todo.size()) return;
      const std::size_t i = todo[t];
      const SweepPoint& p = points[i];

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
        if (cache != nullptr && cacheable[i] != 0 &&
            !store_failed.load(std::memory_order_relaxed)) {
          try {
            r.cached = true;
            cache->store(keys[i], p.workload, r);
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

      const std::size_t done_count = completed.fetch_add(1) + 1;
      if (opts.progress_every > 0 &&
          (done_count % static_cast<std::size_t>(opts.progress_every) == 0 ||
           done_count == points.size())) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        *progress_to << "sweep: " << done_count << "/" << points.size()
                     << " points" << std::endl;
      }
      if (flushing && !flush_failed.load(std::memory_order_relaxed)) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        // A fatally-errored point never counts as done: the complete prefix
        // stops before it, so a salvaged partial file holds only real
        // results. (A tolerated failure *is* a result.)
        done[i] = fatal[i] != 0 ? 0 : 1;
        while (prefix < points.size() && done[prefix] != 0) ++prefix;
        // The final complete document is written by the caller; only
        // genuinely partial states flush.
        if (done_count % static_cast<std::size_t>(opts.flush_every) == 0 &&
            done_count < points.size()) {
          try {
            opts.flush_fn(results, prefix);
          } catch (...) {
            // A failing flush (full disk, unwritable path) must not abort
            // the sweep: the in-memory results outrank the checkpoint.
            flush_failed.store(true, std::memory_order_relaxed);
            *progress_to << "sweep: incremental flush failed; flushing "
                            "disabled for this run" << std::endl;
          }
        }
      }
    }
  };

  const std::size_t n_workers =
      std::min(static_cast<std::size_t>(jobs), todo.size());
  if (n_workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (std::size_t t = 0; t < n_workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  if (cache != nullptr)
    *progress_to << "sweep: served " << cache_hits << "/" << points.size()
                 << " points from result cache" << std::endl;

  // Aggregate every fatal error into one exception: the first failure alone
  // hides how widespread the breakage is (and which configs it touched).
  std::size_t n_failed = 0;
  for (const char f : fatal) n_failed += static_cast<std::size_t>(f);
  if (n_failed > 0) {
    constexpr std::size_t kMaxReported = 3;
    std::ostringstream msg;
    msg << "sweep: " << n_failed << "/" << points.size()
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

namespace {

Json point_json(const SweepPoint& p, const RunResult& r) {
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
  sim.set("ipc", r.ipc())
      .set("cycles", r.sim.cycles)
      .set("ops_issued", r.sim.ops_issued)
      .set("instructions_retired", r.sim.instructions_retired)
      .set("split_instructions", r.sim.split_instructions)
      .set("vertical_waste_cycles", r.sim.vertical_waste_cycles)
      .set("multi_thread_cycles", r.sim.multi_thread_cycles)
      .set("memport_stall_cycles", r.sim.memport_stall_cycles)
      .set("drain_cycles", r.sim.drain_cycles)
      .set("taken_branches", r.sim.taken_branches)
      .set("faults", r.sim.faults);

  Json caches = Json::object();
  caches.set("icache_hits", r.icache.hits)
      .set("icache_misses", r.icache.misses)
      .set("dcache_hits", r.dcache.hits)
      .set("dcache_misses", r.dcache.misses);

  // Hierarchy-backend statistics; absent under the fixed backend so every
  // pre-hierarchy golden trajectory stays byte-identical.
  Json memory = Json::object();
  if (r.memory.present) {
    const auto mshr_json = [](const mem::MshrStats& m) {
      Json j = Json::object();
      j.set("allocations", m.allocations)
          .set("merges", m.merges)
          .set("full_stalls", m.full_stalls)
          .set("peak_occupancy", m.peak_occupancy);
      return j;
    };
    Json dram = Json::object();
    dram.set("row_hits", r.memory.dram.row_hits)
        .set("row_closed", r.memory.dram.row_closed)
        .set("row_conflicts", r.memory.dram.row_conflicts)
        .set("row_hit_rate", r.memory.dram.row_hit_rate());
    memory.set("imshr", mshr_json(r.memory.imshr))
        .set("dmshr", mshr_json(r.memory.dmshr))
        .set("l2_hits", r.memory.l2.hits)
        .set("l2_misses", r.memory.l2.misses)
        .set("dram", std::move(dram));
  }

  Json merge = Json::object();
  merge.set("full_selections", r.merge.full_selections)
      .set("partial_selections", r.merge.partial_selections)
      .set("blocked_selections", r.merge.blocked_selections)
      .set("comm_nosplit_forced", r.merge.comm_nosplit_forced);

  Json instances = Json::array();
  for (const InstanceResult& inst : r.instances) {
    Json ij = Json::object();
    ij.set("name", inst.name)
        .set("instructions", inst.instructions)
        .set("respawns", inst.respawns)
        .set("arch_fingerprint", inst.arch_fingerprint)
        .set("faulted", inst.faulted);
    instances.push(std::move(ij));
  }

  // Compile quality of the workload's static code (per-component stats
  // summed by build_workload), so BENCH trajectories track the compiler
  // alongside the machine.
  Json compile = Json::object();
  compile.set("ops_per_instruction", r.compile.ops_per_instruction())
      .set("instructions", r.compile.instructions)
      .set("operations", r.compile.operations)
      .set("copies_inserted", r.compile.copies_inserted)
      .set("swp_loops", r.compile.swp_loops);

  Json point = Json::object();
  point.set("label", p.label)
      .set("workload", p.workload)
      .set("config", std::move(cfg))
      .set("sim", std::move(sim))
      .set("caches", std::move(caches));
  if (r.memory.present) point.set("memory", std::move(memory));
  point.set("merge", std::move(merge))
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

}  // namespace

Json sweep_point_json(const SweepPoint& p, const RunResult& r) {
  return point_json(p, r);
}

Json sweep_json(const std::string& experiment,
                const std::vector<SweepPoint>& points,
                const std::vector<RunResult>& results) {
  VEXSIM_CHECK(points.size() == results.size());
  Json doc = Json::object();
  doc.set("experiment", experiment);
  Json arr = Json::array();
  for (std::size_t i = 0; i < points.size(); ++i)
    arr.push(point_json(points[i], results[i]));
  doc.set("points", std::move(arr));
  return doc;
}

Json sweep_json_partial(const std::string& experiment,
                        const std::vector<SweepPoint>& points,
                        const std::vector<RunResult>& results,
                        std::size_t count) {
  VEXSIM_CHECK(points.size() == results.size());
  VEXSIM_CHECK(count <= points.size());
  Json doc = Json::object();
  doc.set("experiment", experiment);
  doc.set("partial", true);
  doc.set("points_total", static_cast<std::uint64_t>(points.size()));
  Json arr = Json::array();
  for (std::size_t i = 0; i < count; ++i)
    arr.push(point_json(points[i], results[i]));
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
  const ShardSpec shard = ShardSpec::from_cli(cli);
  const std::string path = cli.get(
      "json", shard.active
                  ? "BENCH_" + experiment + ".shard" + shard.tag() + ".json"
                  : "BENCH_" + experiment + ".json");
  SweepOptions opts = SweepOptions::from_cli(cli);
  // Write-then-rename: a reader (or a crash) mid-write never sees a
  // truncated document at the target path — in particular, a failing final
  // write must not destroy the last flushed checkpoint.
  const auto write_atomically = [&path](const Json& doc) {
    const std::string tmp = path + ".tmp";
    write_json_file(tmp, doc);
    VEXSIM_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                     "failed to move " << tmp << " over " << path);
  };

  if (!shard.active) {
    // --flush N: overwrite the target file with the completed prefix every N
    // points so a long sweep is inspectable (and partially salvageable)
    // mid-run. The completed sweep rewrites the file in its final form
    // below.
    if (opts.flush_every > 0) {
      opts.flush_fn = [&points, &experiment, &write_atomically](
                          const std::vector<RunResult>& partial,
                          std::size_t prefix) {
        write_atomically(
            sweep_json_partial(experiment, points, partial, prefix));
      };
    }
    const std::vector<RunResult> results = run_sweep(points, opts);
    write_atomically(sweep_json(experiment, points, results));
    return results;
  }

  // --shard i/N: enumerate the full manifest (identical in every shard
  // process — point lists are a pure function of the bench flags), simulate
  // only the owned round-robin slice, and emit a shard document for
  // tools/vexmerge.
  const std::vector<ManifestEntry> manifest = build_manifest(points);
  std::vector<SweepPoint> mine;
  std::vector<std::size_t> mine_index;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!shard.owns(i)) continue;
    mine.push_back(points[i]);
    mine_index.push_back(i);
  }
  const auto shard_doc = [&](const std::vector<RunResult>& rs,
                             std::size_t count, bool partial) {
    std::vector<Json> docs;
    std::vector<std::size_t> idx;
    docs.reserve(count);
    idx.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      docs.push_back(sweep_point_json(mine[k], rs[k]));
      idx.push_back(mine_index[k]);
    }
    return sweep_shard_json(experiment, shard, manifest, idx, std::move(docs),
                            partial);
  };
  if (opts.flush_every > 0) {
    opts.flush_fn = [&shard_doc, &write_atomically](
                        const std::vector<RunResult>& partial,
                        std::size_t prefix) {
      write_atomically(shard_doc(partial, prefix, true));
    };
  }
  const std::vector<RunResult> mine_results = run_sweep(mine, opts);
  write_atomically(shard_doc(mine_results, mine_results.size(), false));
  std::ostream* progress_to =
      opts.progress_stream != nullptr ? opts.progress_stream : &std::cerr;
  *progress_to << "sweep: shard " << shard.str() << " ran " << mine.size()
               << "/" << points.size() << " points -> " << path << std::endl;

  // Full-size result vector: owned slots filled, foreign slots default.
  std::vector<RunResult> results(points.size());
  for (std::size_t k = 0; k < mine.size(); ++k)
    results[mine_index[k]] = mine_results[k];
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
