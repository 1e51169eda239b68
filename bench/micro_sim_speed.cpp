// Microbenchmark A6: simulator throughput (simulated cycles and operations
// per wall-clock second) for representative configurations, tracked as a
// machine-readable trajectory so every PR's hot-path claim is measurable.
//
// Each configuration runs twice on the one cycle engine: the base leg is the
// pure cycle-by-cycle loop (fast_forward off) and the fast leg batches
// provably idle cycles arithmetically (fast_forward on). The two runs must
// produce bit-identical statistics — checked here on every invocation — so
// the speedup column is a pure wall-clock ratio at equal work.
//
// A second leg benchmarks the result cache (harness/result_cache.hpp): it
// populates a scratch cache directory with N synthetic records, then times
// the cache open, warm hits (each one opens and parses its record file,
// and is checked against the stored result) and misses (one failed open()
// each). Rates land in a top-level "cache_probe" array in the JSON —
// integer records/sec, gated by probe_floors in the perf-floor check.
//
// A third leg times the JSON layer (stats/json.hpp) on a ~300 KB trajectory:
// the three points' results rendered as sweep entries, repeated. Best-of
// dump() and Json::parse() rates land in top-level integer
// "json_dump_bytes_per_sec" and "json_parse_bytes_per_sec", gated by
// json_floors; the parsed document must dump back byte-identically.
//
// A fourth leg times the end-of-run memory digest (MainMemory::fingerprint)
// over fresh contexts of a synth:...-f1024 program (a 1 MiB pool) and of the
// llmm programs: each context is constructed, stores one word on the page
// past its program's data (where a synth program's output page lies) and
// digests its memory. The first context of each program is checked against
// a memory poked with the same bytes. Best-of rates land in top-level
// integer "digest_f1024_contexts_per_sec" and
// "digest_llmm_contexts_per_sec", gated by digest_floors.
//
// The simulator reads no clock inside its cycle loop; this bench times whole
// runs from outside. To split a run's host time by function, profile a
// build of it (README, Measuring performance).
//
// Flags: --reps N (timing repetitions, best-of), --config FILE (base
//        machine description), --mem fixed|hierarchy (memory backend),
//        --budget/--timeslice/--scale/--seed/--quick/--paper/--cc/
//        --cc-verify, --probe-records N (single cache-probe size instead of
//        the default 1k/100k pair — 1k/10k under --quick), --probe-dir DIR
//        (scratch cache directory, default sweep-probe-scratch, wiped
//        before and after), --json FILE (default BENCH_sim_speed.json).
//        Any other flag is an error, --cache included: this bench measures
//        wall-clock, so every run must re-simulate.
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "arch/thread_context.hpp"
#include "harness/experiments.hpp"
#include "harness/result_cache.hpp"
#include "harness/sweep.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "workloads/registry.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace vexsim;

struct SpeedPoint {
  std::string label;
  std::string workload;
  int threads;
  Technique technique;
};

struct SpeedResult {
  RunResult run;
  double base_seconds = 0;  // pure loop (fast_forward off)
  double fast_seconds = 0;  // fast_forward on
};

double time_once(const std::string& workload, int threads, Technique t,
                 const harness::ExperimentOptions& opt, RunResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = harness::run_workload(workload, threads, t, opt);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// `what` names the pair being compared, e.g. "fast-forward vs the pure
// loop for 2T_csmt/llmm".
void check_identical(const std::string& what, const RunResult& a,
                     const RunResult& b) {
  VEXSIM_CHECK_MSG(a.sim == b.sim && a.icache == b.icache &&
                       a.dcache == b.dcache,
                   "statistics diverge: " << what);
  VEXSIM_CHECK(a.instances.size() == b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i)
    VEXSIM_CHECK_MSG(
        a.instances[i].arch_fingerprint == b.instances[i].arch_fingerprint,
        "architectural state diverges: " << what);
}

// Distinct, well-mixed synthetic fingerprints for the cache-probe leg.
std::uint64_t probe_key(std::uint64_t i) {
  std::uint64_t z = (i + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Result-cache probe benchmark: open time and hit/miss rates, one entry per
// population size. `sample` is a RunResult to clone into every synthetic
// record; every hit must give back its statistics.
Json run_cache_probe(const std::vector<std::uint64_t>& sizes,
                     const std::string& scratch_dir,
                     const std::string& workload, const RunResult& sample) {
  namespace fs = std::filesystem;
  using clock = std::chrono::steady_clock;
  const auto seconds = [](clock::time_point a, clock::time_point b) {
    return std::max(std::chrono::duration<double>(b - a).count(), 1e-9);
  };
  // Miss keys live in a disjoint stream from probe_key(i): the top bit is
  // forced, and probe_key never produces 2^63 consecutive records.
  const auto miss_key = [](std::uint64_t j) {
    return probe_key(j + (1ull << 40)) | (1ull << 63);
  };

  Json arr = Json::array();
  for (const std::uint64_t n : sizes) {
    fs::remove_all(scratch_dir);
    {
      const harness::ResultCache writer(scratch_dir);
      for (std::uint64_t i = 0; i < n; ++i)
        writer.store(probe_key(i), workload, sample);
    }

    // Open: what every sweep process pays once at startup.
    const auto t0 = clock::now();
    const harness::ResultCache cache(scratch_dir);
    const auto t1 = clock::now();

    // Warm hits, sampled across the keyspace. The check costs little next
    // to the file read and parse it follows.
    const std::uint64_t hit_samples = std::min<std::uint64_t>(n, 200);
    const std::uint64_t stride = n / hit_samples;
    const auto t2 = clock::now();
    for (std::uint64_t s = 0; s < hit_samples; ++s) {
      const std::optional<RunResult> hit = cache.load(probe_key(s * stride));
      VEXSIM_CHECK_MSG(hit.has_value(), "cache-probe: a stored record missed");
      check_identical("a cache-probe hit vs its stored record", sample, *hit);
    }
    const auto t3 = clock::now();

    // Misses: one failed open() each.
    const std::uint64_t miss_probes = 2'000;
    const auto t4 = clock::now();
    for (std::uint64_t j = 0; j < miss_probes; ++j)
      VEXSIM_CHECK(!cache.load(miss_key(j)).has_value());
    const auto t5 = clock::now();

    // Integer rates: the perf-floor gate compares them with CMake integer
    // arithmetic, which cannot parse exponent-form doubles.
    const auto rate = [&](std::uint64_t count, double secs) {
      return static_cast<std::uint64_t>(static_cast<double>(count) / secs);
    };
    Json pj = Json::object();
    pj.set("records", n)
        .set("open_seconds", seconds(t0, t1))
        .set("hit_per_sec", rate(hit_samples, seconds(t2, t3)))
        .set("miss_per_sec", rate(miss_probes, seconds(t4, t5)));
    std::cout << "  cache-probe " << n << " records: open "
              << Table::fmt(seconds(t0, t1) * 1e3, 3) << "ms, warm hits "
              << rate(hit_samples, seconds(t2, t3)) << "/s, misses "
              << rate(miss_probes, seconds(t4, t5)) << "/s\n";
    arr.push(std::move(pj));
  }
  fs::remove_all(scratch_dir);
  return arr;
}

struct JsonRates {
  std::uint64_t bytes = 0;
  std::uint64_t dump_per_sec = 0;
  std::uint64_t parse_per_sec = 0;
};

// JSON probe: renders `points` with their results as one sweep trajectory,
// repeated until it reaches `target_bytes`, then times best-of-`reps`
// dump() and parse() of it.
JsonRates run_json_probe(const std::vector<harness::SweepPoint>& points,
                         const std::vector<RunResult>& runs,
                         std::size_t target_bytes, int reps) {
  using clock = std::chrono::steady_clock;
  const std::size_t round_bytes =
      harness::sweep_json("json_probe", points, runs).dump().size();
  const std::size_t rounds = (target_bytes + round_bytes - 1) / round_bytes;
  std::vector<harness::SweepPoint> all_points;
  std::vector<RunResult> all_runs;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      all_points.push_back(points[i]);
      all_points.back().label += "#" + std::to_string(r);
      all_runs.push_back(runs[i]);
    }
  }
  const Json doc = harness::sweep_json("json_probe", all_points, all_runs);

  double dump_s = 1e300, parse_s = 1e300;
  std::string text;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = clock::now();
    text = doc.dump();
    const auto t1 = clock::now();
    const Json back = Json::parse(text);
    const auto t2 = clock::now();
    dump_s = std::min(dump_s, std::chrono::duration<double>(t1 - t0).count());
    parse_s = std::min(parse_s, std::chrono::duration<double>(t2 - t1).count());
    if (i == 0)
      VEXSIM_CHECK_MSG(back.dump() == text,
                       "json-probe: a parsed trajectory dumps differently");
  }
  // Integer rates, for the same reason as the cache probe's.
  const auto rate = [&text](double secs) {
    return static_cast<std::uint64_t>(static_cast<double>(text.size()) /
                                      std::max(secs, 1e-9));
  };
  return {text.size(), rate(dump_s), rate(parse_s)};
}

// Context-digest probe: best-of-`reps` contexts per second, each rep
// cycling through `programs` for at least 20 ms (see the header comment).
std::uint64_t run_digest_probe(
    const std::vector<std::shared_ptr<const Program>>& programs, int reps) {
  using clock = std::chrono::steady_clock;
  std::vector<std::uint32_t> addrs;
  for (const auto& program : programs) {
    std::uint64_t end = 0;
    for (const DataSegment& seg : program->data)
      end = std::max<std::uint64_t>(end, seg.addr + seg.bytes().size());
    const std::uint64_t page = MainMemory::kPageSize;
    addrs.push_back(static_cast<std::uint32_t>(
        std::max(page, (end + page - 1) / page * page)));

    ThreadContext ctx(0, program);
    VEXSIM_CHECK(ctx.mem.store(addrs.back(), 4, addrs.back()));
    MainMemory poked;
    for (const DataSegment& seg : program->data)
      poked.poke_bytes(seg.addr, seg.bytes().data(), seg.bytes().size());
    poked.poke_u32(addrs.back(), addrs.back());
    VEXSIM_CHECK_MSG(ctx.mem.fingerprint() == poked.fingerprint(),
                     "digest-probe: " << program->name
                                      << " digests unlike its poked bytes");
  }
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    std::size_t n = 0;
    double secs = 0;
    const auto t0 = clock::now();
    do {
      const std::size_t p = n++ % programs.size();
      ThreadContext ctx(0, programs[p]);
      (void)ctx.mem.store(addrs[p], 4, addrs[p]);
      (void)ctx.mem.fingerprint();
      secs = std::chrono::duration<double>(clock::now() - t0).count();
    } while (secs < 0.02 || n < programs.size());
    best = std::max(best, static_cast<double>(n) / secs);
  }
  return static_cast<std::uint64_t>(best);  // integer, like the probe rates
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  auto opt = harness::ExperimentOptions::from_cli(cli);
  // Throughput protocol: modest budget, default timeslice — large enough to
  // amortize workload construction, small enough for a CI smoke run.
  if (!cli.has("budget")) opt.budget = cli.get_bool("quick", false)
                                           ? 30'000
                                           : 100'000;
  const int reps = cli.get_int_in(
      "reps", cli.get_bool("quick", false) ? 2 : 5, 1, INT_MAX);
  std::vector<std::uint64_t> probe_sizes;
  if (cli.has("probe-records")) {
    const std::int64_t pr = cli.get_int("probe-records", 0);
    VEXSIM_CHECK_MSG(pr >= 1, "--probe-records must be >= 1");
    probe_sizes.push_back(static_cast<std::uint64_t>(pr));
  } else if (cli.get_bool("quick", false)) {
    probe_sizes = {1'000, 10'000};
  } else {
    probe_sizes = {1'000, 100'000};
  }
  const std::string probe_dir = cli.get("probe-dir", "sweep-probe-scratch");
  const std::string json_path = cli.get("json", "BENCH_sim_speed.json");
  cli.reject_unknown();

  const std::vector<SpeedPoint> points = {
      {"2T_csmt/llmm", "llmm", 2, Technique::csmt()},
      {"4T_ccsi_AS/llmm", "llmm", 4, Technique::ccsi(CommPolicy::kAlwaysSplit)},
      {"4T_oosi_AS/hhhh", "hhhh", 4, Technique::oosi(CommPolicy::kAlwaysSplit)},
  };

  std::cout << "Simulator throughput (budget " << opt.budget << " VLIW insns, "
            << reps << " reps, best-of)\n\n";

  std::vector<SpeedResult> results;
  for (const SpeedPoint& p : points) {
    SpeedResult r;
    // Warm the memoized workload cache so timing excludes compilation.
    opt.fast_forward = true;
    (void)time_once(p.workload, p.threads, p.technique, opt, r.run);

    RunResult base_run, fast_run;
    double base = 1e300, fast = 1e300;
    for (int i = 0; i < reps; ++i) {
      opt.fast_forward = false;
      base = std::min(base,
                      time_once(p.workload, p.threads, p.technique, opt,
                                base_run));
      opt.fast_forward = true;
      fast = std::min(fast,
                      time_once(p.workload, p.threads, p.technique, opt,
                                fast_run));
    }
    check_identical("fast-forward vs the pure loop for " + p.label, base_run,
                    fast_run);
    r.run = fast_run;
    r.base_seconds = base;
    r.fast_seconds = fast;
    results.push_back(r);
  }

  Table table({"config", "cycles", "Mcycles/s base", "Mcycles/s fast",
               "Mops/s fast", "fast/base"});
  Json arr = Json::array();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SpeedPoint& p = points[i];
    const SpeedResult& r = results[i];
    const double cycles = static_cast<double>(r.run.sim.cycles);
    const double ops = static_cast<double>(r.run.sim.ops_issued);
    const double base_cps = cycles / r.base_seconds;
    const double fast_cps = cycles / r.fast_seconds;
    table.add_row({p.label, std::to_string(r.run.sim.cycles),
                   Table::fmt(base_cps / 1e6, 2), Table::fmt(fast_cps / 1e6, 2),
                   Table::fmt(ops / r.fast_seconds / 1e6, 2),
                   Table::fmt(fast_cps / base_cps, 2)});

    Json pj = Json::object();
    pj.set("label", p.label)
        .set("workload", p.workload)
        .set("threads", p.threads)
        .set("technique", p.technique.name())
        .set("cycles", r.run.sim.cycles)
        .set("ops_issued", r.run.sim.ops_issued)
        .set("wall_seconds_base", r.base_seconds)
        .set("wall_seconds_fast", r.fast_seconds)
        .set("cycles_per_sec_base", base_cps)
        .set("cycles_per_sec_fast", fast_cps)
        .set("ops_per_sec_fast", ops / r.fast_seconds)
        .set("fast_over_base", fast_cps / base_cps);
    arr.push(std::move(pj));
  }

  std::cout << "\nResult-cache probe:\n";
  Json probe_arr = run_cache_probe(probe_sizes, probe_dir, points[0].workload,
                                   results[0].run);

  std::vector<harness::SweepPoint> json_points;
  std::vector<RunResult> json_runs;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SpeedPoint& p = points[i];
    json_points.push_back({p.label, opt.machine(p.threads, p.technique),
                           p.workload, opt});
    json_runs.push_back(results[i].run);
  }
  const JsonRates json_rates =
      run_json_probe(json_points, json_runs, 300'000, 10);
  std::cout << "\nJSON probe (" << json_rates.bytes << "-byte trajectory): "
            << "dump " << Table::fmt(json_rates.dump_per_sec / 1e6, 1)
            << " MB/s, parse " << Table::fmt(json_rates.parse_per_sec / 1e6, 1)
            << " MB/s\n";

  const MachineConfig digest_cfg = opt.machine(1, Technique::smt());
  const std::uint64_t digest_f1024 = run_digest_probe(
      {wl::make_benchmark("synth:i0.5-m0.4-f1024-s7", digest_cfg, opt.scale,
                          opt.compiler)},
      reps);
  const std::uint64_t digest_llmm = run_digest_probe(
      wl::build_workload(wl::workload("llmm"), digest_cfg, opt.scale,
                         opt.compiler),
      reps);
  std::cout << "\nContext-digest probe: f1024 " << digest_f1024
            << " contexts/s, llmm " << digest_llmm << " contexts/s\n";

  Json doc = Json::object();
  doc.set("experiment", "sim_speed")
      .set("budget", opt.budget)
      .set("timeslice", opt.timeslice)
      .set("scale", opt.scale)
      .set("reps", reps)
      .set("points", std::move(arr))
      .set("cache_probe", std::move(probe_arr))
      .set("json_bytes", json_rates.bytes)
      .set("json_dump_bytes_per_sec", json_rates.dump_per_sec)
      .set("json_parse_bytes_per_sec", json_rates.parse_per_sec)
      .set("digest_f1024_contexts_per_sec", digest_f1024)
      .set("digest_llmm_contexts_per_sec", digest_llmm);
  write_json_file(json_path, std::move(doc));

  std::cout << "\n" << table.to_text();
  std::cout << "\nStats are verified bit-identical between the pure loop and "
               "fast-forward before any ratio is reported.\n";
  return 0;
}
