// The traced run: a point-by-point replay of a workload that makes the
// calls run_sweep and run_workload_on make, with a span around each, and
// the per-layer report computed from those spans. Spans are recorded from
// here, around the public calls into each layer; src/ is not instrumented.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "harness/result_cache.hpp"
#include "sim/driver.hpp"
#include "stats/json.hpp"
#include "vexperf.hpp"
#include "wl_synth/spec.hpp"
#include "workloads/workloads.hpp"

namespace vexperf {

namespace {

using vexsim::RunResult;
using vexsim::harness::SweepPoint;

// Records nested spans into a vector; a Scope opens one for its lifetime.
class Tracer {
 public:
  explicit Tracer(std::vector<Span>& spans) : spans_(spans) {}

  class Scope {
   public:
    Scope(Tracer& t, const char* name, int point)
        : t_(t), id_(t.open(name, point)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

 private:
  int open(const char* name, int point) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.point = point;
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    spans_.back().start = Clock::now();
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    stack_.pop_back();
  }

  std::vector<Span>& spans_;
  std::vector<int> stack_;
};

// What keys the workload memo (workloads/registry.cpp): the component's
// canonical name, every geometry and latency field the compiler reads, the
// scale, and the effective compiler options.
std::string memo_key(const std::string& component, const SweepPoint& p) {
  std::string name = component;
  vexsim::cc::CompilerOptions compiler = p.opt.compiler;
  if (vexsim::wl_synth::is_synth_name(component)) {
    const vexsim::wl_synth::SynthSpec spec =
        vexsim::wl_synth::parse_spec(component);
    name = spec.name();
    if (spec.has_compiler) compiler = spec.compiler;
  }
  std::ostringstream key;
  key << name << "/" << p.cfg.clusters << ":";
  for (int c = 0; c < p.cfg.clusters; ++c) {
    const vexsim::ClusterResourceConfig& res = p.cfg.cluster_at(c);
    key << res.issue_slots << "a" << res.alus << "m" << res.muls << "p"
        << res.mem_units << "b" << res.branch_units << ",";
  }
  const vexsim::LatencyConfig& lat = p.cfg.lat;
  key << p.cfg.branch_on_cluster0_only << "/L" << lat.alu << "." << lat.mul
      << "." << lat.mem << "." << lat.comm << "." << lat.cmp_to_branch << "."
      << lat.taken_branch_penalty << "/" << p.opt.scale << "/"
      << compiler.name() << ":" << compiler.max_ii << ":"
      << compiler.max_stages;
  return key.str();
}

// Same parameters as harness::run_workload_on.
vexsim::DriverParams driver_params(const SweepPoint& p) {
  vexsim::DriverParams params;
  params.timeslice = p.opt.timeslice;
  params.budget = p.opt.budget;
  params.max_cycles = p.opt.max_cycles;
  params.seed = p.opt.seed;
  params.respawn = true;
  params.fast_forward = p.opt.fast_forward;
  params.fused = p.opt.fused;
  params.profile = p.opt.profile;
  return params;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Replay traced_replay(const Workload& w, const std::string& cold_cache_dir) {
  Replay rep;
  const std::size_t n = w.points.size();
  rep.results.resize(n);
  rep.point_compiled.assign(n, 0);
  rep.point_hit.assign(n, 0);
  rep.spans.reserve(10 * n + 8);  // no reallocation inside the window
  Tracer tracer(rep.spans);
  using Scope = Tracer::Scope;
  const std::string cache_dir =
      w.cold_cache ? cold_cache_dir : w.warm_cache_dir;

  rep.start = Clock::now();
  std::unique_ptr<vexsim::harness::ResultCache> cache;
  if (!cache_dir.empty()) {
    const Scope s(tracer, "harness.index_load", -1);
    cache = std::make_unique<vexsim::harness::ResultCache>(cache_dir);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const SweepPoint& p = w.points[i];
    const int id = static_cast<int>(i);
    const Scope point(tracer, "harness.point", id);
    RunResult r;
    try {
      std::uint64_t key = 0;
      std::optional<RunResult> hit;
      if (cache != nullptr) {
        {
          const Scope s(tracer, "harness.fingerprint", id);
          key = vexsim::harness::point_fingerprint(p.cfg, p.workload, p.opt);
        }
        const Scope s(tracer, "harness.cache_load", id);
        hit = cache->load(key);
      }
      if (hit) {
        r = std::move(*hit);
        rep.point_hit[i] = 1;
      } else {
        vexsim::wl::WorkloadSpec spec;
        {
          const Scope s(tracer, "wl.workload", id);
          spec = vexsim::wl::workload(p.workload);
        }
        vexsim::CompileSummary compile;
        std::vector<std::shared_ptr<const vexsim::Program>> programs;
        {
          const Scope s(tracer, "wl.build_workload", id);
          programs = vexsim::wl::build_workload(spec, p.cfg, p.opt.scale,
                                                p.opt.compiler, &compile);
        }
        std::optional<vexsim::MultiprogramDriver> driver;
        {
          const Scope s(tracer, "sim.driver_init", id);
          driver.emplace(p.cfg, std::move(programs), driver_params(p));
        }
        {
          const Scope s(tracer, "sim.run", id);
          r = driver->run();
        }
        r.compile = compile;
        if (cache != nullptr) {
          r.cached = true;
          const Scope s(tracer, "harness.cache_store", id);
          cache->store(key, p.workload, r);
        }
      }
    } catch (const std::exception& e) {
      r = RunResult{};
      r.failed = true;
      r.error = e.what();
    }
    rep.results[i] = std::move(r);
  }
  {
    const Scope s(tracer, "harness.sweep_json", -1);
    rep.trajectory =
        vexsim::harness::sweep_json(w.name, w.points, rep.results).dump();
  }
  if (!w.warm_cache_dir.empty()) {
    const Scope s(tracer, "harness.merge", -1);
    rep.merged = split_and_merge(w.name, w.points, rep.results);
  }
  rep.end = Clock::now();
  rep.docs = point_docs(w.points, rep.results);

  // Memo bookkeeping after the window, in point order: a component lookup
  // misses the first time its memo key is seen in this process.
  std::set<std::string> memo;
  for (std::size_t i = 0; i < n; ++i) {
    if (rep.point_hit[i] != 0 || rep.results[i].failed) continue;
    const SweepPoint& p = w.points[i];
    for (const std::string& c : vexsim::wl::workload(p.workload).benchmarks) {
      ++rep.memo_lookups;
      if (memo.insert(memo_key(c, p)).second) {
        ++rep.memo_misses;
        rep.point_compiled[i] = 1;
      }
    }
  }
  return rep;
}

void write_spans(const std::string& path, const Replay& replay) {
  using vexsim::Json;
  const auto ns = [&replay](Clock::time_point t) {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - replay.start)
            .count());
  };
  Json spans = Json::array();
  for (const Span& s : replay.spans) {
    Json j = Json::object();
    j.set("name", s.name)
        .set("start_ns", ns(s.start))
        .set("end_ns", ns(s.end))
        .set("parent", s.parent)
        .set("point", s.point);
    spans.push(std::move(j));
  }
  Json doc = Json::object();
  doc.set("wall_ns", ns(replay.end)).set("spans", std::move(spans));
  vexsim::write_json_file(path, doc);
}

std::vector<Metric> layer_metrics(const Workload& w, const Replay& rep,
                                  const UntracedFigures& u) {
  std::map<std::string, double> total;        // seconds per span name
  std::map<std::string, std::uint64_t> count;  // spans per name
  std::map<std::string, double> self_by_layer;
  std::vector<double> child_time(rep.spans.size(), 0.0);
  for (const Span& s : rep.spans)
    if (s.parent >= 0)
      child_time[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start, s.end);
  double covered = 0.0;
  double compile_s = 0.0;
  double hit_s = 0.0;
  std::vector<double> point_run_s;
  double fixed_run_s = 0.0;
  double hier_run_s = 0.0;
  for (std::size_t k = 0; k < rep.spans.size(); ++k) {
    const Span& s = rep.spans[k];
    const std::string name = s.name;
    const double d = seconds_between(s.start, s.end);
    total[name] += d;
    ++count[name];
    self_by_layer[name.substr(0, name.find('.'))] += d - child_time[k];
    if (s.parent < 0) covered += d;
    const auto p = static_cast<std::size_t>(s.point);
    if (name == "wl.build_workload" && rep.point_compiled[p] != 0)
      compile_s += d;
    if (name == "harness.cache_load" && rep.point_hit[p] != 0) hit_s += d;
    if (name == "sim.run") {
      point_run_s.push_back(d);
      (rep.results[p].memory.present ? hier_run_s : fixed_run_s) += d;
    }
  }

  // Simulated counts, over the points this replay simulated.
  std::uint64_t cycles = 0, ops = 0, fixed_cycles = 0, hier_cycles = 0;
  std::uint64_t full = 0, partial = 0, blocked = 0, split = 0;
  std::uint64_t backend_calls = 0, mshr_merges = 0, mshr_misses = 0;
  std::uint64_t full_stalls = 0, l2_hits = 0, l2_accesses = 0;
  std::uint64_t row_hits = 0, dram_accesses = 0;
  std::uint64_t static_ops = 0, static_insns = 0, copies = 0, hits = 0;
  for (std::size_t i = 0; i < rep.results.size(); ++i) {
    const RunResult& r = rep.results[i];
    static_ops += r.compile.operations;
    static_insns += r.compile.instructions;
    copies += r.compile.copies_inserted;
    if (rep.point_hit[i] != 0) {
      ++hits;
      continue;
    }
    cycles += r.sim.cycles;
    ops += r.sim.ops_issued;
    split += r.sim.split_instructions;
    full += r.merge.full_selections;
    partial += r.merge.partial_selections;
    blocked += r.merge.blocked_selections;
    if (!r.memory.present) {
      fixed_cycles += r.sim.cycles;
      continue;
    }
    hier_cycles += r.sim.cycles;
    const vexsim::mem::MemoryStats& m = r.memory;
    backend_calls += r.icache.misses + r.dcache.misses;
    mshr_merges += m.imshr.merges + m.dmshr.merges;
    mshr_misses += m.imshr.merges + m.dmshr.merges + m.imshr.allocations +
                   m.dmshr.allocations;
    full_stalls += m.imshr.full_stalls + m.dmshr.full_stalls;
    l2_hits += m.l2.hits;
    l2_accesses += m.l2.accesses();
    row_hits += m.dram.row_hits;
    dram_accesses += m.dram.accesses();
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double run_s = total["sim.run"];
  const double selections = d(full + partial + blocked);
  const double wall = seconds_between(rep.start, rep.end);
  const double loads = d(count["harness.cache_load"]);

  return {
      {"mdes.sample_s", w.sample_s, "s"},
      {"mdes.accept_ratio", ratio(d(w.accepted), d(w.draws)), "ratio"},
      {"cc.compile_s", compile_s, "s"},
      {"cc.programs", d(rep.memo_misses), "count"},
      {"wl.memo_hit_ratio",
       ratio(d(rep.memo_lookups - rep.memo_misses), d(rep.memo_lookups)),
       "ratio"},
      {"cc.ops_per_insn", ratio(d(static_ops), d(static_insns)), "ops/insn"},
      {"cc.copies", d(copies), "count"},
      {"sim.run_s", run_s, "s"},
      {"sim.ns_per_cycle", 1e9 * ratio(run_s, d(cycles)), "ns/cycle"},
      {"sim.point_s_p50", quantile(point_run_s, 0.5), "s"},
      {"sim.point_s_p90", quantile(point_run_s, 0.9), "s"},
      {"sim.point_s_max", quantile(point_run_s, 1.0), "s"},
      {"sim.cycles", d(cycles), "cycles"},
      {"sim.ops_issued", d(ops), "ops"},
      {"sim.ipc", ratio(d(ops), d(cycles)), "ops/cycle"},
      {"core.selections", selections, "count"},
      {"core.partial_ratio", ratio(d(partial), selections), "ratio"},
      {"core.split_instructions", d(split), "count"},
      {"core.ns_per_selection", 1e9 * ratio(run_s, selections), "ns"},
      {"mem.backend_calls", d(backend_calls), "count"},
      {"mem.mshr_merge_ratio", ratio(d(mshr_merges), d(mshr_misses)),
       "ratio"},
      {"mem.mshr_full_stalls", d(full_stalls), "count"},
      {"mem.l2_hit_ratio", ratio(d(l2_hits), d(l2_accesses)), "ratio"},
      {"mem.dram_row_hit_ratio", ratio(d(row_hits), d(dram_accesses)),
       "ratio"},
      {"mem.ns_per_cycle_fixed", 1e9 * ratio(fixed_run_s, d(fixed_cycles)),
       "ns/cycle"},
      {"mem.ns_per_cycle_hier", 1e9 * ratio(hier_run_s, d(hier_cycles)),
       "ns/cycle"},
      {"harness.fingerprint_us",
       1e6 * ratio(total["harness.fingerprint"],
                   d(count["harness.fingerprint"])),
       "us"},
      {"harness.index_load_s", total["harness.index_load"], "s"},
      {"harness.hit_us", 1e6 * ratio(hit_s, d(hits)), "us"},
      {"harness.store_us",
       1e6 * ratio(total["harness.cache_store"],
                   d(count["harness.cache_store"])),
       "us"},
      {"harness.cache_hit_ratio", ratio(d(hits), loads), "ratio"},
      {"harness.json_s", total["harness.sweep_json"], "s"},
      {"harness.merge_s", total["harness.merge"], "s"},
      {"harness.par_efficiency",
       ratio(u.points_per_s_par, u.jobs_par * u.points_per_s), "ratio"},
      {"harness.sweep_overhead_s", u.serial_wall_s - run_s, "s"},
      {"trace.wall_s", wall, "s"},
      {"trace.self_s.harness", self_by_layer["harness"], "s"},
      {"trace.self_s.wl", self_by_layer["wl"], "s"},
      {"trace.self_s.sim", self_by_layer["sim"], "s"},
      {"trace.uncovered_s", wall - covered, "s"},
      // The replay compiles on a cold workload memo while the untraced
      // pass it is compared with runs warm, so compile time is set aside.
      {"trace.overhead", ratio(wall - compile_s, u.serial_wall_s) - 1.0,
       "ratio"},
  };
}

}  // namespace vexperf
