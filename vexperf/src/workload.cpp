// Workload generation: the point lists each vexperf workload sweeps.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "harness/experiments.hpp"
#include "mdes/dse.hpp"
#include "stats/table.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "vexperf.hpp"
#include "workloads/workloads.hpp"

namespace vexperf {

namespace {

using vexsim::RunResult;
using vexsim::Technique;
using vexsim::harness::ExperimentOptions;
using vexsim::harness::SweepPoint;

// warm_rerun fills its cache at this budget: the cost of a cache hit does
// not depend on how long the point simulated.
constexpr std::uint64_t kWarmBudget = 2'000;

std::string paper_label(const Technique& t, int threads,
                        const std::string& mix) {
  return t.name() + "/" + std::to_string(threads) + "T/" + mix;
}

// The fig16_absolute_ipc --quick point set: 8 techniques x 2T/4T x the
// nine Fig. 13(b) mixes on the paper machine, at the bench default
// simulation seed (the one the fig14 golden pins), in an order shuffled by
// `seed`. The seed moves the sweep order, and with it which points run side
// by side at --jobs N, but not the simulated work, so every seed reproduces
// the figure and is checked against the golden.
std::vector<SweepPoint> paper_points(std::uint64_t seed,
                                     std::uint64_t budget) {
  ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 80'000;
  opt.timeslice = 40'000;
  if (budget > 0) {
    opt.budget = budget;
    opt.timeslice = std::max<std::uint64_t>(1, budget / 2);
  }
  std::vector<SweepPoint> points;
  for (const Technique& t : Technique::kAll)
    for (const int threads : {2, 4})
      for (const vexsim::wl::WorkloadSpec& spec :
           vexsim::wl::paper_workloads())
        points.push_back({paper_label(t, threads, spec.name),
                          opt.machine(threads, t), spec.name, opt});
  vexsim::Rng rng(seed);
  for (std::size_t i = points.size() - 1; i > 0; --i)
    std::swap(points[i], points[rng.next_u64() % (i + 1)]);
  return points;
}

// Template axes assigned round-robin over the accepted points instead of
// drawn: every seed then runs each combination of them equally often
// (kDesignSamples is a multiple of the 54 combinations), so the memory
// behaviour and the bulk of the host cost per point, which grows with the
// context count, do not move with the seed. The remaining axes are drawn.
// The last axis varies fastest, so even a short run mixes the memory axes.
const char* const kStrata[] = {"technique", "threads", "footprint", "membk"};

// One copy of the template per combination of the stratum axes' values,
// each with those axes narrowed to a single choice.
std::vector<vexsim::mdes::DseTemplate> stratified(
    const vexsim::mdes::DseTemplate& tmpl) {
  std::vector<vexsim::mdes::DseTemplate> out{tmpl};
  for (const std::string name : kStrata) {
    std::vector<vexsim::mdes::DseTemplate> next;
    for (const vexsim::mdes::DseTemplate& t : out) {
      const auto axis = std::find_if(
          t.axes.begin(), t.axes.end(),
          [&name](const vexsim::mdes::DseAxis& a) { return a.name == name; });
      VEXSIM_CHECK_MSG(axis != t.axes.end() &&
                           axis->kind == vexsim::mdes::DseAxis::Kind::kChoice,
                       "design_space template needs a choice() axis '"
                           << name << "'");
      const auto k = static_cast<std::size_t>(axis - t.axes.begin());
      for (const vexsim::mdes::Value& v : axis->choices) {
        vexsim::mdes::DseTemplate narrowed = t;
        narrowed.axes[k].choices = {v};
        next.push_back(std::move(narrowed));
      }
    }
    out = std::move(next);
  }
  return out;
}

// vexplore-style sampling: accepted draws of stream --seed, labelled the
// way vexplore labels them, with the stratum axes assigned round-robin.
std::vector<SweepPoint> design_points(const Config& cfg, Workload& w) {
  const Clock::time_point t0 = Clock::now();
  const std::vector<vexsim::mdes::DseTemplate> strata =
      stratified(vexsim::mdes::load_template(cfg.template_path));
  const auto wanted = static_cast<std::uint64_t>(kDesignSamples);
  const std::uint64_t max_draws = 32 * wanted;
  std::vector<SweepPoint> points;
  std::uint64_t draws = 0;
  while (points.size() < wanted && draws < max_draws) {
    const std::uint64_t index = draws++;
    vexsim::mdes::DsePoint p = vexsim::mdes::sample_point(
        strata[points.size() % strata.size()], cfg.seed, index);
    if (!p.ok) continue;
    ExperimentOptions opt = p.scenario.opt;
    if (cfg.budget > 0) {
      opt.budget = cfg.budget;
      opt.timeslice = std::max<std::uint64_t>(1, cfg.budget / 2);
    }
    points.push_back({"p" + std::to_string(index) + "/" +
                          p.machine.geometry_name() + "/" +
                          std::to_string(p.machine.hw_threads) + "T/" +
                          p.machine.technique.name(),
                      p.machine, p.scenario.workload, opt});
  }
  VEXSIM_CHECK_MSG(points.size() == wanted,
                   "design_space: only " << points.size() << " of " << wanted
                                         << " draws accepted");
  w.sample_s += seconds_between(t0, Clock::now());
  w.draws += draws;
  w.accepted += points.size();
  return points;
}

void build_programs_of(const std::vector<SweepPoint>& points) {
  for (const SweepPoint& p : points)
    (void)vexsim::wl::build_workload(vexsim::wl::workload(p.workload), p.cfg,
                                     p.opt.scale, p.opt.compiler);
}

}  // namespace

Workload make_workload(const Config& cfg, const std::string& scratch,
                       bool build_programs) {
  const Clock::time_point t0 = Clock::now();
  Workload w;
  w.name = cfg.workload;
  if (cfg.workload == "paper_mix") {
    w.points = paper_points(cfg.seed, cfg.budget);
    w.round_s = 9.0;
  } else if (cfg.workload == "design_space") {
    w.points = design_points(cfg, w);
    w.round_s = 9.0;
    w.cold_cache = true;
  } else if (cfg.workload == "warm_rerun") {
    const std::uint64_t budget = cfg.budget > 0 ? cfg.budget : kWarmBudget;
    w.points = paper_points(cfg.seed, budget);
    Config design = cfg;
    design.budget = budget;
    for (SweepPoint& p : design_points(design, w))
      w.points.push_back(std::move(p));
    // Filling the cache builds every program on the way.
    w.round_s = 0.15;
    w.warm_cache_dir = scratch + "/warm-cache";
    vexsim::harness::SweepOptions fill;
    fill.jobs = 1;
    fill.cache_dir = w.warm_cache_dir;
    std::ostream quiet(nullptr);
    fill.progress_stream = &quiet;
    const std::vector<RunResult> results =
        vexsim::harness::run_sweep(w.points, fill);
    w.fill_docs = point_docs(w.points, results);
  } else {
    VEXSIM_CHECK_MSG(false, "unknown workload '"
                                << cfg.workload
                                << "': valid names are paper_mix, "
                                   "design_space, warm_rerun");
  }
  if (build_programs && w.warm_cache_dir.empty()) build_programs_of(w.points);
  w.setup_s = seconds_between(t0, Clock::now());
  return w;
}

double paper_error_pp(const std::vector<SweepPoint>& points,
                      const std::vector<RunResult>& results) {
  using vexsim::CommPolicy;
  const auto avg_speedup = [&](const Technique& t, const Technique& base,
                               int threads) {
    std::vector<double> s;
    for (const vexsim::wl::WorkloadSpec& spec : vexsim::wl::paper_workloads())
      s.push_back(vexsim::speedup(
          vexsim::harness::result_for(points, results,
                                      paper_label(t, threads, spec.name))
              .ipc(),
          vexsim::harness::result_for(points, results,
                                      paper_label(base, threads, spec.name))
              .ipc()));
    return 100.0 * vexsim::mean(s);
  };
  // Fig. 14 (CCSI over CSMT) and Fig. 15 (COSI, OOSI over SMT) averages,
  // in the order 2T NS, 2T AS, 4T NS, 4T AS.
  const struct {
    Technique (*make)(CommPolicy);
    Technique base;
    double paper[4];
  } kFigures[] = {
      {&Technique::ccsi, Technique::csmt(), {6.1, 8.7, 3.5, 7.5}},
      {&Technique::cosi, Technique::smt(), {7.5, 9.8, 6.4, 9.4}},
      {&Technique::oosi, Technique::smt(), {8.2, 13.0, 7.9, 15.7}},
  };
  double err = 0.0;
  int n = 0;
  for (const auto& fig : kFigures) {
    int col = 0;
    for (const int threads : {2, 4})
      for (const CommPolicy comm :
           {CommPolicy::kNoSplit, CommPolicy::kAlwaysSplit}) {
        err += std::abs(avg_speedup(fig.make(comm), fig.base, threads) -
                        fig.paper[col++]);
        ++n;
      }
  }
  return err / n;
}

}  // namespace vexperf
