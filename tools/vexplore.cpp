// vexplore: design-space-exploration driver over machine/scenario
// description templates (src/mdes/dse.hpp).
//
// Loads a template declaring sampling axes ([dse]), acceptance constraints
// ([constraints]) and an axis-parameterized machine + scenario, draws N
// design points with a seeded deterministic sampler, dispatches the
// accepted points through the parallel sweep engine (with the
// content-addressed result cache when --cache is set), and writes a
// machine-readable report:
//
//   * every accepted point with its axis bindings and run statistics,
//   * the Pareto frontier of (cycles-to-halt, total issue slots) — the
//     cheapest machine at every performance level,
//   * per-axis sensitivity summaries (bucketed mean cycles / IPC), a
//     first-order view of which axis moves performance.
//
// Sampling is serial and pure in (template, --seed, index), and the report
// carries no wall-clock or scheduling artifacts, so output bytes are
// identical for any --jobs value and for cold vs warm caches. Under
// --shard i/N only the owned round-robin slice of accepted points is
// simulated and the output is a shard document (default
// VEXPLORE.shard<i>of<N>.json); tools/vexmerge folds the shards back into a
// report byte-identical to the one-process run.
//
// Exit status: 1 when an unsharded run has a point that failed under
// --timeout/--retries (after writing the report, which marks it "failed"),
// else 0. A --shard run exits 0; its shard document marks failed points.
//
// Flags: --template FILE (required), --sample N (default 64, at most
//        1,000,000), --seed S (default 7), --max-attempts M (default 32*N),
//        --json FILE (default VEXPLORE.json), --quick, --scale X,
//        --budget N, --timeslice N (override every sampled scenario),
//        --jobs N, --progress N, --cache[=DIR]/--no-cache, --timeout MS,
//        --retries N, --shard I/N, --cache-gc SIZE (sweep engine). Any
//        other flag is an error, reported before the template is loaded.
#include <algorithm>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/shard.hpp"
#include "harness/sweep.hpp"
#include "mdes/dse.hpp"
#include "stats/json.hpp"
#include "util/check.hpp"

namespace {

using namespace vexsim;

struct Sampled {
  std::uint64_t index = 0;  // draw index under --seed
  mdes::DsePoint point;
};

Json value_json(const mdes::Value& v) {
  switch (v.kind) {
    case mdes::Value::Kind::kInt: return Json(v.i);
    case mdes::Value::Kind::kDouble: return Json(v.d);
    case mdes::Value::Kind::kBool: return Json(v.b);
    case mdes::Value::Kind::kString: return Json(v.s);
  }
  return Json();
}

// Largest --sample: keeps the default --max-attempts (32 draws per point)
// far from overflow and bounds how long sampling can spin before a run.
constexpr int kMaxSample = 1'000'000;

// Scenario-level overrides shared by every sampled point; mirrors the
// bench --quick/--scale/--budget/--timeslice semantics. Read once, before
// sampling, so the flags are checked (and count as read) even when no
// point is accepted.
struct CliOverrides {
  bool quick = false;
  std::optional<double> scale;
  std::optional<std::uint64_t> budget;
  std::optional<std::uint64_t> timeslice;

  explicit CliOverrides(const Cli& cli) : quick(cli.get_bool("quick", false)) {
    if (cli.has("scale")) {
      scale = cli.get_double("scale", 0.0);
      VEXSIM_CHECK_MSG(*scale > 0.0, "--scale must be > 0, got " << *scale);
    }
    if (cli.has("budget")) budget = cli.get_positive("budget", 1);
    if (cli.has("timeslice")) timeslice = cli.get_positive("timeslice", 1);
  }

  void apply(harness::ExperimentOptions& opt) const {
    if (quick) {
      opt.scale = std::min(opt.scale, 0.05);
      opt.budget = std::min<std::uint64_t>(opt.budget, 20'000);
      opt.timeslice = std::min<std::uint64_t>(opt.timeslice, 10'000);
    }
    if (scale) opt.scale = *scale;
    if (budget) opt.budget = *budget;
    if (timeslice) opt.timeslice = *timeslice;
  }
};

// Deterministic bucket label for an axis value: choice and narrow int axes
// bucket per value, wide int and real axes into 4 equal-width bins.
std::string bucket_of(const mdes::DseAxis& axis, const mdes::Value& v) {
  switch (axis.kind) {
    case mdes::DseAxis::Kind::kChoice: return v.str();
    case mdes::DseAxis::Kind::kInt: {
      const std::int64_t span = axis.ihi - axis.ilo + 1;
      if (span <= 8) return v.str();
      const std::int64_t width = (span + 3) / 4;
      const std::int64_t bin = (v.i - axis.ilo) / width;
      const std::int64_t lo = axis.ilo + bin * width;
      return "[" + std::to_string(lo) + ".." +
             std::to_string(std::min(axis.ihi, lo + width - 1)) + "]";
    }
    case mdes::DseAxis::Kind::kReal: {
      const double width = (axis.rhi - axis.rlo) / 4.0;
      int bin = width > 0.0
                    ? static_cast<int>((v.as_double() - axis.rlo) / width)
                    : 0;
      bin = std::clamp(bin, 0, 3);
      return "[" + mdes::format_double(axis.rlo + bin * width) + ".." +
             mdes::format_double(axis.rlo + (bin + 1) * width) + ")";
    }
  }
  return v.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  VEXSIM_CHECK_MSG(cli.has("template"),
                   "vexplore needs --template FILE (see configs/)");
  const std::string template_path = cli.get("template", "");
  const std::int64_t sample_arg = cli.get_int_in("sample", 64, 1, kMaxSample);
  const auto sample = static_cast<std::uint64_t>(sample_arg);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const std::int64_t attempts_arg =
      cli.get_int("max-attempts", 32 * sample_arg);
  VEXSIM_CHECK_MSG(attempts_arg >= sample_arg,
                   "--max-attempts must be >= --sample");
  const auto max_attempts = static_cast<std::uint64_t>(attempts_arg);
  const CliOverrides overrides(cli);
  const harness::SweepOptions sweep_opts =
      harness::SweepOptions::from_cli(cli);
  const harness::ShardSpec& shard = sweep_opts.shard;
  const std::string out_path = cli.get(
      "json", shard.active ? "VEXPLORE.shard" + shard.tag() + ".json"
                           : "VEXPLORE.json");
  cli.reject_unknown();

  const mdes::DseTemplate tmpl = mdes::load_template(template_path);

  // Serial sampling keeps the accepted set a pure function of
  // (template, seed): rejected draws burn their index and the next draw
  // proceeds, independent of --jobs.
  std::vector<Sampled> accepted;
  std::map<std::string, std::uint64_t> rejected;
  std::uint64_t attempts = 0;
  while (accepted.size() < sample && attempts < max_attempts) {
    const std::uint64_t index = attempts++;
    mdes::DsePoint p = mdes::sample_point(tmpl, seed, index);
    if (!p.ok) {
      ++rejected[p.reject_reason];
      continue;
    }
    accepted.push_back({index, std::move(p)});
  }
  std::uint64_t rejected_total = 0;
  for (const auto& [reason, n] : rejected) rejected_total += n;
  std::cout << "vexplore: " << accepted.size() << "/" << sample
            << " points accepted (" << attempts << " draws, "
            << rejected_total << " rejected)\n";

  std::vector<harness::SweepPoint> points;
  points.reserve(accepted.size());
  for (const Sampled& s : accepted) {
    harness::ExperimentOptions opt = s.point.scenario.opt;
    overrides.apply(opt);
    points.push_back({"p" + std::to_string(s.index) + "/" +
                          s.point.machine.geometry_name() + "/" +
                          std::to_string(s.point.machine.hw_threads) + "T/" +
                          s.point.machine.technique.name(),
                      s.point.machine, s.point.scenario.workload, opt});
  }

  // Everything below is a pure function of (template, seed, flags), so every
  // shard process assembles the identical header, axis list, and per-point
  // sensitivity bucket labels — dse_report then reproduces the one-process
  // report from any complete set of shards.
  Json header = Json::object();
  header.set("experiment", "vexplore")
      .set("template", template_path)
      .set("seed", seed)
      .set("requested", sample)
      .set("attempts", attempts)
      .set("accepted", static_cast<std::uint64_t>(accepted.size()));
  Json rejects = Json::object();
  for (const auto& [reason, n] : rejected) rejects.set(reason, n);
  header.set("rejected", std::move(rejects));

  std::vector<std::string> axes;
  for (const mdes::DseAxis& axis : tmpl.axes) axes.push_back(axis.name);
  std::vector<std::vector<std::string>> buckets(accepted.size());
  for (std::size_t i = 0; i < accepted.size(); ++i)
    for (std::size_t a = 0; a < tmpl.axes.size(); ++a)
      buckets[i].push_back(
          bucket_of(tmpl.axes[a], accepted[i].point.bindings[a].second));

  const auto make_point_doc = [&](std::size_t i, const RunResult& r) {
    const Sampled& s = accepted[i];
    Json bindings = Json::object();
    for (const auto& [name, value] : s.point.bindings)
      bindings.set(name, value_json(value));
    Json pj = Json::object();
    pj.set("label", points[i].label)
        .set("bindings", std::move(bindings))
        .set("geometry", s.point.machine.geometry_name())
        .set("clusters", s.point.machine.clusters)
        .set("threads", s.point.machine.hw_threads)
        .set("technique", s.point.machine.technique.name())
        .set("total_issue", s.point.machine.total_issue_width())
        .set("workload", points[i].workload);
    if (r.failed) {
      pj.set("failed", true).set("error", r.error);
    } else {
      pj.set("cycles", r.sim.cycles)
          .set("instructions", r.sim.instructions_retired)
          .set("ipc", r.ipc());
    }
    return pj;
  };

  // run_sweep runs only the owned round-robin slice under --shard i/N (all
  // points otherwise); the documents below cover exactly that slice.
  const std::vector<RunResult> results = harness::run_sweep(points, sweep_opts);
  std::vector<std::size_t> indices;
  std::vector<Json> point_docs;
  std::vector<std::vector<std::string>> owned_buckets;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!shard.owns(i)) continue;
    indices.push_back(i);
    point_docs.push_back(make_point_doc(i, results[i]));
    owned_buckets.push_back(buckets[i]);
  }

  if (!shard.active) {
    const Json report = harness::dse_report(header, axes,
                                            std::move(point_docs),
                                            owned_buckets);
    write_json_file(out_path, report);
    std::cout << "vexplore: frontier " << report.at("pareto").size() << " of "
              << accepted.size() << " points; report in " << out_path << "\n";
    // A failed point has no statistics, so the frontier and sensitivities
    // above leave it out; exit 1 so a script notices.
    const std::size_t failed = harness::failed_points(results);
    if (failed == 0) return 0;
    std::cout << "vexplore: " << failed << "/" << results.size()
              << " points failed; the report marks them \"failed\"\n";
    return 1;
  }

  const Json doc = harness::dse_shard_json(
      "vexplore", shard, header, axes, harness::build_manifest(points),
      indices, std::move(point_docs), owned_buckets);
  write_json_file(out_path, doc);
  std::cout << "vexplore: shard " << shard.str() << " ran " << indices.size()
            << "/" << accepted.size()
            << " accepted points; shard document in " << out_path << "\n";
  return 0;
}
