// Output checks: every pass's trajectory is compared point by point against
// a reference, the paper_mix points shared with the fig14 golden are
// compared against it, and the 4-way shard merge must reproduce sweep_json.
#include <fstream>
#include <map>
#include <sstream>

#include "harness/shard.hpp"
#include "stats/json.hpp"
#include "util/check.hpp"
#include "vexperf.hpp"

namespace vexperf {

using vexsim::Json;
using vexsim::RunResult;
using vexsim::harness::SweepPoint;

std::vector<std::string> point_docs(const std::vector<SweepPoint>& points,
                                    const std::vector<RunResult>& results) {
  std::vector<std::string> docs;
  docs.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    docs.push_back(vexsim::harness::sweep_point_json(points[i], results[i])
                       .dump());
  return docs;
}

std::size_t count_invalid(const std::vector<SweepPoint>& points,
                          const std::vector<RunResult>& results) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RunResult& r = results[i];
    bool ok = !r.failed && r.sim.cycles > 0 && r.sim.faults == 0 &&
              !r.instances.empty() &&
              r.sim.ops_issued <= r.sim.cycles * static_cast<std::uint64_t>(
                                                     r.issue_width);
    for (const vexsim::InstanceResult& inst : r.instances)
      ok = ok && !inst.faulted;
    if (!ok) ++bad;
  }
  return bad;
}

std::size_t count_mismatches(const std::vector<std::string>& docs,
                             const std::vector<std::string>& reference) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < docs.size(); ++i)
    if (i >= reference.size() || docs[i] != reference[i]) ++bad;
  return bad + (reference.size() > docs.size()
                    ? reference.size() - docs.size()
                    : 0);
}

std::size_t count_golden_mismatches(const std::string& golden_path,
                                    const std::vector<SweepPoint>& points,
                                    const std::vector<std::string>& docs,
                                    std::size_t& compared) {
  std::ifstream in(golden_path);
  VEXSIM_CHECK_MSG(in, "cannot read golden trajectory " << golden_path);
  std::stringstream text;
  text << in.rdbuf();
  const Json golden = Json::parse(text.str());

  // Golden points are labelled "<mix>/<technique>/<N>T"; paper_mix points
  // "<technique>/<N>T/<mix>". Match on (mix, technique, threads).
  std::map<std::string, std::size_t> mine;
  for (std::size_t i = 0; i < points.size(); ++i)
    mine[points[i].workload + "|" + points[i].cfg.technique.name() + "|" +
         std::to_string(points[i].cfg.hw_threads)] = i;
  const Json& gpoints = golden.at("points");
  std::size_t bad = 0;
  compared = 0;
  for (std::size_t g = 0; g < gpoints.size(); ++g) {
    const Json& gp = gpoints.at(g);
    const Json& gcfg = gp.at("config");
    const auto it =
        mine.find(gp.at("workload").as_string() + "|" +
                  gcfg.at("technique").as_string() + "|" +
                  std::to_string(gcfg.at("threads").as_int64()));
    ++compared;
    if (it == mine.end()) {
      ++bad;
      continue;
    }
    Json relabelled = Json::parse(docs[it->second]);
    relabelled.set("label", gp.at("label"));
    if (relabelled.dump() != gp.dump()) ++bad;
  }
  return bad;
}

std::string split_and_merge(const std::string& experiment,
                            const std::vector<SweepPoint>& points,
                            const std::vector<RunResult>& results) {
  constexpr int kShards = 4;
  const std::vector<vexsim::harness::ManifestEntry> manifest =
      vexsim::harness::build_manifest(points);
  std::vector<Json> shard_docs;
  std::vector<std::string> names;
  for (int s = 1; s <= kShards; ++s) {
    vexsim::harness::ShardSpec spec;
    spec.index = s;
    spec.count = kShards;
    spec.active = true;
    std::vector<std::size_t> indices;
    std::vector<Json> docs;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!spec.owns(i)) continue;
      indices.push_back(i);
      docs.push_back(vexsim::harness::sweep_point_json(points[i], results[i]));
    }
    // Through the text form, as vexmerge reads shard files.
    shard_docs.push_back(Json::parse(
        vexsim::harness::sweep_shard_json(experiment, spec, manifest, indices,
                                          docs, false)
            .dump()));
    names.push_back("shard" + spec.tag());
  }
  const vexsim::harness::MergeOutcome out =
      vexsim::harness::merge_shards(shard_docs, names);
  return out.complete ? out.merged.dump() : std::string();
}

}  // namespace vexperf
