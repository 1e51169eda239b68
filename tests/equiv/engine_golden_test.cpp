// Engine golden trajectory: the cycle engine's statistics over a matrix of
// techniques, geometries, workloads and memory backends, frozen in
// tests/golden/engine_matrix.golden.json.
//
// The golden was frozen while the simulator still carried two select/execute
// engines (a reference packet engine beside the fused one); both produced
// this document byte for byte. It now pins the single engine to that shared
// trajectory. The document is harness::sweep_json, so every counter the
// trajectory serializes is covered: sim, icache/dcache, hierarchy memory,
// merge, and per-instance retired instructions, architectural fingerprint and
// fault flag.
//
// The trajectory carries no per-thread counters, so a sidecar,
// tests/golden/engine_matrix_counters.golden.json, pins each point's
// per-instance ThreadCounters (retired instructions and operations, taken
// branches, split instructions, D-miss and I-miss block cycles). Without it,
// the block counters are held only by the agreement of the stepped and the
// fast-forwarded engine, which a fault shared by both would keep.
//
// Matrix (67 points, small budgets; the short timeslice forces drains and
// context switches inside the budget, so those paths are covered too):
//  * all eight techniques × {symmetric 4x4, asymmetric 8+4+2+2,
//    configs/asym8422.conf} × two synth: mixes, at 2T;
//  * 4T CCSI AS with fast_forward off on the symmetric and asymmetric
//    machines (the pure cycle-by-cycle loop);
//  * 4T OOSI NS on configs/asym8422.conf;
//  * all eight techniques × {symmetric, asymmetric} at 2T on the hierarchy
//    memory backend with memory-heavy mixes.
//
// On a mismatch the test writes the document it produced to
// <golden name>.actual.json beside the test binary and names the first point
// that differs. Regenerate (only for a change meant to move cycle-level
// statistics) by copying that file over the golden.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "mdes/machine.hpp"
#include "stats/json.hpp"

namespace vexsim {
namespace {

harness::ExperimentOptions base_options() {
  harness::ExperimentOptions opt;
  opt.budget = 2'000;
  opt.timeslice = 1'500;
  opt.scale = 0.05;
  return opt;
}

// Two mixes with different ILP/memory character; three contexts so 2T and
// 4T machines both multiplex more programs than hardware slots.
const char* kMixes[] = {
    "synth:i0.80-m0.20-b0.05-s1+synth:i0.80-m0.20-b0.05-s2+"
    "synth:i0.80-m0.20-b0.05-s3",
    "synth:i0.30-m0.40-b0.10-s4+synth:i0.30-m0.40-b0.10-s5+"
    "synth:i0.30-m0.40-b0.10-s6",
};

// Memory-heavy mix for the hierarchy backend: a large-footprint chase
// (f-dial past the L1) so MSHRs, the L2 and the DRAM banks all see traffic.
const char* kHierarchyMix =
    "synth:i0.8-m0.4-s1-f512+synth:i0.8-m0.4-s2-f512+synth:i0.8-m0.4-s3";

enum class Geometry { kSymmetric, kAsymmetric, kConfigFile };

const char* geometry_tag(Geometry geom) {
  switch (geom) {
    case Geometry::kSymmetric: return "sym4x4";
    case Geometry::kAsymmetric: return "asym8422";
    default: return "conf";
  }
}

MachineConfig make_machine(Geometry geom, int threads, Technique t,
                           const harness::ExperimentOptions& opt) {
  if (geom == Geometry::kConfigFile) {
    harness::ExperimentOptions file_opt = opt;
    file_opt.base_machine = std::make_shared<const MachineConfig>(
        mdes::load_machine(std::string(VEXSIM_SOURCE_DIR) +
                           "/configs/asym8422.conf"));
    return file_opt.machine(threads, t);
  }
  MachineConfig cfg = opt.machine(threads, t);
  if (geom == Geometry::kAsymmetric) {
    // Renaming is illegal on asymmetric machines (a bundle scheduled for the
    // wide cluster cannot run on a narrow one).
    cfg.cluster_renaming = false;
    cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                             ClusterResourceConfig::for_issue_width(4),
                             ClusterResourceConfig::for_issue_width(2),
                             ClusterResourceConfig::for_issue_width(2)};
    cfg.validate();
  }
  return cfg;
}

std::vector<harness::SweepPoint> engine_matrix() {
  std::vector<harness::SweepPoint> points;
  const auto add = [&](std::string label, Geometry geom, int threads,
                       Technique t, const char* mix,
                       const harness::ExperimentOptions& opt) {
    points.push_back(harness::SweepPoint{
        std::move(label), make_machine(geom, threads, t, opt), mix, opt});
  };

  for (const Geometry geom :
       {Geometry::kSymmetric, Geometry::kAsymmetric, Geometry::kConfigFile})
    for (const Technique& t : Technique::kAll)
      for (int m = 0; m < 2; ++m)
        add(std::string("2T/") + t.name() + "/" + geometry_tag(geom) +
                "/mix" + std::to_string(m),
            geom, 2, t, kMixes[m], base_options());

  harness::ExperimentOptions pure_loop = base_options();
  pure_loop.fast_forward = false;
  for (const Geometry geom : {Geometry::kSymmetric, Geometry::kAsymmetric})
    add(std::string("pure-loop/4T/CCSI AS/") + geometry_tag(geom), geom, 4,
        Technique::ccsi(CommPolicy::kAlwaysSplit), kMixes[0], pure_loop);

  add("4T/OOSI NS/conf/mix1", Geometry::kConfigFile, 4,
      Technique::oosi(CommPolicy::kNoSplit), kMixes[1], base_options());

  harness::ExperimentOptions hierarchy = base_options();
  hierarchy.mem_backend = MemBackendKind::kHierarchy;
  for (const Geometry geom : {Geometry::kSymmetric, Geometry::kAsymmetric})
    for (const Technique& t : Technique::kAll)
      add(std::string("hier/2T/") + t.name() + "/" + geometry_tag(geom), geom,
          2, t, kHierarchyMix, hierarchy);
  return points;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Label of the first point whose rendering differs, plus its first
// differing line; a structural difference is named as such.
std::string first_difference(const std::string& golden_text,
                             const Json& actual) {
  const Json golden = Json::parse(golden_text);
  const Json& want = golden.at("points");
  const Json& got = actual.at("points");
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
    const std::string a = want.at(i).dump();
    const std::string b = got.at(i).dump();
    if (a == b) continue;
    std::istringstream as(a);
    std::istringstream bs(b);
    std::string la;
    std::string lb;
    while (std::getline(as, la) && std::getline(bs, lb) && la == lb) {
    }
    return "point '" + got.at(i).at("label").as_string() + "': golden has `" +
           la + "`, run has `" + lb + "`";
  }
  if (want.size() != got.size())
    return "golden has " + std::to_string(want.size()) + " points, run has " +
           std::to_string(got.size());
  return "document header";
}

// Each point's per-instance ThreadCounters, labelled like the trajectory so
// first_difference can name the point.
Json counters_json(const std::vector<harness::SweepPoint>& points,
                   const std::vector<RunResult>& results) {
  Json arr = Json::array();
  for (std::size_t i = 0; i < points.size(); ++i) {
    Json instances = Json::array();
    for (const InstanceResult& inst : results[i].instances) {
      const ThreadCounters& c = inst.counters;
      Json ij = Json::object();
      ij.set("name", inst.name)
          .set("instructions", c.instructions)
          .set("ops", c.ops)
          .set("taken_branches", c.taken_branches)
          .set("split_instructions", c.split_instructions)
          .set("dmiss_block_cycles", c.dmiss_block_cycles)
          .set("imiss_block_cycles", c.imiss_block_cycles);
      instances.push(std::move(ij));
    }
    Json point = Json::object();
    point.set("label", points[i].label).set("instances", std::move(instances));
    arr.push(std::move(point));
  }
  Json doc = Json::object();
  doc.set("experiment", "engine_matrix_counters").set("points", std::move(arr));
  return doc;
}

// Byte-compares `doc` with tests/golden/<name>.golden.json. On a mismatch it
// writes `doc` to <name>.actual.json in the build directory and names the
// first differing point.
void expect_golden(const std::string& name, const Json& doc) {
  const std::string golden_path = std::string(VEXSIM_SOURCE_DIR) +
                                  "/tests/golden/" + name + ".golden.json";
  const std::string golden = read_file(golden_path);
  if (doc.dump() == golden) return;

  const std::string actual_path =
      std::string(VEXSIM_BINARY_DIR) + "/" + name + ".actual.json";
  write_json_file(actual_path, doc);
  ADD_FAILURE() << name << " differs from " << golden_path << ": "
                << (golden.empty() ? std::string("golden missing or empty")
                                   : first_difference(golden, doc))
                << "\nthis run's document: " << actual_path;
}

TEST(EngineGolden, MatrixReproducesTheFrozenTrajectory) {
  const std::vector<harness::SweepPoint> points = engine_matrix();
  ASSERT_EQ(points.size(), 67u);
  const std::vector<RunResult> results = harness::run_sweep(points, /*jobs=*/1);
  expect_golden("engine_matrix",
                harness::sweep_json("engine_matrix", points, results));
  expect_golden("engine_matrix_counters", counters_json(points, results));
}

}  // namespace
}  // namespace vexsim
