#include "harness/shard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/result_cache.hpp"
#include "harness/sweep.hpp"
#include "stats/json.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace vexsim::harness {
namespace {

// Runs `fn`, expecting a CheckError whose message contains every substring.
template <typename Fn>
void expect_check_error(Fn fn, const std::vector<std::string>& substrings) {
  try {
    fn();
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    for (const std::string& s : substrings)
      EXPECT_NE(msg.find(s), std::string::npos)
          << "message '" << msg << "' lacks '" << s << "'";
  }
}

ExperimentOptions tiny_options(std::uint64_t seed) {
  ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 2'000;
  opt.timeslice = 500;
  opt.seed = seed;
  return opt;
}

// A deterministic sweep: real configs and workloads (so fingerprints
// resolve) with synthetic results (no simulation needed to test the merge
// algebra).
std::vector<SweepPoint> test_points(std::size_t n) {
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < n; ++i)
    points.push_back({"p" + std::to_string(i),
                      MachineConfig::paper(2, Technique::csmt()), "llmm",
                      tiny_options(100 + i)});
  return points;
}

std::vector<RunResult> test_results(std::size_t n) {
  std::vector<RunResult> results(n);
  for (std::size_t i = 0; i < n; ++i) {
    results[i].issue_width = 16;
    results[i].sim.cycles = 1'000 + i;
    results[i].sim.instructions_retired = 500 + i;
    results[i].sim.ops_issued = 900 + i;
  }
  return results;
}

// The shard document a `--shard i/N` bench run would emit for `indices`
// (defaulting to the round-robin owned slice).
Json make_shard_doc(const std::vector<SweepPoint>& points,
                    const std::vector<RunResult>& results,
                    const ShardSpec& shard,
                    const std::vector<std::size_t>* explicit_indices = nullptr) {
  const std::vector<ManifestEntry> manifest = build_manifest(points);
  std::vector<std::size_t> indices;
  if (explicit_indices != nullptr) {
    indices = *explicit_indices;
  } else {
    for (std::size_t i = 0; i < points.size(); ++i)
      if (shard.owns(i)) indices.push_back(i);
  }
  std::vector<Json> docs;
  for (const std::size_t i : indices)
    docs.push_back(sweep_point_json(points[i], results[i]));
  return sweep_shard_json("shard_test", shard, manifest, indices, docs,
                          false);
}

TEST(ShardSpec, ParsesValidForms) {
  const ShardSpec one = ShardSpec::parse("1/1");
  EXPECT_EQ(one.index, 1);
  EXPECT_EQ(one.count, 1);
  EXPECT_TRUE(one.active);

  const ShardSpec mid = ShardSpec::parse("2/4");
  EXPECT_EQ(mid.index, 2);
  EXPECT_EQ(mid.count, 4);
  EXPECT_EQ(mid.str(), "2/4");
  EXPECT_EQ(mid.tag(), "2of4");

  const ShardSpec last = ShardSpec::parse("8/8");
  EXPECT_EQ(last.index, 8);
  EXPECT_EQ(last.count, 8);
}

TEST(ShardSpec, RejectsMalformedSpecs) {
  // Every malformed spelling must name the valid form and echo the input.
  for (const std::string& bad :
       {std::string("0/4"), std::string("5/4"), std::string("i/0"),
        std::string("1/0"), std::string("0/0"), std::string("abc"),
        std::string("2-4"), std::string(""), std::string("3/x"),
        std::string("-1/4"), std::string("1/2/3"), std::string("1.5/4")}) {
    expect_check_error([&] { (void)ShardSpec::parse(bad); },
                       {"--shard expects I/N", "1 <= I <= N", bad});
  }
}

TEST(ShardSpec, FromCliReadsAndValidatesTheFlag) {
  {
    const char* argv[] = {"bench"};
    const ShardSpec s = ShardSpec::from_cli(Cli(1, argv));
    EXPECT_FALSE(s.active);
    EXPECT_EQ(s.index, 1);
    EXPECT_EQ(s.count, 1);
  }
  {
    const char* argv[] = {"bench", "--shard", "3/4"};
    const ShardSpec s = ShardSpec::from_cli(Cli(3, argv));
    EXPECT_TRUE(s.active);
    EXPECT_EQ(s.index, 3);
    EXPECT_EQ(s.count, 4);
  }
  {
    const char* argv[] = {"bench", "--shard=1/1"};
    const ShardSpec s = ShardSpec::from_cli(Cli(2, argv));
    EXPECT_TRUE(s.active);  // explicit 1/1 still selects shard output
  }
  {
    // Bare `--shard` (no value) is malformed, not "shard everything".
    const char* argv[] = {"bench", "--shard"};
    expect_check_error([&] { (void)ShardSpec::from_cli(Cli(2, argv)); },
                       {"--shard expects I/N"});
  }
  {
    const char* argv[] = {"bench", "--shard", "9/4"};
    expect_check_error([&] { (void)ShardSpec::from_cli(Cli(3, argv)); },
                       {"--shard expects I/N", "9/4"});
  }
}

TEST(ShardSpec, OwnershipIsDisjointAndComplete) {
  for (int count = 1; count <= 5; ++count) {
    for (std::size_t i = 0; i < 23; ++i) {
      int owners = 0;
      for (int index = 1; index <= count; ++index)
        owners += ShardSpec{index, count, true}.owns(i) ? 1 : 0;
      EXPECT_EQ(owners, 1) << "index " << i << " under /" << count;
    }
    // Round-robin: shard 1 owns 0, N, 2N, ...
    EXPECT_TRUE((ShardSpec{1, count, true}.owns(0)));
    EXPECT_TRUE(
        (ShardSpec{1, count, true}.owns(static_cast<std::size_t>(count))));
    // owned_count agrees with owns() for every prefix length.
    for (int index = 1; index <= count; ++index) {
      const ShardSpec spec{index, count, true};
      std::size_t owned = 0;
      for (std::size_t total = 0; total < 23; ++total) {
        EXPECT_EQ(spec.owned_count(total), owned) << spec.str() << " " << total;
        owned += spec.owns(total) ? 1 : 0;
      }
    }
  }
}

TEST(Manifest, CarriesFingerprintsAndNullsForUnresolvablePoints) {
  std::vector<SweepPoint> points = test_points(2);
  points.push_back({"broken", MachineConfig::paper(2, Technique::csmt()),
                    "no-such-mix", tiny_options(7)});
  const std::vector<ManifestEntry> manifest = build_manifest(points);
  ASSERT_EQ(manifest.size(), 3u);
  EXPECT_TRUE(manifest[0].cacheable);
  EXPECT_TRUE(manifest[1].cacheable);
  EXPECT_NE(manifest[0].fingerprint, manifest[1].fingerprint);
  EXPECT_FALSE(manifest[2].cacheable);

  // The shard document spells an uncacheable fingerprint as null, and the
  // merge still works (null == null across shards).
  const std::vector<RunResult> results = test_results(points.size());
  const Json a =
      make_shard_doc(points, results, ShardSpec{1, 2, true});
  const Json b =
      make_shard_doc(points, results, ShardSpec{2, 2, true});
  EXPECT_TRUE(
      a.at("manifest").at(2).at("fingerprint").is_null());
  const MergeOutcome merged = merge_shards({a, b}, {"a.json", "b.json"});
  EXPECT_TRUE(merged.complete);
}

TEST(MergeShards, DisjointShardsMergeByteIdenticalToSweepJson) {
  const std::vector<SweepPoint> points = test_points(5);
  const std::vector<RunResult> results = test_results(5);
  const std::string expected = sweep_json("shard_test", points, results).dump();

  for (int count : {1, 2, 4, 8}) {
    std::vector<Json> docs;
    std::vector<std::string> names;
    for (int i = 1; i <= count; ++i) {
      docs.push_back(
          make_shard_doc(points, results, ShardSpec{i, count, true}));
      names.push_back("shard" + std::to_string(i) + ".json");
    }
    const MergeOutcome out = merge_shards(docs, names);
    ASSERT_TRUE(out.complete) << count << " shards";
    EXPECT_EQ(out.total, 5u);
    EXPECT_EQ(out.merged.dump(), expected) << count << " shards";

    // Merge order must not matter.
    std::vector<Json> reversed(docs.rbegin(), docs.rend());
    std::vector<std::string> rnames(names.rbegin(), names.rend());
    const MergeOutcome rout = merge_shards(reversed, rnames);
    ASSERT_TRUE(rout.complete);
    EXPECT_EQ(rout.merged.dump(), expected);
  }
}

TEST(MergeShards, DedupesOverlappingIdenticalRecords) {
  const std::vector<SweepPoint> points = test_points(4);
  const std::vector<RunResult> results = test_results(4);
  // Shard 1 re-submits point 1 (owned by shard 2) with identical bytes.
  const std::vector<std::size_t> wide = {0, 1, 2};
  const Json a =
      make_shard_doc(points, results, ShardSpec{1, 2, true}, &wide);
  const Json b = make_shard_doc(points, results, ShardSpec{2, 2, true});
  const MergeOutcome out = merge_shards({a, b}, {"a.json", "b.json"});
  ASSERT_TRUE(out.complete);
  EXPECT_EQ(out.merged.dump(),
            sweep_json("shard_test", points, results).dump());
}

TEST(MergeShards, ConflictingRecordsAreAHardErrorNamingThePoint) {
  const std::vector<SweepPoint> points = test_points(3);
  const std::vector<RunResult> results = test_results(3);
  std::vector<RunResult> tampered = results;
  tampered[0].sim.cycles += 1;  // same fingerprint, different result bytes

  const std::vector<std::size_t> zero = {0};
  const Json a = make_shard_doc(points, results, ShardSpec{1, 2, true});
  const Json b =
      make_shard_doc(points, tampered, ShardSpec{2, 2, true}, &zero);
  expect_check_error(
      [&] { (void)merge_shards({a, b}, {"a.json", "b.json"}); },
      {"conflicting records for point #0", "'p0'", "byte-differing"});
}

TEST(MergeShards, MismatchedManifestsAreAHardError) {
  const std::vector<SweepPoint> points = test_points(3);
  std::vector<SweepPoint> other = points;
  other[1].opt.seed = 999;  // different sweep: fingerprint moves
  const std::vector<RunResult> results = test_results(3);

  const Json a = make_shard_doc(points, results, ShardSpec{1, 2, true});
  const Json b = make_shard_doc(other, results, ShardSpec{2, 2, true});
  expect_check_error(
      [&] { (void)merge_shards({a, b}, {"a.json", "b.json"}); },
      {"manifest mismatch at point #1", "different sweeps", "b.json"});
}

TEST(MergeShards, RefusesMixedShardCounts) {
  const std::vector<SweepPoint> points = test_points(4);
  const std::vector<RunResult> results = test_results(4);
  const Json full1of2 = make_shard_doc(points, results, ShardSpec{1, 2, true});
  const Json full1of3 = make_shard_doc(points, results, ShardSpec{1, 3, true});
  expect_check_error(
      [&] { (void)merge_shards({full1of2, full1of3}, {"a.json", "b.json"}); },
      {"b.json", "sharded 3 ways, expected 2"});
}

TEST(MergeShards, OldPartialCheckpointMergesAsIncomplete) {
  // A checkpoint written by the retired --flush option: marked
  // "partial": true and holding a prefix of its slice. It merges like any
  // shard that was cut short.
  const std::vector<SweepPoint> points = test_points(7);
  const std::vector<RunResult> results = test_results(7);
  const std::vector<std::size_t> prefix = {0, 2};  // shard 1/2 owns 0,2,4,6
  Json partial = make_shard_doc(points, results, ShardSpec{1, 2, true}, &prefix);
  partial.set("partial", true);
  const Json full2 = make_shard_doc(points, results, ShardSpec{2, 2, true});
  const MergeOutcome out =
      merge_shards({Json::parse(partial.dump()), full2}, {"a.json", "b.json"});
  EXPECT_FALSE(out.complete);
  EXPECT_EQ(out.present, 5u);
  EXPECT_EQ(out.total, 7u);
  const Json& missing = out.resume.at("missing");
  ASSERT_EQ(missing.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    const std::size_t index = 4 + 2 * k;
    EXPECT_EQ(missing.at(k).at("index").as_uint64(), index);
    EXPECT_EQ(missing.at(k).at("shard").as_uint64(), 1u);
    EXPECT_EQ(missing.at(k).at("label").as_string(),
              "p" + std::to_string(index));
  }
}

TEST(MergeShards, MissingShardsYieldAResumeManifest) {
  const std::vector<SweepPoint> points = test_points(5);
  const std::vector<RunResult> results = test_results(5);
  // Only shard 2/2 present: points 1 and 3 covered, 0/2/4 missing.
  const Json b = make_shard_doc(points, results, ShardSpec{2, 2, true});
  const MergeOutcome out = merge_shards({b}, {"b.json"});
  EXPECT_FALSE(out.complete);
  EXPECT_EQ(out.present, 2u);
  EXPECT_EQ(out.total, 5u);

  const Json& resume = out.resume;
  EXPECT_TRUE(resume.at("resume").as_bool());
  EXPECT_EQ(resume.at("shard_count").as_uint64(), 2u);
  EXPECT_EQ(resume.at("present").as_uint64(), 2u);
  const Json& missing = resume.at("missing");
  ASSERT_EQ(missing.size(), 3u);
  const std::vector<ManifestEntry> manifest = build_manifest(points);
  const std::size_t expected_index[] = {0, 2, 4};
  for (std::size_t k = 0; k < 3; ++k) {
    const Json& row = missing.at(k);
    EXPECT_EQ(row.at("index").as_uint64(), expected_index[k]);
    EXPECT_EQ(row.at("shard").as_uint64(), 1u);  // all gaps owned by shard 1
    EXPECT_EQ(row.at("label").as_string(),
              "p" + std::to_string(expected_index[k]));
    EXPECT_EQ(row.at("fingerprint").as_string(),
              fingerprint_hex(manifest[expected_index[k]].fingerprint));
  }
}

TEST(MergeShards, DseShardsMergeByteIdenticalToDseReport) {
  // Minimal hand-built DSE shard pair: the merged report must equal the
  // dse_report() a one-process vexplore run would emit from the same
  // per-point documents and bucket labels.
  Json header = Json::object();
  header.set("experiment", "vexplore")
      .set("seed", std::uint64_t{7})
      .set("accepted", std::uint64_t{3});
  const std::vector<std::string> axes = {"clusters"};

  std::vector<Json> point_docs;
  std::vector<std::vector<std::string>> buckets;
  for (std::uint64_t i = 0; i < 3; ++i) {
    Json d = Json::object();
    d.set("label", "p" + std::to_string(i))  // matches the manifest labels
        .set("total_issue", 16u + i)
        .set("cycles", 5'000 - 100 * i)
        .set("instructions", std::uint64_t{2'000})
        .set("ipc", 0.5 + 0.125 * static_cast<double>(i));
    point_docs.push_back(std::move(d));
    buckets.push_back({i < 2 ? "2" : "4"});
  }
  const std::string expected =
      dse_report(header, axes, point_docs, buckets).dump();

  const std::vector<SweepPoint> points = test_points(3);
  const std::vector<ManifestEntry> manifest = build_manifest(points);
  const auto dse_doc = [&](const ShardSpec& shard) {
    std::vector<std::size_t> indices;
    std::vector<Json> mine;
    std::vector<std::vector<std::string>> mine_buckets;
    for (std::size_t i = 0; i < 3; ++i) {
      if (!shard.owns(i)) continue;
      indices.push_back(i);
      mine.push_back(point_docs[i]);
      mine_buckets.push_back(buckets[i]);
    }
    return dse_shard_json("vexplore", shard, header, axes, manifest, indices,
                          mine, mine_buckets);
  };
  const MergeOutcome out =
      merge_shards({dse_doc(ShardSpec{1, 2, true}),
                    dse_doc(ShardSpec{2, 2, true})},
                   {"a.json", "b.json"});
  ASSERT_TRUE(out.complete);
  EXPECT_EQ(out.merged.dump(), expected);
}

}  // namespace
}  // namespace vexsim::harness
