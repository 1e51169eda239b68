// Sharding layer for the experiment-sweep engine: the work-unit protocol
// that lets N independent OS processes (or hosts) split one sweep and a
// merge step fold their outputs back into a single trajectory byte-identical
// to the one-process run.
//
// The protocol has three parts:
//  * A sweep **manifest**: the fully-enumerated point list, in point order,
//    with each point's content fingerprint (harness/result_cache.hpp). Every
//    shard process enumerates the identical manifest — enumeration is a pure
//    function of the bench flags — so the manifest doubles as the contract
//    that two shard files came from the same sweep.
//  * A **shard document** (`--shard i/N`): the manifest plus the rendered
//    JSON records of the points this shard owns (round-robin: shard i of N
//    owns points with index % N == i-1, so every slice mixes cheap and
//    expensive points). Shards share the content-addressed result cache
//    directory; nothing else couples them.
//  * `merge_shards` / tools/vexmerge: validates that all shard files carry
//    the same manifest (conflicting fingerprints are a hard error naming the
//    point), dedupes overlapping identical records, re-emits the per-point
//    JSON subtrees in manifest order — byte-identical to the single-process
//    document because Json::parse/dump round-trips exactly — and, when
//    points are missing, writes a resume manifest listing each gap and the
//    shard that owns it.
//
// vexplore shards the same way; its shard documents additionally carry the
// report header and the per-point sensitivity bucket labels so the merged
// report's Pareto frontier and per-axis aggregates are recomputed from the
// same values, in the same order, as a one-process run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "stats/json.hpp"

namespace vexsim::harness {

// One manifest row: the point's label and, when the point is cacheable, its
// content fingerprint. An unresolvable workload has no fingerprint (the
// shard that owns it surfaces the real error); it serializes as null.
struct ManifestEntry {
  std::string label;
  bool cacheable = false;
  std::uint64_t fingerprint = 0;
};

[[nodiscard]] std::vector<ManifestEntry> build_manifest(
    const std::vector<SweepPoint>& points);

// Shard document for a bench sweep. `indices`/`point_docs` are parallel:
// the owned manifest indices and their rendered sweep_point_json subtrees,
// which move into the document (pass an rvalue to avoid copying them).
// The trailing `partial` is retired and ignored; it stays only so that
// existing callers still compile.
[[nodiscard]] Json sweep_shard_json(const std::string& experiment,
                                    const ShardSpec& shard,
                                    const std::vector<ManifestEntry>& manifest,
                                    const std::vector<std::size_t>& indices,
                                    std::vector<Json> point_docs,
                                    bool partial);

// Shard document for a vexplore DSE run: adds the report header (identical
// across shards — sampling is serial and deterministic), the axis-name list,
// and per-point sensitivity bucket labels (one per axis, precomputed at
// enumeration so the merger needs no template file).
[[nodiscard]] Json dse_shard_json(
    const std::string& experiment, const ShardSpec& shard, const Json& header,
    const std::vector<std::string>& axes,
    const std::vector<ManifestEntry>& manifest,
    const std::vector<std::size_t>& indices, std::vector<Json> point_docs,
    const std::vector<std::vector<std::string>>& buckets);

// Assembles the final vexplore report from per-point documents and bucket
// labels: header fields, then points, the Pareto frontier of (cycles, total
// issue slots), and per-axis sensitivity aggregates. Shared by vexplore
// itself and by merge_shards, so a merged report is byte-identical to a
// one-process run by construction (same values, same accumulation order).
// The point documents move into the report.
[[nodiscard]] Json dse_report(
    const Json& header, const std::vector<std::string>& axes,
    std::vector<Json> point_docs,
    const std::vector<std::vector<std::string>>& buckets);

struct MergeOutcome {
  bool complete = false;
  Json merged;  // when complete: the single-process-identical document
  Json resume;  // when incomplete: resume manifest listing missing points
  std::size_t present = 0;
  std::size_t total = 0;
};

// Folds shard documents into one trajectory. `names` are the per-document
// origin labels (file paths) used in error messages, parallel to `docs`.
// CheckError on: mixed experiments/kinds/shard counts, manifest mismatches,
// and conflicting records for one point (same fingerprint, byte-differing
// result) — each error names the point. Overlapping byte-identical records
// are deduped silently. A document holding only part of its slice (a
// shard that was cut short) merges as incomplete.
[[nodiscard]] MergeOutcome merge_shards(const std::vector<Json>& docs,
                                        const std::vector<std::string>& names);

}  // namespace vexsim::harness
