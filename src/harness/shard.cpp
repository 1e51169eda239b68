#include "harness/shard.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "harness/result_cache.hpp"
#include "util/check.hpp"

namespace vexsim::harness {

namespace {

// Manifest fingerprint as JSON: 16-hex string, or null for an uncacheable
// point (unresolvable workload — the owning shard reports the real error).
Json fingerprint_json(const ManifestEntry& e) {
  return e.cacheable ? Json(fingerprint_hex(e.fingerprint)) : Json();
}

Json manifest_json(const std::vector<ManifestEntry>& manifest) {
  Json arr = Json::array();
  for (const ManifestEntry& e : manifest) {
    Json row = Json::object();
    row.set("label", e.label).set("fingerprint", fingerprint_json(e));
    arr.push(std::move(row));
  }
  return arr;
}

// Common prefix of both shard-document kinds; kind-specific fields are
// inserted by the callers before manifest/points.
Json shard_doc_prefix(const std::string& experiment, const std::string& kind,
                      const ShardSpec& shard, std::size_t points_total) {
  Json sh = Json::object();
  sh.set("index", shard.index)
      .set("count", shard.count)
      .set("points_total", static_cast<std::uint64_t>(points_total));
  Json doc = Json::object();
  doc.set("experiment", experiment).set("kind", kind).set("shard",
                                                          std::move(sh));
  return doc;
}

std::string fingerprint_repr(const Json& v) {
  return v.is_null() ? "null" : v.as_string();
}

}  // namespace

std::vector<ManifestEntry> build_manifest(
    const std::vector<SweepPoint>& points) {
  std::vector<ManifestEntry> manifest;
  manifest.reserve(points.size());
  for (const SweepPoint& p : points) {
    ManifestEntry e;
    e.label = p.label;
    try {
      e.fingerprint = point_fingerprint(p.cfg, p.workload, p.opt);
      e.cacheable = true;
    } catch (const CheckError&) {
    }
    manifest.push_back(std::move(e));
  }
  return manifest;
}

Json sweep_shard_json(const std::string& experiment, const ShardSpec& shard,
                      const std::vector<ManifestEntry>& manifest,
                      const std::vector<std::size_t>& indices,
                      std::vector<Json> point_docs, bool /*partial*/) {
  VEXSIM_CHECK(indices.size() == point_docs.size());
  Json doc = shard_doc_prefix(experiment, "sweep", shard, manifest.size());
  doc.set("manifest", manifest_json(manifest));
  Json pts = Json::array();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    Json entry = Json::object();
    entry.set("index", static_cast<std::uint64_t>(indices[k]))
        .set("fingerprint", fingerprint_json(manifest[indices[k]]))
        .set("point", std::move(point_docs[k]));
    pts.push(std::move(entry));
  }
  doc.set("points", std::move(pts));
  return doc;
}

Json dse_shard_json(const std::string& experiment, const ShardSpec& shard,
                    const Json& header, const std::vector<std::string>& axes,
                    const std::vector<ManifestEntry>& manifest,
                    const std::vector<std::size_t>& indices,
                    std::vector<Json> point_docs,
                    const std::vector<std::vector<std::string>>& buckets) {
  VEXSIM_CHECK(indices.size() == point_docs.size());
  VEXSIM_CHECK(indices.size() == buckets.size());
  Json doc = shard_doc_prefix(experiment, "dse", shard, manifest.size());
  doc.set("header", header);
  Json axes_json = Json::array();
  for (const std::string& a : axes) axes_json.push(a);
  doc.set("axes", std::move(axes_json));
  doc.set("manifest", manifest_json(manifest));
  Json pts = Json::array();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    Json bj = Json::array();
    for (const std::string& b : buckets[k]) bj.push(b);
    Json entry = Json::object();
    entry.set("index", static_cast<std::uint64_t>(indices[k]))
        .set("fingerprint", fingerprint_json(manifest[indices[k]]))
        .set("point", std::move(point_docs[k]))
        .set("buckets", std::move(bj));
    pts.push(std::move(entry));
  }
  doc.set("points", std::move(pts));
  return doc;
}

Json dse_report(const Json& header, const std::vector<std::string>& axes,
                std::vector<Json> point_docs,
                const std::vector<std::vector<std::string>>& buckets) {
  VEXSIM_CHECK(point_docs.size() == buckets.size());
  // Pareto frontier of (cycles-to-halt, total issue slots): sort by (issue
  // asc, cycles asc, label) and keep strictly-improving cycles.
  struct Cand {
    int issue;
    std::uint64_t cycles;
    std::string label;
  };
  std::vector<Cand> cands;
  for (const Json& d : point_docs) {
    if (d.find("failed") != nullptr) continue;
    cands.push_back({static_cast<int>(d.at("total_issue").as_int64()),
                     d.at("cycles").as_uint64(), d.at("label").as_string()});
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.issue != b.issue) return a.issue < b.issue;
    if (a.cycles != b.cycles) return a.cycles < b.cycles;
    return a.label < b.label;
  });
  Json pareto = Json::array();
  std::uint64_t best = ~0ull;
  for (const Cand& c : cands) {
    if (c.cycles < best) {
      pareto.push(c.label);
      best = c.cycles;
    }
  }

  // Per-axis sensitivity: bucket -> (count, cycles sum, IPC sum), summed in
  // point order so double accumulation is bit-reproducible; std::map keys
  // keep the emission order independent of sample order.
  Json sensitivity = Json::object();
  for (std::size_t a = 0; a < axes.size(); ++a) {
    std::map<std::string, std::tuple<std::uint64_t, double, double>> agg;
    for (std::size_t i = 0; i < point_docs.size(); ++i) {
      const Json& d = point_docs[i];
      if (d.find("failed") != nullptr) continue;
      VEXSIM_CHECK_MSG(a < buckets[i].size(),
                       "dse point '" << d.at("label").as_string()
                                     << "' carries no bucket for axis "
                                     << axes[a]);
      auto& [n, cycles, ipc] = agg[buckets[i][a]];
      ++n;
      cycles += static_cast<double>(d.at("cycles").as_uint64());
      ipc += d.at("ipc").as_double();
    }
    Json rows = Json::array();
    for (const auto& [bucket, sums] : agg) {
      const auto& [n, cycles, ipc] = sums;
      Json row = Json::object();
      row.set("bucket", bucket)
          .set("points", n)
          .set("mean_cycles", cycles / static_cast<double>(n))
          .set("mean_ipc", ipc / static_cast<double>(n));
      rows.push(std::move(row));
    }
    sensitivity.set(axes[a], std::move(rows));
  }

  // The aggregates are read off the point documents, so those move into
  // the report last.
  Json pts = Json::array();
  for (Json& d : point_docs) pts.push(std::move(d));
  Json report = header;
  report.set("points", std::move(pts))
      .set("pareto", std::move(pareto))
      .set("sensitivity", std::move(sensitivity));
  return report;
}

MergeOutcome merge_shards(const std::vector<Json>& docs,
                          const std::vector<std::string>& names) {
  VEXSIM_CHECK_MSG(!docs.empty(), "vexmerge needs at least one shard file");
  VEXSIM_CHECK(docs.size() == names.size());
  const auto doc_name = [&](std::size_t d) { return names[d]; };

  // Shape and cross-document consistency checks against the first document.
  const Json& first = docs[0];
  const std::string experiment = first.at("experiment").as_string();
  const std::string kind = first.at("kind").as_string();
  VEXSIM_CHECK_MSG(kind == "sweep" || kind == "dse",
                   doc_name(0) << ": unknown shard document kind '" << kind
                               << "'");
  const std::uint64_t shard_count = first.at("shard").at("count").as_uint64();
  const Json& manifest = first.at("manifest");
  const std::size_t total = manifest.size();
  VEXSIM_CHECK_MSG(first.at("shard").at("points_total").as_uint64() == total,
                   doc_name(0) << ": manifest length disagrees with "
                                  "shard.points_total");

  for (std::size_t d = 0; d < docs.size(); ++d) {
    const Json& doc = docs[d];
    VEXSIM_CHECK_MSG(doc.at("experiment").as_string() == experiment,
                     doc_name(d) << " is from experiment '"
                                 << doc.at("experiment").as_string()
                                 << "', expected '" << experiment << "'");
    VEXSIM_CHECK_MSG(doc.at("kind").as_string() == kind,
                     doc_name(d) << " has kind '" << doc.at("kind").as_string()
                                 << "', expected '" << kind << "'");
    const Json& sh = doc.at("shard");
    VEXSIM_CHECK_MSG(sh.at("count").as_uint64() == shard_count,
                     doc_name(d) << " was sharded " << sh.at("count").as_uint64()
                                 << " ways, expected " << shard_count);
    const std::uint64_t index = sh.at("index").as_uint64();
    VEXSIM_CHECK_MSG(index >= 1 && index <= shard_count,
                     doc_name(d) << ": shard index " << index
                                 << " out of range 1.." << shard_count);
    const Json& m = doc.at("manifest");
    VEXSIM_CHECK_MSG(m.size() == total,
                     doc_name(d) << " enumerates " << m.size()
                                 << " points, expected " << total);
    for (std::size_t i = 0; i < total; ++i) {
      const Json& a = manifest.at(i);
      const Json& b = m.at(i);
      VEXSIM_CHECK_MSG(
          a.at("label").as_string() == b.at("label").as_string() &&
              fingerprint_repr(a.at("fingerprint")) ==
                  fingerprint_repr(b.at("fingerprint")),
          "manifest mismatch at point #"
              << i << " between " << doc_name(0) << " ('"
              << a.at("label").as_string() << "', fingerprint "
              << fingerprint_repr(a.at("fingerprint")) << ") and "
              << doc_name(d) << " ('" << b.at("label").as_string()
              << "', fingerprint " << fingerprint_repr(b.at("fingerprint"))
              << ") — the shard files come from different sweeps");
    }
    if (kind == "dse") {
      VEXSIM_CHECK_MSG(doc.at("header").dump() == first.at("header").dump(),
                       doc_name(d) << ": report header differs from "
                                   << doc_name(0)
                                   << " — the shard files come from different "
                                      "vexplore invocations");
      VEXSIM_CHECK_MSG(doc.at("axes").dump() == first.at("axes").dump(),
                       doc_name(d) << ": axis list differs from "
                                   << doc_name(0));
    }
  }

  // Collect entries, deduping overlaps and rejecting conflicts. A point
  // carried by more than one shard file is compared by dump(), exactly: two
  // records for one fingerprint must be byte-identical or the merge is
  // unsafe.
  std::vector<const Json*> got(total, nullptr);
  std::size_t present = 0;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const Json& pts = docs[d].at("points");
    for (std::size_t j = 0; j < pts.size(); ++j) {
      const Json& entry = pts.at(j);
      const std::uint64_t g64 = entry.at("index").as_uint64();
      VEXSIM_CHECK_MSG(g64 < total, doc_name(d) << ": point index " << g64
                                                << " out of range 0.."
                                                << (total - 1));
      const auto g = static_cast<std::size_t>(g64);
      const std::string& label = manifest.at(g).at("label").as_string();
      VEXSIM_CHECK_MSG(
          fingerprint_repr(entry.at("fingerprint")) ==
              fingerprint_repr(manifest.at(g).at("fingerprint")),
          "conflicting fingerprint for point #"
              << g << " ('" << label << "') in " << doc_name(d)
              << ": manifest says "
              << fingerprint_repr(manifest.at(g).at("fingerprint"))
              << ", record says "
              << fingerprint_repr(entry.at("fingerprint")));
      VEXSIM_CHECK_MSG(entry.at("point").at("label").as_string() == label,
                       doc_name(d) << ": record at point #" << g
                                   << " is labelled '"
                                   << entry.at("point").at("label").as_string()
                                   << "', manifest says '" << label << "'");
      if (got[g] == nullptr) {
        got[g] = &entry;
        ++present;
        continue;
      }
      VEXSIM_CHECK_MSG(got[g]->dump() == entry.dump(),
                       "conflicting records for point #"
                           << g << " ('" << label
                           << "'): two shard files carry byte-differing "
                              "results for the same fingerprint "
                           << fingerprint_repr(entry.at("fingerprint")));
    }
  }

  MergeOutcome out;
  out.present = present;
  out.total = total;
  if (present == total) {
    out.complete = true;
    if (kind == "sweep") {
      Json merged = Json::object();
      merged.set("experiment", experiment);
      Json pts = Json::array();
      for (const Json* entry : got) pts.push(entry->at("point"));
      merged.set("points", std::move(pts));
      out.merged = std::move(merged);
    } else {
      std::vector<std::string> axes;
      const Json& axes_json = first.at("axes");
      for (std::size_t a = 0; a < axes_json.size(); ++a)
        axes.push_back(axes_json.at(a).as_string());
      std::vector<Json> point_docs;
      std::vector<std::vector<std::string>> buckets;
      for (const Json* entry : got) {
        point_docs.push_back(entry->at("point"));
        const Json& bj = entry->at("buckets");
        std::vector<std::string> b;
        for (std::size_t k = 0; k < bj.size(); ++k)
          b.push_back(bj.at(k).as_string());
        buckets.push_back(std::move(b));
      }
      out.merged = dse_report(first.at("header"), axes, std::move(point_docs),
                              buckets);
    }
    return out;
  }

  // Incomplete: a resume manifest naming each missing point and the shard
  // (under the original count) that owns it.
  Json resume = Json::object();
  resume.set("experiment", experiment)
      .set("kind", kind)
      .set("resume", true)
      .set("shard_count", shard_count)
      .set("points_total", static_cast<std::uint64_t>(total))
      .set("present", static_cast<std::uint64_t>(present));
  Json missing = Json::array();
  for (std::size_t g = 0; g < total; ++g) {
    if (got[g] != nullptr) continue;
    Json row = Json::object();
    row.set("index", static_cast<std::uint64_t>(g))
        .set("shard",
             static_cast<std::uint64_t>(g % shard_count) + 1)
        .set("label", manifest.at(g).at("label").as_string())
        .set("fingerprint", manifest.at(g).at("fingerprint"));
    missing.push(std::move(row));
  }
  resume.set("missing", std::move(missing));
  out.resume = std::move(resume);
  return out;
}

}  // namespace vexsim::harness
