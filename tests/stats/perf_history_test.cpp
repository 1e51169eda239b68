// perf/history.jsonl, the checked-in perf trajectory: one JSON object per
// PR, every workload, metric and unit of which BENCHMARK.json declares.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "stats/json.hpp"

namespace vexsim {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct Declared {
  std::vector<std::string> workloads;
  std::map<std::string, std::string> unit_of;  // metric -> unit
};

Declared declared() {
  const Json bench =
      Json::parse(read_file(std::string(VEXSIM_SOURCE_DIR) + "/BENCHMARK.json"));
  Declared d;
  const Json& workloads = bench.at("workloads");
  for (std::size_t i = 0; i < workloads.size(); ++i)
    d.workloads.push_back(workloads.at(i).at("name").as_string());
  for (const char* section : {"end_to_end", "per_layer"}) {
    const Json& metrics = bench.at(section);
    for (std::size_t i = 0; i < metrics.size(); ++i)
      d.unit_of[metrics.at(i).at("name").as_string()] =
          metrics.at(i).at("unit").as_string();
  }
  return d;
}

std::vector<std::string> history_lines() {
  std::istringstream in(
      read_file(std::string(VEXSIM_SOURCE_DIR) + "/perf/history.jsonl"));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

bool number_or_null(const Json& v) { return v.is_number() || v.is_null(); }

TEST(PerfHistory, EveryLineMatchesBenchmarkJson) {
  const Declared d = declared();
  ASSERT_FALSE(d.workloads.empty());
  const std::vector<std::string> lines = history_lines();
  ASSERT_FALSE(lines.empty());
  const std::set<std::string> keys = {"pr",    "commit",  "host",   "source",
                                      "claim", "pairs",   "verdict", "medians"};
  std::int64_t last_pr = 0;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    SCOPED_TRACE("line " + std::to_string(n + 1));
    ASSERT_FALSE(lines[n].empty());
    const Json rec = Json::parse(lines[n]);
    ASSERT_TRUE(rec.is_object());
    // Exactly the documented keys: each is present and nothing else is.
    EXPECT_EQ(rec.size(), keys.size());
    for (const std::string& key : keys)
      ASSERT_NE(rec.find(key), nullptr) << "missing key " << key;

    const std::int64_t pr = rec.at("pr").as_int64();
    EXPECT_GT(pr, last_pr) << "lines must be in PR order";
    last_pr = pr;
    for (const char* text : {"commit", "host", "source", "verdict"})
      EXPECT_FALSE(rec.at(text).as_string().empty()) << text;

    // pairs: one non-negative count per declared workload it names.
    const Json& pairs = rec.at("pairs");
    ASSERT_TRUE(pairs.is_object());
    std::size_t known = 0;
    for (const std::string& w : d.workloads) {
      if (const Json* count = pairs.find(w)) {
        EXPECT_GE(count->as_int64(), 0) << w;
        ++known;
      }
    }
    EXPECT_EQ(known, pairs.size()) << "pairs names an undeclared workload";

    // medians: "<workload>/<metric>" -> {parent, change, unit}, every
    // workload, metric and unit declared by BENCHMARK.json.
    const Json& medians = rec.at("medians");
    ASSERT_TRUE(medians.is_object());
    ASSERT_GT(medians.size(), 0u);
    known = 0;
    for (const std::string& w : d.workloads) {
      for (const auto& [metric, unit] : d.unit_of) {
        const Json* m = medians.find(w + "/" + metric);
        if (m == nullptr) continue;
        ++known;
        SCOPED_TRACE(w + "/" + metric);
        ASSERT_TRUE(m->is_object());
        EXPECT_EQ(m->size(), 3u);
        EXPECT_EQ(m->at("unit").as_string(), unit);
        const Json& parent = m->at("parent");
        const Json& change = m->at("change");
        EXPECT_TRUE(number_or_null(parent));
        EXPECT_TRUE(number_or_null(change));
        EXPECT_FALSE(parent.is_null() && change.is_null());
      }
    }
    EXPECT_EQ(known, medians.size())
        << "medians names an undeclared workload or metric";

    // The claim, when there is one, is one of the line's medians.
    const Json& claim = rec.at("claim");
    if (!claim.is_null()) {
      EXPECT_NE(medians.find(claim.as_string()), nullptr)
          << "claim " << claim.as_string() << " has no median";
    }
  }
}

}  // namespace
}  // namespace vexsim
