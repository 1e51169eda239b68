#include "stats/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "mdes/interp.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/shortest_g.hpp"
#include "wl_synth/spec.hpp"

namespace vexsim {
namespace {

// The formatter shortest_g replaced, kept as its oracle: every precision
// from 1 up, printed with snprintf and read back with sscanf, until the
// text parses back to `v`.
std::string reference_shortest(double v) {
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[32];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, v);
    double parsed = 0.0;
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == v) return shorter;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(Json, ScalarsAndInsertionOrder) {
  Json j = Json::object();
  j.set("b", 1).set("a", 2.5).set("s", "hi").set("t", true).set("n", Json());
  EXPECT_EQ(j.dump(),
            "{\n"
            "  \"b\": 1,\n"
            "  \"a\": 2.5,\n"
            "  \"s\": \"hi\",\n"
            "  \"t\": true,\n"
            "  \"n\": null\n"
            "}\n");
}

TEST(Json, SetOverwritesInPlace) {
  Json j = Json::object();
  j.set("x", 1).set("y", 2).set("x", 3);
  EXPECT_EQ(j.dump(), "{\n  \"x\": 3,\n  \"y\": 2\n}\n");
}

TEST(Json, NestedArraysAndEmpties) {
  Json arr = Json::array();
  arr.push(1).push(Json::object()).push(Json::array());
  Json j = Json::object();
  j.set("points", std::move(arr));
  EXPECT_EQ(j.dump(),
            "{\n"
            "  \"points\": [\n"
            "    1,\n"
            "    {},\n"
            "    []\n"
            "  ]\n"
            "}\n");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"\n");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"\n");
  // Keys escape the same way, and the parser reads every escape back.
  Json obj = Json::object();
  obj.set("k\t\"", "\x1f\\/\r");
  EXPECT_EQ(obj.dump(), "{\n  \"k\\t\\\"\": \"\\u001f\\\\/\\r\"\n}\n");
  EXPECT_EQ(Json::parse(obj.dump()).dump(), obj.dump());
}

TEST(Json, DoubleFormattingRoundTripsAndIsShortest) {
  EXPECT_EQ(Json(0.5).dump(), "0.5\n");
  EXPECT_EQ(Json(1.0).dump(), "1\n");
  // A value needing full precision must survive a parse round trip.
  const double v = 0.1 + 0.2;
  const std::string text = Json(v).dump();
  EXPECT_EQ(std::stod(text), v);
}

TEST(Json, LargeIntegersAreExact) {
  const std::uint64_t big = ~0ull;
  EXPECT_EQ(Json(big).dump(), "18446744073709551615\n");
  EXPECT_EQ(Json(std::int64_t{-42}).dump(), "-42\n");
}

TEST(Json, TypeMisuseThrows) {
  Json scalar(1);
  EXPECT_THROW(scalar.set("k", 2), CheckError);
  EXPECT_THROW(scalar.push(2), CheckError);
  Json obj = Json::object();
  EXPECT_THROW(obj.push(1), CheckError);
}

TEST(Json, WriteJsonFile) {
  const std::string path =
      testing::TempDir() + "/vexsim_json_test_out.json";
  Json j = Json::object();
  j.set("k", 7);
  write_json_file(path, j);
  std::ifstream is(path);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, j.dump());
  std::remove(path.c_str());
  EXPECT_THROW(write_json_file("/nonexistent-dir/x.json", j), CheckError);
}

TEST(Json, WriteJsonFileReplacesAtomicallyAndCleansUpOnFailure) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "vexsim_json_atomic";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto names = [&dir] {
    std::vector<std::string> out;
    for (const fs::directory_entry& e : fs::directory_iterator(dir))
      out.push_back(e.path().filename().string());
    std::sort(out.begin(), out.end());
    return out;
  };
  Json j = Json::object();
  j.set("k", 7);

  // An existing document is replaced whole, and only the target remains.
  const std::string path = (dir / "out.json").string();
  write_json_file(path, Json("old"));
  write_json_file(path, j);
  std::ifstream is(path);
  const std::string content((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(content, j.dump());
  EXPECT_EQ(names(), std::vector<std::string>{"out.json"});

  // The rename fails when the target is a directory: the error names the
  // target, no temp file is left, and the target is untouched.
  const fs::path target = dir / "taken.json";
  fs::create_directories(target / "inside");
  try {
    write_json_file(target.string(), j);
    FAIL() << "writing over a directory succeeded";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("taken.json"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(names(), (std::vector<std::string>{"out.json", "taken.json"}));
  EXPECT_TRUE(fs::is_directory(target / "inside"));

  // A symlink is written through, not replaced (as /dev/stdout must be).
  const fs::path link = dir / "link.json";
  fs::create_symlink("out.json", link);
  write_json_file(link.string(), Json("via link"));
  EXPECT_TRUE(fs::is_symlink(link));
  std::ifstream via(path);
  const std::string linked((std::istreambuf_iterator<char>(via)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(linked, Json("via link").dump());
  fs::remove_all(dir);
}

TEST(Json, NonFiniteDoublesEmitNull) {
  // Invalid-JSON tokens like `nan`/`inf` would break every BENCH_*.json
  // consumer; the writer degrades non-finite metrics to null instead.
  EXPECT_EQ(Json(std::nan("")).dump(), "null\n");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null\n");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null\n");
  Json j = Json::object();
  j.set("ipc", std::nan(""));
  j.set("ok", 1.5);
  EXPECT_EQ(j.dump(), "{\n  \"ipc\": null,\n  \"ok\": 1.5\n}\n");
  // The emitted document stays parseable.
  EXPECT_TRUE(Json::parse(j.dump()).at("ipc").is_null());
}

TEST(Json, ParseRoundTripsDumpedDocuments) {
  Json doc = Json::object();
  Json arr = Json::array();
  arr.push(1).push(std::uint64_t{~0ull}).push(std::int64_t{-7}).push(0.25);
  Json inner = Json::object();
  inner.set("name", "a\"b\nc").set("flag", true).set("none", Json());
  arr.push(std::move(inner));
  doc.set("points", std::move(arr)).set("experiment", "x");
  const std::string text = doc.dump();
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(Json, ParseScalarAccessors) {
  const Json doc = Json::parse(
      "{\"u\": 18446744073709551615, \"i\": -42, \"d\": 0.5,"
      " \"s\": \"hi\", \"b\": true, \"n\": null}");
  EXPECT_EQ(doc.at("u").as_uint64(), ~0ull);
  EXPECT_EQ(doc.at("i").as_int64(), -42);
  EXPECT_DOUBLE_EQ(doc.at("d").as_double(), 0.5);
  EXPECT_EQ(doc.at("s").as_string(), "hi");
  EXPECT_TRUE(doc.at("b").as_bool());
  EXPECT_TRUE(doc.at("n").is_null());
  // Small non-negative integers are reachable through either signedness.
  const Json small = Json::parse("{\"v\": 7}");
  EXPECT_EQ(small.at("v").as_int64(), 7);
  EXPECT_EQ(small.at("v").as_uint64(), 7u);
  // find() distinguishes absent from null.
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_NE(doc.find("n"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), CheckError);
}

TEST(Json, ParseArraysAndEscapes) {
  const Json arr = Json::parse("[1, [2, 3], {\"k\": \"a\\u0001\\tb\"}]");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.at(std::size_t{0}).as_int64(), 1);
  EXPECT_EQ(arr.at(std::size_t{1}).at(std::size_t{1}).as_int64(), 3);
  EXPECT_EQ(&arr.at(std::size_t{2}).at("k"), arr.at(std::size_t{2}).find("k"));
  EXPECT_EQ(arr.at(std::size_t{2}).at("k").as_string(),
            std::string("a\x01\tb"));
  EXPECT_THROW((void)arr.at(std::size_t{3}), CheckError);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), CheckError);
  EXPECT_THROW((void)Json::parse("{"), CheckError);
  EXPECT_THROW((void)Json::parse("{\"a\": 1,}"), CheckError);
  EXPECT_THROW((void)Json::parse("[1 2]"), CheckError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), CheckError);
  EXPECT_THROW((void)Json::parse("\"bad\\q\""), CheckError);
  EXPECT_THROW((void)Json::parse("nul"), CheckError);
  EXPECT_THROW((void)Json::parse("1 trailing"), CheckError);
  EXPECT_THROW((void)Json::parse("1..5"), CheckError);
  // Number spellings outside JSON's grammar: a sign other than a leading
  // '-', leading zeros, a bare or trailing '.', an empty exponent.
  for (const char* bad : {"+5", "01", "00", "-01", ".5", "5.", "+1.5", "-",
                          "-.5", "1e", "1e+", "1.e5", "--1", "1-2", "0x10",
                          "[01]", "{\"a\": +1}"})
    EXPECT_THROW((void)Json::parse(bad), CheckError) << bad;
  EXPECT_EQ(Json::parse("1e5").as_double(), 1e5);
  EXPECT_EQ(Json::parse("1E+2").as_double(), 100.0);
  EXPECT_EQ(Json::parse("2.5e-3").as_double(), 2.5e-3);
  EXPECT_EQ(Json::parse("-0").as_int64(), 0);
  EXPECT_EQ(Json::parse("0").as_uint64(), 0u);
  EXPECT_EQ(Json::parse("-0.0").dump(), "-0\n");
  EXPECT_EQ(Json::parse("5e-324").as_double(), 5e-324);
  // Underflow below the smallest subnormal is the nearest double, 0.
  EXPECT_EQ(Json::parse("1e-400").as_double(), 0.0);
  // 2^64 and -2^63-1 overflow their integer representations, and 1e999
  // overflows double; but a subnormal (strtod underflow) is legitimate
  // writer output and must round-trip.
  EXPECT_THROW((void)Json::parse("18446744073709551616"), CheckError);
  EXPECT_THROW((void)Json::parse("-9223372036854775809"), CheckError);
  EXPECT_THROW((void)Json::parse("1e999"), CheckError);
  const double denorm = 5e-324;
  EXPECT_EQ(Json::parse(Json(denorm).dump()).as_double(), denorm);
  // Duplicate keys are corruption, not last-wins.
  EXPECT_THROW((void)Json::parse("{\"a\": 1, \"a\": 2}"), CheckError);
}

// shortest_g must spell every double exactly as the snprintf/sscanf search
// it replaced did: the JSON writer, .conf values and synth names depend on
// it for byte-identical output.
TEST(ShortestG, MatchesTheSearchItReplaced) {
  std::vector<double> values;
  // Ratios of counters, the doubles trajectories carry (IPC, hit rates).
  Rng rng(0x5107E57ull);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t num = rng.next_u64() >> rng.below(64);
    const std::uint64_t den = (rng.next_u64() >> rng.below(64)) | 1u;
    values.push_back(static_cast<double>(num) / static_cast<double>(den));
  }
  // Arbitrary finite bit patterns, either sign: every exponent, subnormals
  // included.
  for (int i = 0; i < 10'000; ++i) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(v)) values.push_back(v);
  }
  // Every power of two and its predecessor, where the round-trip interval
  // is lopsided.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
  }
  // %g's switch between fixed and scientific notation, the extremes, the
  // common dials and both zeros, with either sign.
  for (const double v : {1e-5, 1e-4, 1e16, 1e17, 1e21, 0.1, 0.3, 1.0 / 3,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::denorm_min()}) {
    for (const double w : {std::nextafter(v, 0.0), v,
                           std::nextafter(v, std::numeric_limits<double>::max())}) {
      values.push_back(w);
      values.push_back(-w);
    }
  }
  values.push_back(0.0);
  values.push_back(-0.0);

  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = reference_shortest(v);
    if (shortest_g(v) == want) continue;
    if (++mismatches <= 5)
      ADD_FAILURE() << "shortest_g(" << want << ") = " << shortest_g(v);
  }
  EXPECT_EQ(mismatches, 0u) << "over " << values.size() << " values";
  EXPECT_EQ(shortest_g(-0.0), "-0");
  EXPECT_EQ(shortest_g(1e16), "1e+16");
  EXPECT_EQ(shortest_g(1e-5), "1e-05");
  EXPECT_EQ(shortest_g(0.0001), "0.0001");
  EXPECT_EQ(shortest_g(std::numeric_limits<double>::infinity()), "inf");
}

// Its three callers keep their own non-finite policy and spell finite
// dials the same way.
TEST(ShortestG, CallersSpellDialsAlike) {
  for (const double dial : {0.1, 0.3, 1.0 / 3, 0.7, 2.0 / 3, 0.001}) {
    const std::string want = reference_shortest(dial);
    EXPECT_EQ(mdes::Value::real(dial).str(), want);
    Json j = Json::array();
    j.push(dial);
    EXPECT_EQ(j.dump(), "[\n  " + want + "\n]\n");
    wl_synth::SynthSpec spec;
    spec.ilp = dial;
    spec.comm_density = dial;
    EXPECT_EQ(spec.name(),
              "synth:i" + want + "-m0.1-b0-c" + want + "-n64-s1");
    EXPECT_EQ(wl_synth::parse_spec(spec.name()), spec);
  }
  EXPECT_EQ(wl_synth::SynthSpec{}.name(), "synth:i0.5-m0.1-b0-c0-n64-s1");
  EXPECT_EQ(mdes::Value::real(1.0 / 3).str(), "0.3333333333333333");
  EXPECT_EQ(mdes::Value::real(std::nan("")).str(), "nan");
  EXPECT_EQ(Json(std::nan("")).dump(), "null\n");
}

}  // namespace
}  // namespace vexsim
