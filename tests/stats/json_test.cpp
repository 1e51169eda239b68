#include "stats/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
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

// A value is one variant over the eight kinds; the fat layout that carried
// an empty string and vector beside every number (88 bytes) stays out.
static_assert(sizeof(Json) <= 40);

// A random value of any kind, containers nesting at most `depth` more
// levels. Scalars favour the edges of each representation.
Json random_json(Rng& rng, int depth) {
  switch (rng.below(depth > 0 ? 8 : 6)) {
    case 0:
      return Json();
    case 1:
      return Json(rng.chance(0.5));
    case 2: {
      const std::int64_t edges[] = {std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max(),
                                    -1, 0};
      if (rng.chance(0.5)) return Json(edges[rng.below(4)]);
      return Json(static_cast<std::int64_t>(rng.next_u64()));
    }
    case 3: {
      if (rng.chance(0.5))
        return Json(rng.chance(0.5) ? std::numeric_limits<std::uint64_t>::max()
                                    : std::uint64_t{0});
      return Json(rng.next_u64() >> rng.below(64));
    }
    case 4: {
      const double edges[] = {0.0,
                              -0.0,
                              std::numeric_limits<double>::denorm_min(),
                              -std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::min() / 3,
                              std::numeric_limits<double>::max(),
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
      if (rng.chance(0.5)) return Json(edges[rng.below(9)]);
      return Json(std::bit_cast<double>(rng.next_u64()));
    }
    case 5: {
      // Every control character, both characters that need a backslash,
      // '/', and bytes of multi-byte UTF-8 sequences.
      std::string text;
      const std::uint32_t len = rng.below(12);
      for (std::uint32_t i = 0; i < len; ++i) {
        switch (rng.below(4)) {
          case 0: text += static_cast<char>(rng.below(0x20)); break;
          case 1: text += "\"\\/"[rng.below(3)]; break;
          case 2: text += static_cast<char>(0x80 + rng.below(0x80)); break;
          default: text += static_cast<char>(0x20 + rng.below(0x5F)); break;
        }
      }
      return Json(std::move(text));
    }
    case 6: {
      Json obj = Json::object();
      const std::uint32_t n = rng.below(6);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string key = random_json(rng, 0).dump();  // any text, escaped
        obj.set(key, random_json(rng, depth - 1));
      }
      return obj;
    }
    default: {
      Json arr = Json::array();
      const std::uint32_t n = rng.below(6);
      for (std::uint32_t i = 0; i < n; ++i)
        arr.push(random_json(rng, depth - 1));
      return arr;
    }
  }
}

TEST(Json, RandomTreesRoundTripByteIdentically) {
  Rng rng(0x150A7E57ull);
  for (int iter = 0; iter < 2'000; ++iter) {
    const Json value = random_json(rng, 4);
    const std::string text = value.dump();
    EXPECT_EQ(Json::parse(text).dump(), text) << "iteration " << iter;
  }
  // The edges spell as expected: integers keep their signedness,
  // subnormals their digits, and non-finite doubles become null.
  const std::string every_escape("\x00\b\f\x7f\"\\", 6);
  Json edges = Json::array();
  edges.push(std::numeric_limits<std::int64_t>::min())
      .push(std::numeric_limits<std::uint64_t>::max())
      .push(std::numeric_limits<double>::denorm_min())
      .push(std::numeric_limits<double>::infinity())
      .push(every_escape)
      .push(Json::object())
      .push(Json::array());
  const std::string text = edges.dump();
  EXPECT_EQ(text,
            "[\n  -9223372036854775808,\n  18446744073709551615,\n"
            "  5e-324,\n  null,\n"
            "  \"\\u0000\\u0008\\u000c\x7f\\\"\\\\\",\n  {},\n  []\n]\n");
  const Json back = Json::parse(text);
  EXPECT_EQ(back.at(std::size_t{0}).as_int64(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(back.at(std::size_t{1}).as_uint64(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(back.at(std::size_t{2}).as_double(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(back.at(std::size_t{3}).is_null());
  EXPECT_EQ(back.at(std::size_t{4}).as_string(), every_escape);
  EXPECT_EQ(back.dump(), text);

  // -0.0 keeps its fraction, so it reads back as the double -0.0 rather
  // than as the integer 0 that "-0" spells in JSON's grammar.
  EXPECT_EQ(Json(-0.0).dump(), "-0.0\n");
  const Json zero = Json::parse(Json(-0.0).dump());
  EXPECT_TRUE(std::signbit(zero.as_double()));
  EXPECT_EQ(zero.dump(), "-0.0\n");
  EXPECT_EQ(Json::parse("-0").dump(), "0\n");  // the integer stays one
}

TEST(Json, CopiesAreIndependent) {
  Json inner = Json::array();
  inner.push(1).push("two");
  Json original = Json::object();
  original.set("n", 1).set("list", std::move(inner)).set("s", "text");
  const std::string text = original.dump();

  Json copy = original;
  EXPECT_EQ(copy.dump(), text);
  copy.set("n", 2).set("added", true);
  EXPECT_EQ(original.dump(), text);

  Json assigned;
  assigned = original;
  EXPECT_EQ(assigned.dump(), text);
  original.set("s", Json::array());
  EXPECT_EQ(assigned.dump(), text);
  EXPECT_EQ(copy.at("list").dump(), assigned.at("list").dump());
}

TEST(Json, MovedFromValuesStayUsable) {
  Json source = Json::object();
  source.set("k", "a string long enough to live on the heap")
      .set("nested", Json::array());
  const std::string text = source.dump();

  Json target = std::move(source);
  EXPECT_EQ(target.dump(), text);
  (void)source.dump();  // valid but unspecified: dumps without crashing
  source = Json::array();
  source.push(7);
  EXPECT_EQ(source.dump(), "[\n  7\n]\n");

  Json assigned;
  assigned = std::move(target);
  EXPECT_EQ(assigned.dump(), text);
  target = Json("reused");
  EXPECT_EQ(target.dump(), "\"reused\"\n");
  // `assigned`, moved from again, is destroyed at scope end.
  Json destroyed = std::move(assigned);
  EXPECT_EQ(destroyed.dump(), text);
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
  // An overwrite keeps the key's position whatever the kinds involved.
  j.set("z", Json::array()).set("y", Json::object()).set("z", "s");
  j.set("x", Json());
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.dump(),
            "{\n  \"x\": null,\n  \"y\": {},\n  \"z\": \"s\"\n}\n");
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
  EXPECT_EQ(Json::parse("-0.0").dump(), "-0.0\n");
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

// `depth` nested containers around an empty array, alternating with
// single-key objects on the way out.
std::string nested(int depth) {
  std::string text = "[]";
  for (int i = 1; i < depth; ++i)
    text = i % 2 == 1 ? "{\"k\": " + text + "}" : "[" + text + "]";
  return text;
}

std::string parse_error(const std::string& text) {
  try {
    (void)Json::parse(text);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Json, ParseBoundsTheNestingDepth) {
  // At the limit the document parses, and round-trips.
  const Json deepest = Json::parse(nested(Json::kMaxDepth));
  EXPECT_EQ(Json::parse(deepest.dump()).dump(), deepest.dump());
  int levels = 1;
  for (const Json* level = &deepest; level->size() > 0; ++levels)
    level = level->is_object() ? &level->at("k") : &level->at(std::size_t{0});
  EXPECT_EQ(levels, Json::kMaxDepth);

  // One past it is corruption, reported at the container that opens it.
  const std::string past = nested(Json::kMaxDepth + 1);
  std::size_t opener = 0;
  for (int opened = 0; opened <= Json::kMaxDepth; ++opener)
    opened += past[opener] == '[' || past[opener] == '{';
  --opener;
  const std::string msg = parse_error(past);
  EXPECT_NE(msg.find("at offset " + std::to_string(opener) +
                     ": nesting deeper than 512 levels"),
            std::string::npos)
      << msg;

  // A million levels, of either kind, is a CheckError, not a stack
  // overflow.
  EXPECT_NE(parse_error(std::string(1'000'000, '[')).find("nesting deeper"),
            std::string::npos);
  std::string objects;
  for (int i = 0; i < 1'000'000; ++i) objects += "{\"a\":";
  EXPECT_NE(parse_error(objects).find("nesting deeper"), std::string::npos);
}

// An object of `n` members "k0".."k<n-1>", with `dup` (when not empty)
// inserted as an extra key before member `at`.
std::string wide_object(int n, const std::string& dup = "", int at = 0) {
  std::string text = "{";
  for (int i = 0; i < n; ++i) {
    if (i == at && !dup.empty()) text += "\"" + dup + "\": -1, ";
    text += "\"k" + std::to_string(i) + "\": " + std::to_string(i);
    text += i + 1 < n ? ", " : "}";
  }
  return text;
}

TEST(Json, ParseChecksWideObjectsForDuplicatesInLinearTime) {
  const std::string wide = wide_object(100'000);
  const auto t0 = std::chrono::steady_clock::now();
  const Json doc = Json::parse(wide);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_LT(seconds, 1.0);
  ASSERT_EQ(doc.size(), 100'000u);
  EXPECT_EQ(doc.at("k99999").as_int64(), 99'999);

  // A duplicate is caught wherever it sits, in a small object (compared
  // key by key) or a large one (hashed), and reported right after the
  // repeated key like the first duplicate in document order.
  const struct {
    int members, at;
    std::string dup;
  } cases[] = {{100'000, 1, "k0"},          {100'000, 50'001, "k50000"},
               {100'000, 99'999, "k99998"}, {100'000, 3, "k99999"},
               {8, 5, "k2"},                {40, 39, "k0"}};
  for (const auto& c : cases) {
    const std::string text = wide_object(c.members, c.dup, c.at);
    // The key occurs twice; the parser stops just past the second.
    const std::string key = "\"" + c.dup + "\"";
    const std::size_t repeat = text.find(key, text.find(key) + 1);
    const std::string msg = parse_error(text);
    EXPECT_NE(msg.find("at offset " + std::to_string(repeat + key.size()) +
                       ": duplicate key " + key),
              std::string::npos)
        << c.dup << " before member " << c.at << " of " << c.members << ": "
        << msg;
  }
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
