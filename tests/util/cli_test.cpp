#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>

#include "util/check.hpp"

namespace vexsim {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, SpaceSeparatedValue) {
  const Cli cli = make({"--budget", "1000"});
  EXPECT_EQ(cli.get_int("budget", 0), 1000);
}

TEST(Cli, EqualsValue) {
  const Cli cli = make({"--scale=0.5"});
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.5);
}

TEST(Cli, BooleanFlag) {
  const Cli cli = make({"--paper"});
  EXPECT_TRUE(cli.get_bool("paper", false));
  EXPECT_TRUE(cli.has("paper"));
  EXPECT_FALSE(cli.has("quick"));
}

TEST(Cli, BooleanValuesAreStrict) {
  const auto get = [](std::initializer_list<const char*> args) {
    return make(args).get_bool("quick", false);
  };
  for (const char* yes : {"true", "1", "yes"})
    EXPECT_TRUE(get({"--quick", yes})) << yes;
  for (const char* no : {"false", "0", "no"})
    EXPECT_FALSE(make({"--quick", no}).get_bool("quick", true)) << no;
  // A lenient parse read each of these as false and ran the full defaults;
  // `--quick llhh` also swallowed what was meant as a positional argument.
  for (const char* bad : {"banana", "llhh", "", "TRUE", "2", "on"}) {
    const std::string arg = std::string("--quick=") + bad;
    try {
      (void)get({arg.c_str()});
      FAIL() << "expected CheckError for " << arg;
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--quick"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
  }
  EXPECT_THROW((void)get({"--quick", "llhh"}), CheckError);
}

TEST(Cli, DefaultsWhenAbsent) {
  const Cli cli = make({});
  EXPECT_EQ(cli.get_int("budget", 42), 42);
  EXPECT_EQ(cli.get("name", "x"), "x");
  EXPECT_FALSE(cli.get_bool("flag", false));
}

TEST(Cli, Positional) {
  const Cli cli = make({"llhh", "--seed", "7", "mmhh"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "llhh");
  EXPECT_EQ(cli.positional()[1], "mmhh");
  EXPECT_EQ(cli.get_int("seed", 0), 7);
}

TEST(Cli, HexIntegers) {
  const Cli cli = make({"--base=0x1000"});
  EXPECT_EQ(cli.get_int("base", 0), 0x1000);
}

TEST(Cli, JobsParsesPositiveValues) {
  EXPECT_EQ(make({"--jobs", "8"}).jobs(), 8);
  EXPECT_EQ(make({"--jobs=2"}).jobs(), 2);
}

TEST(Cli, JobsDefaultsWhenAbsent) {
  EXPECT_EQ(make({}).jobs(), 1);
  EXPECT_EQ(make({}).jobs(4), 4);
}

TEST(Cli, JobsRejectsZeroAndNegative) {
  EXPECT_THROW((void)make({"--jobs", "0"}).jobs(), CheckError);
  EXPECT_THROW((void)make({"--jobs", "-3"}).jobs(), CheckError);
}

TEST(Cli, JobsRejectsGarbage) {
  EXPECT_THROW((void)make({"--jobs", "many"}).jobs(), CheckError);
  EXPECT_THROW((void)make({"--jobs", "4x"}).jobs(), CheckError);
  EXPECT_THROW((void)make({"--jobs"}).jobs(), CheckError);  // bare flag -> "true"
}

TEST(Cli, DuplicateOptionIsHardError) {
  // Last-wins would let `--seed 1 --seed 2` (or a typo'd flag that lands on
  // an already-used name) silently mask a sweep misconfiguration.
  EXPECT_THROW(make({"--seed", "1", "--seed", "2"}), CheckError);
  EXPECT_THROW(make({"--flag=a", "--flag=b"}), CheckError);
  EXPECT_THROW(make({"--quick", "--quick"}), CheckError);
  EXPECT_THROW(make({"--jobs=4", "--jobs", "8"}), CheckError);
  try {
    make({"--seed=1", "--seed=2"});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate option --seed"), std::string::npos) << what;
    EXPECT_NE(what.find("'1'"), std::string::npos) << what;
    EXPECT_NE(what.find("'2'"), std::string::npos) << what;
  }
  // Distinct options are unaffected.
  const Cli ok = make({"--seed", "1", "--budget", "2"});
  EXPECT_EQ(ok.get_int("seed", 0), 1);
  EXPECT_EQ(ok.get_int("budget", 0), 2);
}

TEST(Cli, JobsRejectsOverflow) {
  EXPECT_THROW((void)make({"--jobs", "2147483648"}).jobs(), CheckError);
  EXPECT_THROW((void)make({"--jobs", "4294967297"}).jobs(), CheckError);
  EXPECT_EQ(make({"--jobs", "2147483647"}).jobs(), 2147483647);
}

TEST(Cli, IntegersMustBeOneWholeNumber) {
  // A lenient parse would read "abc" as 0, "2x" as 2, "2e6" as 2 and a
  // bare flag as 0.
  const auto get = [](std::initializer_list<const char*> args) {
    return make(args).get_int("n", 0);
  };
  EXPECT_THROW((void)get({"--n", "abc"}), CheckError);
  EXPECT_THROW((void)get({"--n", "2x"}), CheckError);
  EXPECT_THROW((void)get({"--n", "2e6"}), CheckError);
  EXPECT_THROW((void)get({"--n"}), CheckError);
  EXPECT_THROW((void)get({"--n="}), CheckError);
  EXPECT_THROW((void)get({"--n", " 5"}), CheckError);
  EXPECT_THROW((void)get({"--n", "9223372036854775808"}), CheckError);
  EXPECT_EQ(get({"--n", "9223372036854775807"}), INT64_MAX);
  EXPECT_EQ(get({"--n", "-3"}), -3);
  EXPECT_EQ(get({"--n", "010"}), 8);  // base 0: a leading 0 is octal
}

TEST(Cli, DoublesMustBeOneFiniteNumber) {
  const auto get = [](std::initializer_list<const char*> args) {
    return make(args).get_double("x", 1.0);
  };
  EXPECT_DOUBLE_EQ(get({"--x", "2e-1"}), 0.2);
  EXPECT_DOUBLE_EQ(get({"--x", "3"}), 3.0);
  EXPECT_THROW((void)get({"--x", "abc"}), CheckError);
  EXPECT_THROW((void)get({"--x", "0.5x"}), CheckError);
  EXPECT_THROW((void)get({"--x"}), CheckError);
  EXPECT_THROW((void)get({"--x", "inf"}), CheckError);
  EXPECT_THROW((void)get({"--x", "nan"}), CheckError);
  EXPECT_THROW((void)get({"--x", "1e999"}), CheckError);
}

TEST(Cli, NumberErrorNamesTheFlag) {
  try {
    (void)make({"--timeout", "abc"}).get_int("timeout", 0);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--timeout"), std::string::npos) << what;
    EXPECT_NE(what.find("'abc'"), std::string::npos) << what;
  }
}

TEST(Cli, GetIntInChecksTheRangeBeforeNarrowing) {
  EXPECT_EQ(make({"--n", "7"}).get_int_in("n", 0, 0, 10), 7);
  EXPECT_EQ(make({}).get_int_in("n", 3, 0, 10), 3);
  EXPECT_THROW((void)make({"--n", "11"}).get_int_in("n", 0, 0, 10),
               CheckError);
  EXPECT_THROW((void)make({"--n", "4294967297"}).get_int_in("n", 0, 0, INT_MAX),
               CheckError);
}

TEST(Cli, GetPositiveRejectsValuesBelowOne) {
  EXPECT_EQ(make({"--n", "4294967297"}).get_positive("n", 1), 4294967297u);
  // An absent flag keeps a default beyond int64 (an unbounded run).
  EXPECT_EQ(make({}).get_positive("n", ~0ull), ~0ull);
  EXPECT_THROW((void)make({"--n", "0"}).get_positive("n", 1), CheckError);
  try {
    (void)make({"--n", "-1"}).get_positive("n", 1);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--n"), std::string::npos) << what;
  }
}

TEST(Cli, RejectUnknownNamesEveryUnreadOption) {
  const Cli cli = make({"--quick", "--cahce", "typo-dir", "--jsn=x.json"});
  EXPECT_TRUE(cli.get_bool("quick", false));
  EXPECT_FALSE(cli.has("cache"));
  try {
    cli.reject_unknown();
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown options --cahce, --jsn"), std::string::npos)
        << what;
    // The message lists what the program does read, typo's target included.
    EXPECT_NE(what.find("reads --cache, --quick"), std::string::npos) << what;
  }
  // Once the program has looked a flag up, it is no longer unknown.
  (void)cli.get("cahce", "");
  (void)cli.get("jsn", "");
  EXPECT_NO_THROW(cli.reject_unknown());
}

TEST(Cli, EveryLookupCountsAsARead) {
  const Cli cli = make({"--a", "--b", "x", "--c", "1", "--d", "2.5", "--e",
                        "3", "--f", "4", "--jobs", "2", "--g"});
  EXPECT_TRUE(cli.has("a"));
  EXPECT_EQ(cli.get("b", ""), "x");
  EXPECT_EQ(cli.get_int("c", 0), 1);
  EXPECT_DOUBLE_EQ(cli.get_double("d", 0.0), 2.5);
  EXPECT_EQ(cli.get_int_in("e", 0, 0, 10), 3);
  EXPECT_EQ(cli.get_positive("f", 1), 4u);
  EXPECT_EQ(cli.jobs(), 2);
  EXPECT_TRUE(cli.get_bool("g", false));
  EXPECT_NO_THROW(cli.reject_unknown());
  // Looking up an absent flag lists it among the flags the program reads.
  const Cli other = make({"--y"});
  EXPECT_FALSE(other.has("x"));
  try {
    other.reject_unknown();
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown option --y; this program reads --x"),
              std::string::npos)
        << what;
  }
}

TEST(Cli, RejectUnknownIgnoresPositionalArguments) {
  const Cli cli = make({"shard1.json", "--out", "m.json", "shard2.json"});
  EXPECT_EQ(cli.get("out", ""), "m.json");
  EXPECT_NO_THROW(cli.reject_unknown());
  EXPECT_NO_THROW(make({"a", "b"}).reject_unknown());
}

}  // namespace
}  // namespace vexsim
