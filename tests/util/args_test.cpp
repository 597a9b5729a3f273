#include "ftspm/util/args.h"

#include <gtest/gtest.h>

#include "ftspm/util/error.h"

namespace ftspm {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return {args};
}

TEST(ArgParserTest, FlagsAndDefaults) {
  ArgParser p("demo", "test");
  p.add_flag("verbose", "talk more");
  p.add_option("count", "how many", "7");
  const auto argv = argv_of({"demo", "--verbose"});
  p.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(p.flag("verbose"));
  EXPECT_EQ(p.option("count"), "7");
  EXPECT_EQ(p.option_uint("count"), 7u);
}

TEST(ArgParserTest, OptionWithSeparateValue) {
  ArgParser p("demo", "test");
  p.add_option("count", "how many", "0");
  const auto argv = argv_of({"demo", "--count", "42"});
  p.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(p.option_uint("count"), 42u);
}

TEST(ArgParserTest, OptionWithEqualsValue) {
  ArgParser p("demo", "test");
  p.add_option("ratio", "a ratio", "0.5");
  const auto argv = argv_of({"demo", "--ratio=0.25"});
  p.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_DOUBLE_EQ(p.option_double("ratio"), 0.25);
}

TEST(ArgParserTest, PositionalsArePreserved) {
  ArgParser p("demo", "test");
  p.add_flag("x", "x");
  const auto argv = argv_of({"demo", "first", "--x", "second"});
  p.parse(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(p.positionals().size(), 2u);
  EXPECT_EQ(p.positionals()[0], "first");
  EXPECT_EQ(p.positionals()[1], "second");
}

TEST(ArgParserTest, StartOffsetSkipsSubcommand) {
  ArgParser p("demo", "test");
  p.add_option("n", "n", "1");
  const auto argv = argv_of({"demo", "subcmd", "--n", "3"});
  p.parse(static_cast<int>(argv.size()), argv.data(), 2);
  EXPECT_EQ(p.option_uint("n"), 3u);
  EXPECT_TRUE(p.positionals().empty());
}

TEST(ArgParserTest, UnknownOptionThrows) {
  ArgParser p("demo", "test");
  const auto argv = argv_of({"demo", "--nope"});
  EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()),
               InvalidArgument);
}

TEST(ArgParserTest, MissingValueThrows) {
  ArgParser p("demo", "test");
  p.add_option("count", "how many", "0");
  const auto argv = argv_of({"demo", "--count"});
  EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()),
               InvalidArgument);
}

TEST(ArgParserTest, FlagWithValueThrows) {
  ArgParser p("demo", "test");
  p.add_flag("verbose", "talk");
  const auto argv = argv_of({"demo", "--verbose=yes"});
  EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()),
               InvalidArgument);
}

TEST(ArgParserTest, BadNumbersThrow) {
  ArgParser p("demo", "test");
  p.add_option("count", "n", "x7");
  p.add_option("ratio", "r", "1.2.3");
  const auto argv = argv_of({"demo"});
  p.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_THROW(p.option_uint("count"), InvalidArgument);
  EXPECT_THROW(p.option_double("ratio"), InvalidArgument);
}

TEST(ArgParserTest, OptionDoubleRejectsNonFiniteAndExoticSpellings) {
  // strtod alone accepts all of these; a rate or probability flag must
  // not. "1e999" has a plain-decimal shape but overflows to inf, so the
  // finiteness check has to run on the parsed value too.
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "INF", "-inf",
                          "infinity", "0x1p3", "0X1.8P1", "1e999", " 1.5",
                          "1.5 ", "1.5x", ".e3", "e3", "1e", "", "+", "-"}) {
    ArgParser p("demo", "test");
    p.add_option("rate", "r", "0");
    const char* argv[] = {"demo", "--rate", bad};
    p.parse(3, argv);
    EXPECT_THROW(p.option_double("rate"), InvalidArgument) << "'" << bad << "'";
  }
}

TEST(ArgParserTest, OptionDoubleAcceptsPlainDecimalForms) {
  for (const char* good : {"0", "-0.5", "+2.25", "1.", ".5", "3e2", "1.5E-3"}) {
    ArgParser p("demo", "test");
    p.add_option("rate", "r", "0");
    const char* argv[] = {"demo", "--rate", good};
    p.parse(3, argv);
    EXPECT_NO_THROW(p.option_double("rate")) << "'" << good << "'";
  }
}

TEST(ArgParserTest, BoundedOptionDoubleEnforcesTheRange) {
  const auto parse_with = [](const char* value) {
    ArgParser p("demo", "test");
    p.add_option("occupancy", "o", "1.0");
    const char* argv[] = {"demo", "--occupancy", value};
    p.parse(3, argv);
    return p;
  };
  EXPECT_DOUBLE_EQ(parse_with("0.25").option_double("occupancy", 0.0, 1.0),
                   0.25);
  // Both endpoints are inside the range.
  EXPECT_DOUBLE_EQ(parse_with("0").option_double("occupancy", 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(parse_with("1").option_double("occupancy", 0.0, 1.0), 1.0);
  EXPECT_THROW(parse_with("1.5").option_double("occupancy", 0.0, 1.0),
               InvalidArgument);
  EXPECT_THROW(parse_with("-0.1").option_double("occupancy", 0.0, 1.0),
               InvalidArgument);
  // The bounded form keeps the strict-parse rejections too.
  EXPECT_THROW(parse_with("nan").option_double("occupancy", 0.0, 1.0),
               InvalidArgument);
}

TEST(ArgParserTest, OptionUintAcceptsPlainDigitsOnly) {
  ArgParser p("demo", "test");
  p.add_option("n", "count", "0");
  const auto argv = argv_of({"demo", "--n", "42"});
  p.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(p.option_uint("n"), 42u);
  EXPECT_EQ(p.option_uint("n", 42), 42u);  // At the cap is fine.
}

TEST(ArgParserTest, OptionUintRejectsSignsGarbageAndOverflow) {
  // strtoull would wrap "-4" and skip the space in " 4"; option_uint
  // is the strict spelling the CLI uses for every count-like flag.
  for (const char* bad : {"-4", "+4", " 4", "4x", "4.0", "", "x",
                          "18446744073709551616" /* 2^64 */}) {
    ArgParser p("demo", "test");
    p.add_option("n", "count", "0");
    const char* argv[] = {"demo", "--n", bad};
    p.parse(3, argv);
    EXPECT_THROW(p.option_uint("n"), InvalidArgument) << "'" << bad << "'";
  }
}

TEST(ArgParserTest, OptionUintEnforcesTheCap) {
  ArgParser p("demo", "test");
  p.add_option("n", "count", "100");
  const auto argv = argv_of({"demo"});
  p.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_THROW(p.option_uint("n", 99), InvalidArgument);
}

TEST(ArgParserTest, TypeConfusionThrows) {
  ArgParser p("demo", "test");
  p.add_flag("verbose", "talk");
  p.add_option("count", "n", "1");
  const auto argv = argv_of({"demo"});
  p.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_THROW(p.flag("count"), InvalidArgument);
  EXPECT_THROW(p.option("verbose"), InvalidArgument);
}

TEST(ArgParserTest, DuplicateRegistrationThrows) {
  ArgParser p("demo", "test");
  p.add_flag("x", "x");
  EXPECT_THROW(p.add_option("x", "again", "1"), InvalidArgument);
}

TEST(ArgParserTest, UsageListsOptionsInOrder) {
  ArgParser p("demo", "a test program");
  p.add_flag("alpha", "first");
  p.add_option("beta", "second", "5");
  const std::string u = p.usage();
  EXPECT_NE(u.find("demo — a test program"), std::string::npos);
  const auto alpha = u.find("--alpha");
  const auto beta = u.find("--beta");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(beta, std::string::npos);
  EXPECT_LT(alpha, beta);
  EXPECT_NE(u.find("default: 5"), std::string::npos);
}

}  // namespace
}  // namespace ftspm
