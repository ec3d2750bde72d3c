// Copyright 2026 The pkgstream Authors.
// Unit tests for the command-line flag parser.

#include <gtest/gtest.h>

#include "common/flags.h"

namespace pkgstream {
namespace {

Flags ParseOk(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  Flags flags;
  Status s =
      Flags::Parse(static_cast<int>(argv.size()), argv.data(), &flags);
  EXPECT_TRUE(s.ok()) << s;
  return flags;
}

TEST(FlagsTest, EmptyArgv) {
  Flags f = ParseOk({});
  EXPECT_TRUE(f.positional().empty());
  EXPECT_FALSE(f.Has("anything"));
}

TEST(FlagsTest, EqualsForm) {
  Flags f = ParseOk({"--workers=50"});
  EXPECT_EQ(f.GetInt("workers", 0), 50);
}

TEST(FlagsTest, SpaceForm) {
  Flags f = ParseOk({"--workers", "10"});
  EXPECT_EQ(f.GetInt("workers", 0), 10);
}

TEST(FlagsTest, BooleanSwitch) {
  Flags f = ParseOk({"--full"});
  EXPECT_TRUE(f.GetBool("full", false));
  EXPECT_TRUE(f.Has("full"));
}

TEST(FlagsTest, BooleanExplicitValues) {
  EXPECT_TRUE(ParseOk({"--x=true"}).GetBool("x", false));
  EXPECT_TRUE(ParseOk({"--x=1"}).GetBool("x", false));
  EXPECT_TRUE(ParseOk({"--x=yes"}).GetBool("x", false));
  EXPECT_FALSE(ParseOk({"--x=0"}).GetBool("x", true));
  EXPECT_FALSE(ParseOk({"--x=false"}).GetBool("x", true));
}

TEST(FlagsTest, DoubleValues) {
  Flags f = ParseOk({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(f.GetDouble("scale", 1.0), 0.25);
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = ParseOk({});
  EXPECT_EQ(f.GetInt("n", 5), 5);
  EXPECT_DOUBLE_EQ(f.GetDouble("d", 2.5), 2.5);
  EXPECT_EQ(f.GetString("s", "x"), "x");
  EXPECT_FALSE(f.GetBool("b", false));
}

TEST(FlagsTest, MalformedIntegerFallsBack) {
  Flags f = ParseOk({"--n=12abc"});
  EXPECT_EQ(f.GetInt("n", 7), 7);
}

TEST(FlagsTest, PositionalArguments) {
  Flags f = ParseOk({"input.trace", "--workers=3", "output.csv"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.trace");
  EXPECT_EQ(f.positional()[1], "output.csv");
}

TEST(FlagsTest, DoubleDashStopsFlagParsing) {
  Flags f = ParseOk({"--a=1", "--", "--b=2"});
  EXPECT_TRUE(f.Has("a"));
  EXPECT_FALSE(f.Has("b"));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "--b=2");
}

TEST(FlagsTest, SpaceFormDoesNotEatNextFlag) {
  Flags f = ParseOk({"--verbose", "--workers=2"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_EQ(f.GetInt("workers", 0), 2);
}

TEST(FlagsTest, LastValueWins) {
  Flags f = ParseOk({"--n=1", "--n=2"});
  EXPECT_EQ(f.GetInt("n", 0), 2);
}

TEST(FlagsTest, MalformedFlagRejected) {
  const char* argv[] = {"prog", "--=3"};
  Flags flags;
  EXPECT_TRUE(Flags::Parse(2, argv, &flags).IsInvalidArgument());
}

TEST(FlagsTest, NamesListsAllFlags) {
  Flags f = ParseOk({"--b=1", "--a=2"});
  auto names = f.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // map order: sorted
  EXPECT_EQ(names[1], "b");
}

TEST(FlagsTest, NegativeNumbersAsValues) {
  Flags f = ParseOk({"--offset=-5"});
  EXPECT_EQ(f.GetInt("offset", 0), -5);
}

// GetIntInRange: the checked reader behind every count and seed flag of the
// benches and examples. A bad value exits 2 naming the flag.

TEST(FlagsTest, IntInRangeDefaultsWhenAbsentOrEmpty) {
  EXPECT_EQ(ParseOk({}).GetIntInRange("n", 5, 1, 10), 5u);
  EXPECT_EQ(ParseOk({"--n="}).GetIntInRange("n", 5, 1, 10), 5u);
}

TEST(FlagsTest, IntInRangeAcceptsItsBounds) {
  EXPECT_EQ(ParseOk({"--n=1"}).GetIntInRange("n", 5, 1, 10), 1u);
  EXPECT_EQ(ParseOk({"--n=10"}).GetIntInRange("n", 5, 1, 10), 10u);
  EXPECT_EQ(ParseOk({"--seed=0"}).GetIntInRange("seed", 42, 0, kMaxIntFlag),
            0u);
  EXPECT_EQ(ParseOk({"--seed=9223372036854775807"})
                .GetIntInRange("seed", 42, 0, kMaxIntFlag),
            kMaxIntFlag);
}

TEST(FlagsDeathTest, IntInRangeRejectsSuffixedNumber) {
  Flags f = ParseOk({"--messages=4k"});
  EXPECT_EXIT(f.GetIntInRange("messages", 1000, 1, 100000),
              testing::ExitedWithCode(2), "flag error: --messages=4k ");
}

TEST(FlagsDeathTest, IntInRangeRejectsNegative) {
  Flags f = ParseOk({"--seed=-1"});
  EXPECT_EXIT(f.GetIntInRange("seed", 42, 0, kMaxIntFlag),
              testing::ExitedWithCode(2), "flag error: --seed=-1 ");
}

TEST(FlagsDeathTest, IntInRangeRejectsBelowMin) {
  Flags f = ParseOk({"--workers=0"});
  EXPECT_EXIT(f.GetIntInRange("workers", 8, 1, 64),
              testing::ExitedWithCode(2), "flag error: --workers=0 ");
}

TEST(FlagsDeathTest, IntInRangeRejectsAboveMax) {
  Flags f = ParseOk({"--workers=65"});
  EXPECT_EXIT(f.GetIntInRange("workers", 8, 1, 64),
              testing::ExitedWithCode(2), "flag error: --workers=65 ");
}

TEST(FlagsDeathTest, IntInRangeRejectsOverflow) {
  // 20 digits: past 2^63-1, where strtoll saturates and reports ERANGE.
  Flags f = ParseOk({"--seed=18446744073709551616"});
  EXPECT_EXIT(f.GetIntInRange("seed", 42, 0, kMaxIntFlag),
              testing::ExitedWithCode(2),
              "flag error: --seed=18446744073709551616 ");
}

}  // namespace
}  // namespace pkgstream
