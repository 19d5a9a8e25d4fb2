#include "util/string_util.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace webmon {
namespace {

TEST(SplitTest, Basic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoSeparator) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("\t\nx\r "), "x");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("webmon-trace", "webmon"));
  EXPECT_FALSE(StartsWith("web", "webmon"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(ContainsIgnoreCaseTest, MatchesThePaperPredicate) {
  // The paper's q2: WHEN F1 CONTAINS %oil%.
  EXPECT_TRUE(ContainsIgnoreCase("Crude OIL spikes again", "oil"));
  EXPECT_TRUE(ContainsIgnoreCase("oil", "OIL"));
  EXPECT_FALSE(ContainsIgnoreCase("gold rally", "oil"));
  EXPECT_TRUE(ContainsIgnoreCase("anything", ""));
  EXPECT_FALSE(ContainsIgnoreCase("", "oil"));
}

TEST(ParseInt64Test, Valid) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
}

TEST(ParseInt64Test, Invalid) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(ParseDoubleTest, Valid) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.14", &v));
  EXPECT_DOUBLE_EQ(v, 3.14);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
}

TEST(ParseDoubleTest, Invalid) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("pi", &v));
  EXPECT_FALSE(ParseDouble("1.5z", &v));
}

// The encoders' number form, pinned: integers exactly, doubles as
// "%.17g" writes them. 0.1 is the long 17-digit case.
TEST(AppendNumberTest, PinsIntegerAndDoubleBytes) {
  std::string out;
  AppendNumber(&out, uint64_t{18446744073709551615u});
  out += ' ';
  AppendNumber(&out, int64_t{-9223372036854775807 - 1});
  out += ' ';
  AppendNumber(&out, uint32_t{0});
  out += ' ';
  AppendNumber(&out, 0.1);
  out += ' ';
  AppendNumber(&out, 1.5);
  out += ' ';
  AppendNumber(&out, 1.0);
  out += ' ';
  AppendNumber(&out, 1e-300);
  out += ' ';
  AppendNumber(&out, -0.0);
  out += ' ';
  AppendNumber(&out, 12345678901234567890.0);
  EXPECT_EQ(out,
            "18446744073709551615 -9223372036854775808 0 "
            "0.10000000000000001 1.5 1 1e-300 -0 1.2345678901234567e+19");
}

}  // namespace
}  // namespace webmon
