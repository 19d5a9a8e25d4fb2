// Robustness: the lexer and parser must reject arbitrary garbage with an
// error Status — never crash, hang, or accept nonsense.

#include <string>

#include <gtest/gtest.h>

#include "query/parser.h"
#include "util/rng.h"

namespace webmon {
namespace {

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(0xF022);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t len = rng.UniformU64(120);
    std::string input;
    input.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      // Printable-ish ASCII plus some whitespace.
      input.push_back(static_cast<char>(32 + rng.UniformU64(95)));
    }
    auto result = ParseQueries(input);
    // Whatever happens, it must be a clean Status, and random noise
    // essentially never forms a valid program.
    if (result.ok()) {
      // If it parsed, it must re-parse from its own ToString.
      for (const auto& q : *result) {
        EXPECT_TRUE(ParseQuery(q.ToString()).ok()) << q.ToString();
      }
    }
  }
}

TEST(ParserFuzzTest, TokenSoupNeverCrashes) {
  // Shuffled fragments of VALID queries: structurally plausible garbage.
  const std::vector<std::string> fragments = {
      "SELECT", "item",  "AS",     "F1",     "FROM",   "feed",  "(",
      ")",      "WHEN",  "EVERY",  "10",     "WITHIN", "T1",    "+",
      "2",      "%oil%", "ON",     "PUSH",   "NOTIFY", ";",     "CONTAINS",
      "F2",     "Blog",  "MINUTES"};
  Rng rng(0xF023);
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    const size_t parts = 1 + rng.UniformU64(18);
    for (size_t i = 0; i < parts; ++i) {
      input += fragments[rng.UniformU64(fragments.size())];
      input += ' ';
    }
    auto result = ParseQueries(input);
    if (result.ok()) {
      for (const auto& q : *result) {
        EXPECT_TRUE(ParseQuery(q.ToString()).ok()) << q.ToString();
      }
    }
  }
}

TEST(ParserFuzzTest, DeeplyNestedAndLongInputsBounded) {
  // Very long single-token and many-query inputs parse or fail fast.
  std::string long_ident(10000, 'a');
  EXPECT_FALSE(ParseQueries("SELECT item AS " + long_ident).ok());
  // Digit runs past int64 are syntax errors, not uncaught exceptions.
  EXPECT_FALSE(
      ParseQueries("SELECT price FROM auction EVERY 99999999999999999999")
          .ok());
  EXPECT_FALSE(ParseQueries("SELECT item AS F1 FROM feed(X) WHEN EVERY " +
                            std::string(10000, '7'))
                   .ok());

  std::string many;
  for (int i = 0; i < 500; ++i) {
    many += "SELECT item AS F" + std::to_string(i) +
            " FROM feed(X) WHEN EVERY 5;";
  }
  auto result = ParseQueries(many);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 500u);
}

}  // namespace
}  // namespace webmon
