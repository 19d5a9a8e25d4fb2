#include "query/lexer.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace webmon {
namespace {

TEST(LexerTest, TokenizesKeywordsCaseInsensitively) {
  auto tokens = Tokenize("select ITEM As from");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);  // 4 + end
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "ITEM");
  EXPECT_EQ((*tokens)[2].text, "AS");
  EXPECT_EQ((*tokens)[3].text, "FROM");
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kEnd);
}

TEST(LexerTest, IdentifiersKeepTheirCase) {
  auto tokens = Tokenize("MishBlog F1 T1 money.cnn");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "MishBlog");
  EXPECT_EQ((*tokens)[3].text, "money.cnn");
}

TEST(LexerTest, NumbersAndSymbols) {
  auto tokens = Tokenize("( 10 ) + ; 42");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kLParen);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kNumber);
  EXPECT_EQ((*tokens)[1].value, 10);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kRParen);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kPlus);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kSemicolon);
  EXPECT_EQ((*tokens)[5].value, 42);
}

TEST(LexerTest, Patterns) {
  auto tokens = Tokenize("%oil%");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kPattern);
  EXPECT_EQ((*tokens)[0].text, "oil");
}

TEST(LexerTest, PatternWithSpaces) {
  auto tokens = Tokenize("%crude oil%");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "crude oil");
}

TEST(LexerTest, UnterminatedPatternRejected) {
  EXPECT_FALSE(Tokenize("%oil").ok());
}

TEST(LexerTest, EmptyPatternRejected) {
  EXPECT_FALSE(Tokenize("%%").ok());
}

TEST(LexerTest, UnexpectedCharacterRejected) {
  auto result = Tokenize("SELECT @");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("offset 7"), std::string::npos);
}

TEST(LexerTest, NumberPastInt64RejectedAtItsOffset) {
  auto largest = Tokenize("9223372036854775807");
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ((*largest)[0].value, INT64_MAX);

  for (const char* input :
       {"EVERY 9223372036854775808", "EVERY 99999999999999999999"}) {
    auto result = Tokenize(input);
    ASSERT_FALSE(result.ok()) << input;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("out of range at offset 6"),
              std::string::npos)
        << result.status();
  }
}

TEST(LexerTest, EmptyInputYieldsOnlyEnd) {
  auto tokens = Tokenize("   \n\t ");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kEnd);
}

TEST(LexerTest, PushIsKeyword) {
  EXPECT_TRUE(IsKeyword("PUSH"));
  EXPECT_TRUE(IsKeyword("EVERY"));
  EXPECT_FALSE(IsKeyword("OIL"));
}

}  // namespace
}  // namespace webmon
