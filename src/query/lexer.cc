#include "query/lexer.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <sstream>

namespace webmon {

namespace {

constexpr std::array<const char*, 14> kKeywords = {
    "SELECT", "ITEM",     "AS",      "FROM",    "FEED",
    "WHEN",   "EVERY",    "WITHIN",  "ON",      "CONTAINS",
    "MINUTES", "SECONDS", "CHRONONS", "NOTIFY",
};
// "PUSH" is also a keyword; listed separately to keep the array size tidy.
constexpr const char* kPushKeyword = "PUSH";

std::string Upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

}  // namespace

bool IsKeyword(const std::string& word) {
  if (word == kPushKeyword) return true;
  return std::find_if(kKeywords.begin(), kKeywords.end(),
                      [&](const char* k) { return word == k; }) !=
         kKeywords.end();
}

const char* TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kKeyword:
      return "keyword";
    case TokenKind::kIdentifier:
      return "identifier";
    case TokenKind::kNumber:
      return "number";
    case TokenKind::kPattern:
      return "pattern";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kPlus:
      return "'+'";
    case TokenKind::kSemicolon:
      return "';'";
    case TokenKind::kEnd:
      return "end of input";
  }
  return "?";
}

std::string Token::ToString() const {
  std::ostringstream os;
  os << TokenKindToString(kind);
  if (!text.empty()) os << " '" << text << "'";
  return os.str();
}

StatusOr<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  auto error_at = [&](size_t pos, const std::string& message) {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(pos));
  };
  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.offset = i;
    if (c == '(') {
      token.kind = TokenKind::kLParen;
      ++i;
    } else if (c == ')') {
      token.kind = TokenKind::kRParen;
      ++i;
    } else if (c == '+') {
      token.kind = TokenKind::kPlus;
      ++i;
    } else if (c == ';') {
      token.kind = TokenKind::kSemicolon;
      ++i;
    } else if (c == '%') {
      const size_t close = input.find('%', i + 1);
      if (close == std::string_view::npos) {
        return error_at(i, "unterminated %pattern%");
      }
      token.kind = TokenKind::kPattern;
      token.text = std::string(input.substr(i + 1, close - i - 1));
      if (token.text.empty()) {
        return error_at(i, "empty %pattern%");
      }
      i = close + 1;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t end = i;
      while (end < n && std::isdigit(static_cast<unsigned char>(input[end]))) {
        ++end;
      }
      token.kind = TokenKind::kNumber;
      token.text = std::string(input.substr(i, end - i));
      // A digit run parses whole; the only failure is a value past int64.
      if (std::from_chars(input.data() + i, input.data() + end, token.value)
              .ec != std::errc()) {
        return error_at(i, "number out of range");
      }
      i = end;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t end = i;
      while (end < n &&
             (std::isalnum(static_cast<unsigned char>(input[end])) ||
              input[end] == '_' || input[end] == '.')) {
        ++end;
      }
      const std::string word(input.substr(i, end - i));
      const std::string upper = Upper(word);
      if (IsKeyword(upper)) {
        token.kind = TokenKind::kKeyword;
        token.text = upper;
      } else {
        token.kind = TokenKind::kIdentifier;
        token.text = word;
      }
      i = end;
    } else {
      return error_at(i, std::string("unexpected character '") + c + "'");
    }
    tokens.push_back(std::move(token));
  }
  Token end_token;
  end_token.kind = TokenKind::kEnd;
  end_token.offset = n;
  tokens.push_back(end_token);
  return tokens;
}

}  // namespace webmon
