#include "sql/lexer.h"

#include <cctype>
#include <set>

namespace mood {

bool IsKeyword(const std::string& upper) {
  static const std::set<std::string> kKeywords = {
      "SELECT", "FROM",    "WHERE",   "GROUP",   "BY",     "HAVING",  "ORDER",
      "ASC",    "DESC",    "AND",     "OR",      "NOT",    "BETWEEN", "EVERY",
      "CREATE", "CLASS",   "TUPLE",   "METHODS", "INHERITS", "NEW",   "SET",
      "LIST",   "REFERENCE", "INTEGER", "FLOAT", "LONGINTEGER", "STRING",
      "CHAR",   "BOOLEAN", "TRUE",    "FALSE",   "NULL",   "UPDATE",  "DELETE",
      "INDEX",  "ON",      "USING",   "BTREE",   "HASH",   "UNIQUE",
      "DROP",   "AS",      "BIND",    "TO",      "DISTINCT", "TYPE",  "RTREE",
      "JOININDEX", "EXPLAIN", "ANALYZE", "VERBOSE", "MATERIALIZED", "VIEW"};
  return kKeywords.count(upper) > 0;
}

Result<std::vector<Token>> Lexer::Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  auto make = [&](TokenType t, std::string text, size_t pos) {
    Token tok;
    tok.type = t;
    tok.text = std::move(text);
    tok.position = pos;
    return tok;
  };

  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      i++;
      continue;
    }
    size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(input[j])) ||
                       input[j] == '_')) {
        j++;
      }
      std::string word = input.substr(i, j - i);
      std::string upper = word;
      for (auto& ch : upper) ch = static_cast<char>(std::toupper(ch));
      if (IsKeyword(upper)) {
        tokens.push_back(make(TokenType::kKeyword, upper, start));
      } else {
        tokens.push_back(make(TokenType::kIdentifier, word, start));
      }
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool is_float = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) j++;
      if (j < n && input[j] == '.' && j + 1 < n &&
          std::isdigit(static_cast<unsigned char>(input[j + 1]))) {
        is_float = true;
        j++;
        while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) j++;
      }
      if (j < n && (input[j] == 'e' || input[j] == 'E')) {
        size_t k = j + 1;
        if (k < n && (input[k] == '+' || input[k] == '-')) k++;
        if (k < n && std::isdigit(static_cast<unsigned char>(input[k]))) {
          is_float = true;
          j = k;
          while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) j++;
        }
      }
      std::string text = input.substr(i, j - i);
      Token tok = make(is_float ? TokenType::kFloatLiteral : TokenType::kIntLiteral,
                       text, start);
      if (is_float) {
        tok.float_value = std::stod(text);
      } else {
        try {
          tok.int_value = std::stoll(text);
        } catch (const std::exception&) {
          return Status::ParseError("integer literal out of range: " + text);
        }
      }
      tokens.push_back(std::move(tok));
      i = j;
      continue;
    }
    if (c == '\'') {
      std::string value;
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (input[j] == '\'') {
          if (j + 1 < n && input[j + 1] == '\'') {
            value.push_back('\'');
            j += 2;
            continue;
          }
          closed = true;
          j++;
          break;
        }
        value.push_back(input[j]);
        j++;
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      Token tok = make(TokenType::kStringLiteral, value, start);
      tokens.push_back(std::move(tok));
      i = j;
      continue;
    }
    auto two = [&](char a, char b) {
      return c == a && i + 1 < n && input[i + 1] == b;
    };
    if (two('<', '>')) {
      tokens.push_back(make(TokenType::kNe, "<>", start));
      i += 2;
      continue;
    }
    if (two('<', '=')) {
      tokens.push_back(make(TokenType::kLe, "<=", start));
      i += 2;
      continue;
    }
    if (two('>', '=')) {
      tokens.push_back(make(TokenType::kGe, ">=", start));
      i += 2;
      continue;
    }
    if (two(':', ':')) {
      tokens.push_back(make(TokenType::kColonColon, "::", start));
      i += 2;
      continue;
    }
    switch (c) {
      case ',': tokens.push_back(make(TokenType::kComma, ",", start)); break;
      case '.': tokens.push_back(make(TokenType::kDot, ".", start)); break;
      case '(': tokens.push_back(make(TokenType::kLParen, "(", start)); break;
      case ')': tokens.push_back(make(TokenType::kRParen, ")", start)); break;
      case '<': tokens.push_back(make(TokenType::kLAngle, "<", start)); break;
      case '>': tokens.push_back(make(TokenType::kRAngle, ">", start)); break;
      case '=': tokens.push_back(make(TokenType::kEq, "=", start)); break;
      case '+': tokens.push_back(make(TokenType::kPlus, "+", start)); break;
      case '-': tokens.push_back(make(TokenType::kMinus, "-", start)); break;
      case '*': tokens.push_back(make(TokenType::kStar, "*", start)); break;
      case '/': tokens.push_back(make(TokenType::kSlash, "/", start)); break;
      case '%': tokens.push_back(make(TokenType::kPercent, "%", start)); break;
      case ';': tokens.push_back(make(TokenType::kSemicolon, ";", start)); break;
      case ':': tokens.push_back(make(TokenType::kColon, ":", start)); break;
      case '?': tokens.push_back(make(TokenType::kQuestion, "?", start)); break;
      default:
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(start));
    }
    i++;
  }
  tokens.push_back(Token{TokenType::kEof, "", 0, 0, n});
  return tokens;
}

}  // namespace mood
