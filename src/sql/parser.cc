#include "sql/parser.h"

#include <cctype>

namespace mood {

const Token& Parser::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  if (i >= tokens_.size()) i = tokens_.size() - 1;
  return tokens_[i];
}

const Token& Parser::Advance() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) pos_++;
  return t;
}

bool Parser::CheckKeyword(const std::string& kw) const {
  return Peek().type == TokenType::kKeyword && Peek().text == kw;
}

bool Parser::Match(TokenType t) {
  if (Check(t)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::MatchKeyword(const std::string& kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenType t, const std::string& what) {
  if (Check(t)) {
    Advance();
    return Status::OK();
  }
  return Status::ParseError("expected " + what + " but found '" + Peek().text +
                            "' at offset " + std::to_string(Peek().position));
}

Status Parser::ExpectKeyword(const std::string& kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return Status::OK();
  }
  return Status::ParseError("expected " + kw + " but found '" + Peek().text +
                            "' at offset " + std::to_string(Peek().position));
}

Result<std::string> Parser::ExpectIdentifier(const std::string& what) {
  if (Check(TokenType::kIdentifier)) {
    return Advance().text;
  }
  return Status::ParseError("expected " + what + " but found '" + Peek().text +
                            "' at offset " + std::to_string(Peek().position));
}

Result<Statement> Parser::Parse(const std::string& sql) {
  MOOD_ASSIGN_OR_RETURN(auto tokens, Lexer::Tokenize(sql));
  Parser parser(std::move(tokens), &sql);
  MOOD_ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
  parser.Match(TokenType::kSemicolon);
  if (!parser.Check(TokenType::kEof)) {
    return Status::ParseError("trailing input after statement: '" +
                              parser.Peek().text + "'");
  }
  return stmt;
}

Result<std::vector<Statement>> Parser::ParseScript(const std::string& sql) {
  MOOD_ASSIGN_OR_RETURN(auto tokens, Lexer::Tokenize(sql));
  Parser parser(std::move(tokens), &sql);
  std::vector<Statement> out;
  while (!parser.Check(TokenType::kEof)) {
    MOOD_ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
    out.push_back(std::move(stmt));
    while (parser.Match(TokenType::kSemicolon)) {
    }
  }
  return out;
}

Result<ExprPtr> Parser::ParseExpression(const std::string& text) {
  MOOD_ASSIGN_OR_RETURN(auto tokens, Lexer::Tokenize(text));
  Parser parser(std::move(tokens), &text);
  MOOD_ASSIGN_OR_RETURN(ExprPtr expr, parser.ParseExpr());
  parser.Match(TokenType::kSemicolon);
  if (!parser.Check(TokenType::kEof)) {
    return Status::ParseError("trailing input after expression: '" +
                              parser.Peek().text + "'");
  }
  return expr;
}

Result<Statement> Parser::ParseStatement() {
  if (CheckKeyword("SELECT")) {
    MOOD_ASSIGN_OR_RETURN(SelectStmt s, ParseSelect());
    return Statement(std::move(s));
  }
  if (CheckKeyword("EXPLAIN")) {
    MOOD_ASSIGN_OR_RETURN(ExplainStmt s, ParseExplain());
    return Statement(std::move(s));
  }
  if (CheckKeyword("CREATE")) return ParseCreate();
  if (CheckKeyword("NEW")) {
    MOOD_ASSIGN_OR_RETURN(NewObjectStmt s, ParseNew());
    return Statement(std::move(s));
  }
  if (CheckKeyword("UPDATE")) {
    MOOD_ASSIGN_OR_RETURN(UpdateStmt s, ParseUpdate());
    return Statement(std::move(s));
  }
  if (CheckKeyword("DELETE")) {
    MOOD_ASSIGN_OR_RETURN(DeleteStmt s, ParseDelete());
    return Statement(std::move(s));
  }
  if (CheckKeyword("DROP")) return ParseDrop();
  if (CheckKeyword("ANALYZE")) {
    MOOD_ASSIGN_OR_RETURN(AnalyzeStmt s, ParseAnalyze());
    return Statement(std::move(s));
  }
  return Status::ParseError("unknown statement start: '" + Peek().text + "'");
}

Result<AnalyzeStmt> Parser::ParseAnalyze() {
  MOOD_RETURN_IF_ERROR(ExpectKeyword("ANALYZE"));
  AnalyzeStmt stmt;
  if (Check(TokenType::kIdentifier)) {
    stmt.class_name = Advance().text;
  }
  return stmt;
}

Result<ExplainStmt> Parser::ParseExplain() {
  MOOD_RETURN_IF_ERROR(ExpectKeyword("EXPLAIN"));
  ExplainStmt stmt;
  if (MatchKeyword("ANALYZE")) stmt.analyze = true;
  if (MatchKeyword("VERBOSE")) stmt.verbose = true;
  MOOD_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
  return stmt;
}

Result<SelectStmt> Parser::ParseSelect() {
  MOOD_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  SelectStmt stmt;
  if (MatchKeyword("DISTINCT")) stmt.distinct = true;
  // projection-list
  for (;;) {
    MOOD_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    stmt.projection.push_back(std::move(e));
    if (!Match(TokenType::kComma)) break;
  }
  MOOD_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  for (;;) {
    MOOD_ASSIGN_OR_RETURN(FromEntry fe, ParseFromEntry());
    stmt.from.push_back(std::move(fe));
    if (!Match(TokenType::kComma)) break;
  }
  // Optional clauses in any order (the paper's grammar lists GROUP BY before
  // WHERE; conventional SQL order is also accepted).
  for (;;) {
    if (MatchKeyword("WHERE")) {
      if (stmt.where) return Status::ParseError("duplicate WHERE clause");
      MOOD_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
      continue;
    }
    if (CheckKeyword("GROUP")) {
      Advance();
      MOOD_RETURN_IF_ERROR(ExpectKeyword("BY"));
      if (!stmt.group_by.empty()) return Status::ParseError("duplicate GROUP BY");
      for (;;) {
        MOOD_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt.group_by.push_back(std::move(e));
        if (!Match(TokenType::kComma)) break;
      }
      if (MatchKeyword("HAVING")) {
        MOOD_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
      }
      continue;
    }
    if (CheckKeyword("ORDER")) {
      Advance();
      MOOD_RETURN_IF_ERROR(ExpectKeyword("BY"));
      if (!stmt.order_by.empty()) return Status::ParseError("duplicate ORDER BY");
      for (;;) {
        OrderKey key;
        MOOD_ASSIGN_OR_RETURN(key.expr, ParseExpr());
        if (MatchKeyword("DESC")) {
          key.ascending = false;
        } else {
          MatchKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(key));
        if (!Match(TokenType::kComma)) break;
      }
      continue;
    }
    break;
  }
  return stmt;
}

Result<FromEntry> Parser::ParseFromEntry() {
  FromEntry fe;
  if (MatchKeyword("EVERY")) fe.every = true;
  MOOD_ASSIGN_OR_RETURN(fe.class_name, ExpectIdentifier("class name"));
  while (Match(TokenType::kMinus)) {
    MOOD_ASSIGN_OR_RETURN(std::string ex, ExpectIdentifier("excluded subclass"));
    fe.excludes.push_back(std::move(ex));
  }
  MOOD_ASSIGN_OR_RETURN(fe.var, ExpectIdentifier("range variable"));
  return fe;
}

Result<Statement> Parser::ParseCreate() {
  MOOD_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
  if (CheckKeyword("CLASS") || CheckKeyword("TYPE")) {
    MOOD_ASSIGN_OR_RETURN(CreateClassStmt s, ParseCreateClass());
    return Statement(std::move(s));
  }
  if (CheckKeyword("MATERIALIZED")) {
    MOOD_ASSIGN_OR_RETURN(CreateMatViewStmt s, ParseCreateMatView());
    return Statement(std::move(s));
  }
  bool unique = MatchKeyword("UNIQUE");
  if (CheckKeyword("INDEX")) {
    MOOD_ASSIGN_OR_RETURN(CreateIndexStmt s, ParseCreateIndex(unique));
    return Statement(std::move(s));
  }
  return Status::ParseError(
      "expected CLASS, TYPE, INDEX or MATERIALIZED VIEW after CREATE");
}

Result<TypeDescPtr> Parser::ParseType() {
  if (Check(TokenType::kKeyword)) {
    std::string kw = Peek().text;
    if (kw == "INTEGER") {
      Advance();
      return TypeDesc::Basic(BasicType::kInteger);
    }
    if (kw == "FLOAT") {
      Advance();
      return TypeDesc::Basic(BasicType::kFloat);
    }
    if (kw == "LONGINTEGER") {
      Advance();
      return TypeDesc::Basic(BasicType::kLongInteger);
    }
    if (kw == "CHAR") {
      Advance();
      return TypeDesc::Basic(BasicType::kChar);
    }
    if (kw == "BOOLEAN") {
      Advance();
      return TypeDesc::Basic(BasicType::kBoolean);
    }
    if (kw == "STRING") {
      Advance();
      uint32_t cap = 0;
      if (Match(TokenType::kLParen)) {
        if (!Check(TokenType::kIntLiteral)) {
          return Status::ParseError("expected string capacity");
        }
        cap = static_cast<uint32_t>(Advance().int_value);
        MOOD_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      }
      return cap > 0 ? TypeDesc::SizedString(cap) : TypeDesc::Basic(BasicType::kString);
    }
    if (kw == "SET" || kw == "LIST") {
      Advance();
      MOOD_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      MOOD_ASSIGN_OR_RETURN(TypeDescPtr elem, ParseType());
      MOOD_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return kw == "SET" ? TypeDesc::Set(std::move(elem))
                         : TypeDesc::List(std::move(elem));
    }
    if (kw == "REFERENCE") {
      Advance();
      MOOD_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      MOOD_ASSIGN_OR_RETURN(std::string cls, ExpectIdentifier("class name"));
      MOOD_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return TypeDesc::Reference(std::move(cls));
    }
    if (kw == "TUPLE") {
      Advance();
      MOOD_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      std::vector<TypeDesc::Field> fields;
      if (!Check(TokenType::kRParen)) {
        for (;;) {
          TypeDesc::Field f;
          MOOD_ASSIGN_OR_RETURN(f.name, ExpectIdentifier("field name"));
          MOOD_ASSIGN_OR_RETURN(f.type, ParseType());
          fields.push_back(std::move(f));
          if (!Match(TokenType::kComma)) break;
        }
      }
      MOOD_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return TypeDesc::Tuple(std::move(fields));
    }
  }
  // A bare identifier denotes a reference to a user class (shorthand).
  if (Check(TokenType::kIdentifier)) {
    return TypeDesc::Reference(Advance().text);
  }
  return Status::ParseError("expected a type but found '" + Peek().text + "'");
}

Result<MoodsFunction> Parser::ParseMethodDecl() {
  MoodsFunction fn;
  MOOD_ASSIGN_OR_RETURN(fn.name, ExpectIdentifier("method name"));
  MOOD_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
  if (!Check(TokenType::kRParen)) {
    for (;;) {
      MoodsAttribute param;
      MOOD_ASSIGN_OR_RETURN(param.name, ExpectIdentifier("parameter name"));
      MOOD_ASSIGN_OR_RETURN(param.type, ParseType());
      fn.params.push_back(std::move(param));
      if (!Match(TokenType::kComma)) break;
    }
  }
  MOOD_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  MOOD_ASSIGN_OR_RETURN(fn.return_type, ParseType());
  return fn;
}

Result<CreateClassStmt> Parser::ParseCreateClass() {
  CreateClassStmt stmt;
  if (MatchKeyword("TYPE")) {
    stmt.def.is_class = false;
  } else {
    MOOD_RETURN_IF_ERROR(ExpectKeyword("CLASS"));
    stmt.def.is_class = true;
  }
  MOOD_ASSIGN_OR_RETURN(stmt.def.name, ExpectIdentifier("class name"));
  if (MatchKeyword("INHERITS")) {
    MOOD_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    for (;;) {
      MOOD_ASSIGN_OR_RETURN(std::string super, ExpectIdentifier("superclass"));
      stmt.def.supers.push_back(std::move(super));
      if (!Match(TokenType::kComma)) break;
    }
  }
  if (MatchKeyword("TUPLE")) {
    MOOD_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    if (!Check(TokenType::kRParen)) {
      for (;;) {
        MoodsAttribute attr;
        MOOD_ASSIGN_OR_RETURN(attr.name, ExpectIdentifier("attribute name"));
        MOOD_ASSIGN_OR_RETURN(attr.type, ParseType());
        stmt.def.attributes.push_back(std::move(attr));
        // The paper's DDL examples end attribute lists with a trailing comma.
        if (!Match(TokenType::kComma)) break;
        if (Check(TokenType::kRParen)) break;
      }
    }
    MOOD_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  }
  if (MatchKeyword("METHODS")) {
    Match(TokenType::kColon);
    for (;;) {
      MOOD_ASSIGN_OR_RETURN(MoodsFunction fn, ParseMethodDecl());
      stmt.def.methods.push_back(std::move(fn));
      if (!Match(TokenType::kComma)) break;
      // trailing comma before end of statement
      if (Check(TokenType::kEof) || Check(TokenType::kSemicolon) ||
          CheckKeyword("CREATE")) {
        break;
      }
    }
  }
  return stmt;
}

Result<CreateIndexStmt> Parser::ParseCreateIndex(bool unique) {
  MOOD_RETURN_IF_ERROR(ExpectKeyword("INDEX"));
  CreateIndexStmt stmt;
  stmt.unique = unique;
  MOOD_ASSIGN_OR_RETURN(stmt.index_name, ExpectIdentifier("index name"));
  MOOD_RETURN_IF_ERROR(ExpectKeyword("ON"));
  MOOD_ASSIGN_OR_RETURN(stmt.class_name, ExpectIdentifier("class name"));
  MOOD_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
  MOOD_ASSIGN_OR_RETURN(stmt.attribute, ExpectIdentifier("attribute"));
  if (Check(TokenType::kDot)) {
    return Status::ParseError(
        "CREATE INDEX takes one attribute, not a path starting at '" + stmt.attribute +
        "'; store path results with CREATE MATERIALIZED VIEW");
  }
  MOOD_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  if (MatchKeyword("USING")) {
    if (MatchKeyword("BTREE")) {
      stmt.kind = IndexKind::kBTree;
    } else if (MatchKeyword("HASH")) {
      stmt.kind = IndexKind::kHash;
    } else if (MatchKeyword("JOININDEX")) {
      stmt.kind = IndexKind::kBinaryJoin;
    } else if (MatchKeyword("RTREE")) {
      stmt.kind = IndexKind::kRTree;
    } else {
      return Status::ParseError("unknown index method '" + Peek().text + "'");
    }
  }
  return stmt;
}

Result<NewObjectStmt> Parser::ParseNew() {
  MOOD_RETURN_IF_ERROR(ExpectKeyword("NEW"));
  NewObjectStmt stmt;
  MOOD_ASSIGN_OR_RETURN(stmt.class_name, ExpectIdentifier("class name"));
  MOOD_RETURN_IF_ERROR(Expect(TokenType::kLAngle, "'<'"));
  if (!Check(TokenType::kRAngle)) {
    for (;;) {
      // Additive level only: the closing '>' must not parse as a comparison.
      MOOD_ASSIGN_OR_RETURN(ExprPtr e, ParseAdditive());
      stmt.values.push_back(std::move(e));
      if (!Match(TokenType::kComma)) break;
    }
  }
  MOOD_RETURN_IF_ERROR(Expect(TokenType::kRAngle, "'>'"));
  if (MatchKeyword("AS")) {
    MOOD_ASSIGN_OR_RETURN(stmt.bind_name, ExpectIdentifier("object name"));
  }
  return stmt;
}

Result<UpdateStmt> Parser::ParseUpdate() {
  MOOD_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
  UpdateStmt stmt;
  MOOD_ASSIGN_OR_RETURN(stmt.class_name, ExpectIdentifier("class name"));
  MOOD_ASSIGN_OR_RETURN(stmt.var, ExpectIdentifier("range variable"));
  MOOD_RETURN_IF_ERROR(ExpectKeyword("SET"));
  for (;;) {
    std::string attr;
    MOOD_ASSIGN_OR_RETURN(attr, ExpectIdentifier("attribute"));
    MOOD_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
    MOOD_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    stmt.assignments.emplace_back(std::move(attr), std::move(e));
    if (!Match(TokenType::kComma)) break;
  }
  if (MatchKeyword("WHERE")) {
    MOOD_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  return stmt;
}

Result<DeleteStmt> Parser::ParseDelete() {
  MOOD_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
  MOOD_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  DeleteStmt stmt;
  MOOD_ASSIGN_OR_RETURN(stmt.class_name, ExpectIdentifier("class name"));
  MOOD_ASSIGN_OR_RETURN(stmt.var, ExpectIdentifier("range variable"));
  if (MatchKeyword("WHERE")) {
    MOOD_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  return stmt;
}

Result<Statement> Parser::ParseDrop() {
  MOOD_RETURN_IF_ERROR(ExpectKeyword("DROP"));
  if (MatchKeyword("MATERIALIZED")) {
    MOOD_RETURN_IF_ERROR(ExpectKeyword("VIEW"));
    DropMatViewStmt stmt;
    MOOD_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier("view name"));
    return Statement(std::move(stmt));
  }
  if (!MatchKeyword("CLASS")) MOOD_RETURN_IF_ERROR(ExpectKeyword("TYPE"));
  DropClassStmt stmt;
  MOOD_ASSIGN_OR_RETURN(stmt.class_name, ExpectIdentifier("class name"));
  return Statement(std::move(stmt));
}

Result<CreateMatViewStmt> Parser::ParseCreateMatView() {
  MOOD_RETURN_IF_ERROR(ExpectKeyword("MATERIALIZED"));
  MOOD_RETURN_IF_ERROR(ExpectKeyword("VIEW"));
  CreateMatViewStmt stmt;
  MOOD_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier("view name"));
  MOOD_RETURN_IF_ERROR(ExpectKeyword("AS"));
  const size_t select_begin = Peek().position;
  MOOD_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
  if (source_ != nullptr) {
    // The SELECT text runs from its first token to the token that terminated it
    // (';' or EOF — EOF carries position == source length).
    const size_t select_end = Peek().position;
    stmt.select_sql = source_->substr(select_begin, select_end - select_begin);
    while (!stmt.select_sql.empty() &&
           std::isspace(static_cast<unsigned char>(stmt.select_sql.back()))) {
      stmt.select_sql.pop_back();
    }
  }
  return stmt;
}

// --- Expressions -------------------------------------------------------------

Result<ExprPtr> Parser::ParseExpr() { return ParseOr(); }

Result<ExprPtr> Parser::ParseOr() {
  MOOD_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (MatchKeyword("OR")) {
    MOOD_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    lhs = Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAnd() {
  MOOD_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
  while (MatchKeyword("AND")) {
    MOOD_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
    lhs = Expr::Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseNot() {
  if (MatchKeyword("NOT")) {
    MOOD_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
    return Expr::Unary(UnaryOp::kNot, std::move(operand));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  MOOD_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
  if (MatchKeyword("BETWEEN")) {
    // x BETWEEN a AND b  =>  x >= a AND x <= b
    MOOD_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    MOOD_RETURN_IF_ERROR(ExpectKeyword("AND"));
    MOOD_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    ExprPtr ge = Expr::Binary(BinaryOp::kGe, lhs, std::move(lo));
    ExprPtr le = Expr::Binary(BinaryOp::kLe, std::move(lhs), std::move(hi));
    return Expr::Binary(BinaryOp::kAnd, std::move(ge), std::move(le));
  }
  BinaryOp op;
  switch (Peek().type) {
    case TokenType::kEq: op = BinaryOp::kEq; break;
    case TokenType::kNe: op = BinaryOp::kNe; break;
    case TokenType::kLAngle: op = BinaryOp::kLt; break;
    case TokenType::kRAngle: op = BinaryOp::kGt; break;
    case TokenType::kLe: op = BinaryOp::kLe; break;
    case TokenType::kGe: op = BinaryOp::kGe; break;
    default: return lhs;
  }
  Advance();
  MOOD_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
  return Expr::Binary(op, std::move(lhs), std::move(rhs));
}

Result<ExprPtr> Parser::ParseAdditive() {
  MOOD_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
  for (;;) {
    BinaryOp op;
    if (Check(TokenType::kPlus)) {
      op = BinaryOp::kAdd;
    } else if (Check(TokenType::kMinus)) {
      op = BinaryOp::kSub;
    } else {
      return lhs;
    }
    Advance();
    MOOD_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
    lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
  }
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  MOOD_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  for (;;) {
    BinaryOp op;
    if (Check(TokenType::kStar)) {
      op = BinaryOp::kMul;
    } else if (Check(TokenType::kSlash)) {
      op = BinaryOp::kDiv;
    } else if (Check(TokenType::kPercent)) {
      op = BinaryOp::kMod;
    } else {
      return lhs;
    }
    Advance();
    MOOD_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
    lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
  }
}

Result<ExprPtr> Parser::ParseUnary() {
  if (Match(TokenType::kMinus)) {
    MOOD_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    return Expr::Unary(UnaryOp::kNeg, std::move(operand));
  }
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kIntLiteral: {
      int64_t v = Advance().int_value;
      if (v >= INT32_MIN && v <= INT32_MAX) {
        return Expr::Literal(MoodValue::Integer(static_cast<int32_t>(v)));
      }
      return Expr::Literal(MoodValue::LongInteger(v));
    }
    case TokenType::kFloatLiteral:
      return Expr::Literal(MoodValue::Float(Advance().float_value));
    case TokenType::kStringLiteral:
      return Expr::Literal(MoodValue::String(Advance().text));
    case TokenType::kQuestion:
      Advance();
      return Expr::Parameter(param_counter_++);
    case TokenType::kLParen: {
      Advance();
      MOOD_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      MOOD_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return inner;
    }
    case TokenType::kKeyword: {
      if (t.text == "TRUE") {
        Advance();
        return Expr::Literal(MoodValue::Boolean(true));
      }
      if (t.text == "FALSE") {
        Advance();
        return Expr::Literal(MoodValue::Boolean(false));
      }
      if (t.text == "NULL") {
        Advance();
        return Expr::Literal(MoodValue::Null());
      }
      return Status::ParseError("unexpected keyword '" + t.text + "' in expression");
    }
    case TokenType::kIdentifier: {
      std::string first = Advance().text;
      return ParsePathFrom(std::move(first));
    }
    default:
      return Status::ParseError("unexpected token '" + t.text + "' in expression");
  }
}

Result<ExprPtr> Parser::ParsePathFrom(std::string first) {
  std::vector<PathStep> steps;
  while (Match(TokenType::kDot)) {
    PathStep step;
    if (CheckKeyword("SELF")) {
      // not a reserved keyword in our lexer; kept for clarity
    }
    MOOD_ASSIGN_OR_RETURN(step.name, ExpectIdentifier("path step"));
    if (Match(TokenType::kLParen)) {
      step.is_call = true;
      if (!Check(TokenType::kRParen)) {
        for (;;) {
          MOOD_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          step.args.push_back(std::move(arg));
          if (!Match(TokenType::kComma)) break;
        }
      }
      MOOD_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    steps.push_back(std::move(step));
  }
  return Expr::Path(std::move(first), std::move(steps));
}

}  // namespace mood
