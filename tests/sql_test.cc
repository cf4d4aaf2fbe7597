#include <gtest/gtest.h>

#include <functional>

#include "common/random.h"
#include "sql/dnf.h"
#include "sql/evaluator.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace mood {
namespace {

TEST(LexerTest, TokenizesKeywordsIdentifiersLiterals) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto toks,
                            Lexer::Tokenize("SELECT v FROM Vehicle v WHERE v.id = 42"));
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].type, TokenType::kKeyword);
  EXPECT_EQ(toks[0].text, "SELECT");
  EXPECT_EQ(toks[1].type, TokenType::kIdentifier);
  EXPECT_EQ(toks[1].text, "v");
  // Keywords are case-insensitive, identifiers keep case.
  MOOD_ASSERT_OK_AND_ASSIGN(auto toks2, Lexer::Tokenize("select Foo"));
  EXPECT_EQ(toks2[0].text, "SELECT");
  EXPECT_EQ(toks2[1].text, "Foo");
}

TEST(LexerTest, NumbersAndStrings) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto toks, Lexer::Tokenize("12 3.5 6.25e-2 'it''s'"));
  EXPECT_EQ(toks[0].type, TokenType::kIntLiteral);
  EXPECT_EQ(toks[0].int_value, 12);
  EXPECT_EQ(toks[1].type, TokenType::kFloatLiteral);
  EXPECT_DOUBLE_EQ(toks[1].float_value, 3.5);
  EXPECT_DOUBLE_EQ(toks[2].float_value, 6.25e-2);
  EXPECT_EQ(toks[3].type, TokenType::kStringLiteral);
  EXPECT_EQ(toks[3].text, "it's");
}

TEST(LexerTest, OperatorsIncludingTwoChar) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto toks, Lexer::Tokenize("<> <= >= < > = :: :"));
  EXPECT_EQ(toks[0].type, TokenType::kNe);
  EXPECT_EQ(toks[1].type, TokenType::kLe);
  EXPECT_EQ(toks[2].type, TokenType::kGe);
  EXPECT_EQ(toks[3].type, TokenType::kLAngle);
  EXPECT_EQ(toks[4].type, TokenType::kRAngle);
  EXPECT_EQ(toks[5].type, TokenType::kEq);
  EXPECT_EQ(toks[6].type, TokenType::kColonColon);
  EXPECT_EQ(toks[7].type, TokenType::kColon);
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Lexer::Tokenize("'unterminated").status().IsParseError());
  EXPECT_TRUE(Lexer::Tokenize("price $ 5").status().IsParseError());
}

TEST(ParserTest, PaperQuerySection31) {
  // The paper's Section 3.1 example query.
  MOOD_ASSERT_OK_AND_ASSIGN(
      Statement stmt,
      Parser::Parse("SELECT c FROM EVERY Automobile - JapaneseAuto c, VehicleEngine v "
                    "WHERE c.drivetrain.transmission = 'AUTOMATIC' AND "
                    "c.drivetrain.engine = v AND v.cylinders > 4"));
  auto& select = std::get<SelectStmt>(stmt);
  ASSERT_EQ(select.from.size(), 2u);
  EXPECT_TRUE(select.from[0].every);
  EXPECT_EQ(select.from[0].class_name, "Automobile");
  EXPECT_EQ(select.from[0].excludes, std::vector<std::string>{"JapaneseAuto"});
  EXPECT_EQ(select.from[0].var, "c");
  EXPECT_FALSE(select.from[1].every);
  ASSERT_NE(select.where, nullptr);
  // Top is AND of three predicates (left-assoc).
  EXPECT_EQ(select.where->op, BinaryOp::kAnd);
}

TEST(ParserTest, PaperExample81Query) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      Statement stmt,
      Parser::Parse("Select v From Vehicle v where v.company.name = 'BMW' and "
                    "v.drivetrain.engine.cylinders = 2"));
  auto& select = std::get<SelectStmt>(stmt);
  ASSERT_EQ(select.projection.size(), 1u);
  EXPECT_EQ(select.projection[0]->ToString(), "v");
  EXPECT_EQ(select.where->lhs->ToString(), "(v.company.name = 'BMW')");
}

TEST(ParserTest, GroupByBeforeWhereAsInPaperGrammar) {
  // The paper's grammar lists GROUP BY before WHERE.
  MOOD_ASSERT_OK_AND_ASSIGN(
      Statement stmt,
      Parser::Parse("SELECT v.weight FROM Vehicle v GROUP BY v.weight HAVING "
                    "v.weight > 10 WHERE v.id > 0 ORDER BY v.weight DESC"));
  auto& select = std::get<SelectStmt>(stmt);
  EXPECT_EQ(select.group_by.size(), 1u);
  ASSERT_NE(select.having, nullptr);
  ASSERT_NE(select.where, nullptr);
  ASSERT_EQ(select.order_by.size(), 1u);
  EXPECT_FALSE(select.order_by[0].ascending);
}

TEST(ParserTest, BetweenDesugarsToRange) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      Statement stmt,
      Parser::Parse("SELECT v FROM Vehicle v WHERE v.weight BETWEEN 10 AND 20"));
  auto& select = std::get<SelectStmt>(stmt);
  EXPECT_EQ(select.where->ToString(), "((v.weight >= 10) AND (v.weight <= 20))");
}

TEST(ParserTest, ArithmeticPrecedence) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      Statement stmt, Parser::Parse("SELECT v FROM V v WHERE v.a + v.b * 2 > -v.c"));
  auto& select = std::get<SelectStmt>(stmt);
  EXPECT_EQ(select.where->ToString(), "((v.a + (v.b * 2)) > -(v.c))");
}

TEST(ParserTest, MethodCallsInPaths) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      Statement stmt,
      Parser::Parse("SELECT v.lbweight() FROM Vehicle v WHERE v.scale(2, v.id) > 5"));
  auto& select = std::get<SelectStmt>(stmt);
  EXPECT_EQ(select.projection[0]->ToString(), "v.lbweight()");
  EXPECT_EQ(select.where->lhs->ToString(), "v.scale(2, v.id)");
}

TEST(ParserTest, CreateClassFull) {
  MOOD_ASSERT_OK_AND_ASSIGN(Statement stmt, Parser::Parse(R"(
      CREATE CLASS Vehicle
        TUPLE (
          id Integer,
          weight Integer,
          drivetrain REFERENCE (VehicleDriveTrain),
          tags SET (String(8)),
          history LIST (REFERENCE (Event)),
        )
        METHODS:
          lbweight () Integer,
          rename (n String(32)) Boolean)"));
  auto& cc = std::get<CreateClassStmt>(stmt);
  EXPECT_EQ(cc.def.name, "Vehicle");
  ASSERT_EQ(cc.def.attributes.size(), 5u);
  EXPECT_EQ(cc.def.attributes[2].type->ToString(), "REFERENCE (VehicleDriveTrain)");
  EXPECT_EQ(cc.def.attributes[3].type->ToString(), "SET (String(8))");
  EXPECT_EQ(cc.def.attributes[4].type->ToString(), "LIST (REFERENCE (Event))");
  ASSERT_EQ(cc.def.methods.size(), 2u);
  EXPECT_EQ(cc.def.methods[0].name, "lbweight");
  EXPECT_TRUE(cc.def.methods[0].params.empty());
  ASSERT_EQ(cc.def.methods[1].params.size(), 1u);
  EXPECT_EQ(cc.def.methods[1].params[0].name, "n");
}

TEST(ParserTest, CreateClassInherits) {
  MOOD_ASSERT_OK_AND_ASSIGN(Statement stmt,
                            Parser::Parse("CREATE CLASS JapaneseAuto INHERITS FROM "
                                          "Automobile"));
  auto& cc = std::get<CreateClassStmt>(stmt);
  EXPECT_EQ(cc.def.supers, std::vector<std::string>{"Automobile"});
  EXPECT_TRUE(cc.def.attributes.empty());
}

TEST(ParserTest, NewObjectStatement) {
  // The MoodView protocol example from Section 9.4.
  MOOD_ASSERT_OK_AND_ASSIGN(
      Statement stmt,
      Parser::Parse("new Employee <'Budak Arpinar', 'Computer Engineer', 1969>"));
  auto& n = std::get<NewObjectStmt>(stmt);
  EXPECT_EQ(n.class_name, "Employee");
  ASSERT_EQ(n.values.size(), 3u);
  EXPECT_EQ(n.values[2]->literal.AsInteger(), 1969);
  // With a persistent name.
  MOOD_ASSERT_OK_AND_ASSIGN(Statement stmt2,
                            Parser::Parse("NEW Employee <'X', 'Y', 1> AS boss"));
  EXPECT_EQ(std::get<NewObjectStmt>(stmt2).bind_name, "boss");
}

TEST(ParserTest, UpdateDeleteCreateIndexDrop) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      Statement u,
      Parser::Parse("UPDATE Vehicle v SET weight = v.weight + 1 WHERE v.id = 3"));
  EXPECT_EQ(std::get<UpdateStmt>(u).assignments.size(), 1u);

  MOOD_ASSERT_OK_AND_ASSIGN(Statement d,
                            Parser::Parse("DELETE FROM Vehicle v WHERE v.id = 3"));
  EXPECT_EQ(std::get<DeleteStmt>(d).class_name, "Vehicle");

  MOOD_ASSERT_OK_AND_ASSIGN(
      Statement i, Parser::Parse("CREATE UNIQUE INDEX v_id ON Vehicle(id) USING BTREE"));
  auto& ci = std::get<CreateIndexStmt>(i);
  EXPECT_TRUE(ci.unique);
  EXPECT_EQ(ci.kind, IndexKind::kBTree);

  // Path indexes are gone: a dotted attribute is a parse error that points to
  // materialized views.
  Result<Statement> p =
      Parser::Parse("CREATE INDEX p ON Vehicle(drivetrain.engine.cylinders)");
  ASSERT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsParseError()) << p.status().ToString();
  EXPECT_NE(p.status().ToString().find("CREATE MATERIALIZED VIEW"), std::string::npos)
      << p.status().ToString();

  MOOD_ASSERT_OK_AND_ASSIGN(Statement j,
                            Parser::Parse("CREATE INDEX b ON Vehicle(company) USING JOININDEX"));
  EXPECT_EQ(std::get<CreateIndexStmt>(j).kind, IndexKind::kBinaryJoin);

  MOOD_ASSERT_OK_AND_ASSIGN(Statement dr, Parser::Parse("DROP CLASS Vehicle"));
  EXPECT_EQ(std::get<DropClassStmt>(dr).class_name, "Vehicle");
}

TEST(ParserTest, ScriptsAndErrors) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      auto stmts, Parser::ParseScript("CREATE CLASS A TUPLE (x Integer); "
                                      "SELECT a FROM A a;"));
  EXPECT_EQ(stmts.size(), 2u);
  EXPECT_TRUE(Parser::Parse("SELECT").status().IsParseError());
  EXPECT_TRUE(Parser::Parse("SELECT v FROM").status().IsParseError());
  EXPECT_TRUE(Parser::Parse("FOO BAR").status().IsParseError());
  EXPECT_TRUE(Parser::Parse("SELECT v FROM V v extra junk").status().IsParseError());
}

TEST(ParserTest, ParseExpression) {
  MOOD_ASSERT_OK_AND_ASSIGN(ExprPtr e, Parser::ParseExpression("weight * 2.2075"));
  EXPECT_EQ(e->ToString(), "(weight * 2.207500)");
  EXPECT_TRUE(Parser::ParseExpression("1 +").status().IsParseError());
}

// --- DNF ---------------------------------------------------------------------

ExprPtr PathExpr(const std::string& var, const std::string& attr) {
  return Expr::Path(var, {PathStep{attr, false, {}}});
}
ExprPtr Cmp(BinaryOp op, ExprPtr lhs, int32_t c) {
  return Expr::Binary(op, std::move(lhs), Expr::Literal(MoodValue::Integer(c)));
}

TEST(DnfTest, FoldsConstantSubtrees) {
  // (1 + 2) * 3 = 9.
  ExprPtr e = Expr::Binary(
      BinaryOp::kMul,
      Expr::Binary(BinaryOp::kAdd, Expr::Literal(MoodValue::Integer(1)),
                   Expr::Literal(MoodValue::Integer(2))),
      Expr::Literal(MoodValue::Integer(3)));
  MOOD_ASSERT_OK_AND_ASSIGN(ExprPtr folded, FoldConstants(e));
  ASSERT_EQ(folded->kind, ExprKind::kLiteral);
  EXPECT_EQ(folded->literal.AsInteger(), 9);
}

TEST(DnfTest, FoldedComparisonErrorsMatchRunTime) {
  // A comparison folded at plan time must fail with the run-time status text.
  Evaluator runtime(nullptr, nullptr);
  for (const char* text : {"3 = 'BMW'", "'BMW' < 3", "2.5 >= 'x'"}) {
    MOOD_ASSERT_OK_AND_ASSIGN(ExprPtr e, Parser::ParseExpression(text));
    Result<ExprPtr> folded = FoldConstants(e);
    Result<MoodValue> evaluated = testing::NaiveEval(runtime, e, testing::NaiveEnv{});
    ASSERT_FALSE(evaluated.ok()) << text;
    ASSERT_FALSE(folded.ok()) << text;
    EXPECT_EQ(folded.status().ToString(), evaluated.status().ToString()) << text;
  }
  MOOD_ASSERT_OK_AND_ASSIGN(ExprPtr ok, Parser::ParseExpression("1 < 2"));
  MOOD_ASSERT_OK_AND_ASSIGN(ExprPtr folded, FoldConstants(ok));
  ASSERT_EQ(folded->kind, ExprKind::kLiteral);
  EXPECT_TRUE(folded->literal.AsBoolean());
}

TEST(DnfTest, PushNotDownNegatesComparisons) {
  ExprPtr e = Expr::Unary(
      UnaryOp::kNot,
      Expr::Binary(BinaryOp::kAnd, Cmp(BinaryOp::kLt, PathExpr("v", "a"), 1),
                   Cmp(BinaryOp::kEq, PathExpr("v", "b"), 2)));
  ExprPtr out = PushNotDown(e);
  EXPECT_EQ(out->ToString(), "((v.a >= 1) OR (v.b <> 2))");
  // Double negation cancels.
  ExprPtr dbl = Expr::Unary(UnaryOp::kNot, Expr::Unary(UnaryOp::kNot,
                                                       Cmp(BinaryOp::kEq, PathExpr("v", "a"), 1)));
  EXPECT_EQ(PushNotDown(dbl)->ToString(), "(v.a = 1)");
}

TEST(DnfTest, DistributesAndOverOr) {
  // (a=1 OR b=2) AND (c=3 OR d=4) -> 4 AND-terms.
  ExprPtr e = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kOr, Cmp(BinaryOp::kEq, PathExpr("v", "a"), 1),
                   Cmp(BinaryOp::kEq, PathExpr("v", "b"), 2)),
      Expr::Binary(BinaryOp::kOr, Cmp(BinaryOp::kEq, PathExpr("v", "c"), 3),
                   Cmp(BinaryOp::kEq, PathExpr("v", "d"), 4)));
  auto terms = ToDnf(e);
  ASSERT_EQ(terms.size(), 4u);
  for (const auto& term : terms) EXPECT_EQ(term.size(), 2u);
}

TEST(DnfTest, SimpleConjunctionIsOneTerm) {
  ExprPtr e = Expr::Binary(BinaryOp::kAnd, Cmp(BinaryOp::kEq, PathExpr("v", "a"), 1),
                           Cmp(BinaryOp::kGt, PathExpr("v", "b"), 2));
  auto terms = ToDnf(e);
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_EQ(terms[0].size(), 2u);
}

/// Property: DNF is logically equivalent to the original under random boolean
/// assignments of the leaf comparisons.
TEST(DnfTest, EquivalenceProperty) {
  Random rng(2024);
  const int kLeaves = 5;
  for (int trial = 0; trial < 60; trial++) {
    // Random boolean expression tree over leaves L0..L4 (encoded as v.a0=1...).
    std::function<ExprPtr(int)> gen = [&](int depth) -> ExprPtr {
      if (depth == 0 || rng.OneIn(3)) {
        int leaf = static_cast<int>(rng.Uniform(kLeaves));
        return Cmp(BinaryOp::kEq, PathExpr("v", "a" + std::to_string(leaf)), 1);
      }
      switch (rng.Uniform(3)) {
        case 0: return Expr::Binary(BinaryOp::kAnd, gen(depth - 1), gen(depth - 1));
        case 1: return Expr::Binary(BinaryOp::kOr, gen(depth - 1), gen(depth - 1));
        default: return Expr::Unary(UnaryOp::kNot, gen(depth - 1));
      }
    };
    ExprPtr e = gen(3);
    auto dnf_res = NormalizePredicate(e);
    ASSERT_TRUE(dnf_res.ok());
    const auto& dnf = dnf_res.value();

    // Evaluate both forms under every assignment of 5 leaves.
    std::function<bool(const ExprPtr&, uint32_t)> eval = [&](const ExprPtr& x,
                                                             uint32_t bits) -> bool {
      switch (x->kind) {
        case ExprKind::kBinary:
          if (x->op == BinaryOp::kAnd) return eval(x->lhs, bits) && eval(x->rhs, bits);
          if (x->op == BinaryOp::kOr) return eval(x->lhs, bits) || eval(x->rhs, bits);
          if (x->op == BinaryOp::kEq || x->op == BinaryOp::kNe) {
            // Leaf comparison v.aK = 1 (or its negation <>).
            int leaf = x->lhs->steps[0].name[1] - '0';
            bool truth = (bits >> leaf) & 1;
            return x->op == BinaryOp::kEq ? truth : !truth;
          }
          ADD_FAILURE() << "unexpected op";
          return false;
        case ExprKind::kUnary:
          return !eval(x->operand, bits);
        default:
          ADD_FAILURE() << "unexpected kind";
          return false;
      }
    };
    for (uint32_t bits = 0; bits < (1u << kLeaves); bits++) {
      bool original = eval(e, bits);
      bool dnf_val = false;
      for (const auto& term : dnf) {
        bool all = true;
        for (const auto& p : term) all = all && eval(p, bits);
        if (all) {
          dnf_val = true;
          break;
        }
      }
      ASSERT_EQ(original, dnf_val) << "trial " << trial << " bits " << bits;
    }
  }
}

}  // namespace
}  // namespace mood
