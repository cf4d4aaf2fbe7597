#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "catalog/catalog.h"
#include "types/value.h"

namespace mood {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnaryOp { kNeg, kNot };

std::string_view BinaryOpName(BinaryOp op);
bool IsComparison(BinaryOp op);

/// One step of a path expression: an attribute access or a method call.
struct PathStep {
  std::string name;
  bool is_call = false;
  std::vector<ExprPtr> args;
};

enum class ExprKind { kLiteral, kPath, kBinary, kUnary, kParameter };

/// MOODSQL expression tree. A path expression `v.a.b.c()` is one kPath node with
/// range variable "v" and steps [a, b, c()].
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  MoodValue literal;

  // kParameter: 0-based position of a `?` placeholder, bound at execution
  uint32_t param_index = 0;

  // kPath
  std::string range_var;
  std::vector<PathStep> steps;  // may be empty: the bare range variable

  // kBinary
  BinaryOp op = BinaryOp::kAnd;
  ExprPtr lhs, rhs;

  // kUnary
  UnaryOp uop = UnaryOp::kNot;
  ExprPtr operand;

  static ExprPtr Literal(MoodValue v);
  static ExprPtr Path(std::string var, std::vector<PathStep> steps);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Parameter(uint32_t index);

  /// Textual rendering (used by EXPLAIN and the optimizer dictionaries).
  std::string ToString() const;
};

/// Number of `?` placeholders in an expression tree (max param_index + 1).
uint32_t ParamCount(const ExprPtr& expr);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/// One FROM-clause entry: [EVERY] Class [- Sub1 - Sub2 ...] var
struct FromEntry {
  std::string class_name;
  bool every = false;                  // include subclass extents
  std::vector<std::string> excludes;   // the `-` operator
  std::string var;
};

struct OrderKey {
  ExprPtr expr;
  bool ascending = true;
};

struct SelectStmt {
  std::vector<ExprPtr> projection;
  std::vector<FromEntry> from;
  ExprPtr where;                    // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;                   // may be null
  std::vector<OrderKey> order_by;
  bool distinct = false;
};

/// Number of `?` placeholders anywhere in a SELECT statement.
uint32_t ParamCount(const SelectStmt& stmt);

struct CreateClassStmt {
  Catalog::ClassDef def;
};

/// new ClassName <v1, v2, ...> [AS name]
struct NewObjectStmt {
  std::string class_name;
  std::vector<ExprPtr> values;
  std::string bind_name;  // optional persistent name (Bind operator)
};

/// UPDATE Class var SET attr = expr, ... [WHERE ...]
struct UpdateStmt {
  std::string class_name;
  std::string var;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};

/// DELETE FROM Class var [WHERE ...]
struct DeleteStmt {
  std::string class_name;
  std::string var;
  ExprPtr where;
};

/// CREATE [UNIQUE] INDEX name ON Class(attr) USING BTREE|HASH|JOININDEX
struct CreateIndexStmt {
  std::string index_name;
  std::string class_name;
  std::string attribute;
  IndexKind kind = IndexKind::kBTree;
  bool unique = false;
};

struct DropClassStmt {
  std::string class_name;
};

/// CREATE MATERIALIZED VIEW name AS <select>. `select_sql` preserves the
/// SELECT's source text verbatim so the definition can be persisted in the
/// catalog and re-parsed on reopen.
struct CreateMatViewStmt {
  std::string name;
  SelectStmt select;
  std::string select_sql;
};

/// DROP MATERIALIZED VIEW name
struct DropMatViewStmt {
  std::string name;
};

/// EXPLAIN [ANALYZE] [VERBOSE] <select>. Plain EXPLAIN optimizes and renders
/// the plan; ANALYZE also executes it and annotates each operator with actuals.
struct ExplainStmt {
  SelectStmt select;
  bool analyze = false;
  bool verbose = false;
};

/// ANALYZE [<class>]: collect optimizer statistics (Table 8 plus histograms
/// and distinct sketches) for one class, or for every class when none is
/// named.
struct AnalyzeStmt {
  std::string class_name;  ///< empty: all classes
};

using Statement = std::variant<SelectStmt, CreateClassStmt, NewObjectStmt, UpdateStmt,
                               DeleteStmt, CreateIndexStmt, DropClassStmt, ExplainStmt,
                               AnalyzeStmt, CreateMatViewStmt, DropMatViewStmt>;

}  // namespace mood
