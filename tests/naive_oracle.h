#pragma once

// The test oracle for the engine's expression kernels, algebra and executor.
//
// NaiveEval is a recursive tree-walking interpreter over one row's range
// variable bindings. It shares only the path step (Evaluator::Step), the
// comparison (Evaluator::Compare) and the OperandDataType arithmetic with the
// engine; the engine itself evaluates every expression through compiled
// ExprPrograms.
//
// NaiveSelect is a naive SELECT evaluator. It shares no optimizer, plan,
// ExprProgram or RowBatch with the engine: FROM is the cross product of the
// FROM extents in ScanExtent order, and every clause (WHERE, GROUP BY, HAVING,
// ORDER BY, projection, DISTINCT) evaluates row by row, as the outer loop,
// through NaiveEval.
//
// NaiveChaseRefs is the per-row depth-first reference chase the pointer-join
// strategies' batched ObjectManager::ChaseRefs must reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/database.h"
#include "sql/parser.h"
#include "types/operand.h"

namespace mood::testing {

/// Bindings of range variables to objects for the current row, plus the
/// reader snapshot every object read takes (inactive: latest state) and the
/// bound `?` parameter values.
struct NaiveEnv {
  std::map<std::string, Oid> vars;
  SnapshotView snapshot;
  const std::vector<MoodValue>* params = nullptr;
};

inline Result<MoodValue> NaiveEval(const Evaluator& ev, const ExprPtr& expr,
                                   const NaiveEnv& env);

/// Evaluates a path expression rooted at a concrete object: one
/// Evaluator::Step per step, arguments evaluated only when a receiver asks.
inline Result<MoodValue> NaiveEvalPathFrom(const Evaluator& ev, Oid root,
                                           const std::vector<PathStep>& steps,
                                           const NaiveEnv& env) {
  MoodValue current = MoodValue::Reference(root);
  for (size_t i = 0; i < steps.size(); i++) {
    const PathStep& step = steps[i];
    Evaluator::ArgsFn args;
    if (!step.args.empty()) {
      args = [&]() -> Result<std::vector<MoodValue>> {
        std::vector<MoodValue> values;
        values.reserve(step.args.size());
        for (const auto& a : step.args) {
          MOOD_ASSIGN_OR_RETURN(MoodValue v, NaiveEval(ev, a, env));
          values.push_back(std::move(v));
        }
        return values;
      };
    }
    MOOD_ASSIGN_OR_RETURN(current,
                          ev.Step(current, step.name, step.is_call, args, env.snapshot));
    if (current.is_null() && i + 1 < steps.size()) return MoodValue::Null();
  }
  return current;
}

/// The reference chase one start object at a time, depth first: the
/// per-row loop ObjectManager::ChaseRefs must reproduce (the same objects
/// reached in the same order, and the same first error). One GetAttribute per
/// hop; Set/List values fan out, a Null stops the branch, any other
/// non-reference is a TypeError.
inline Status NaiveChaseFrom(const ObjectManager& objects, Oid oid,
                             const std::vector<std::string>& path, size_t depth,
                             const SnapshotView& snap,
                             const std::function<Status(Oid)>& fn) {
  if (depth == path.size()) return fn(oid);
  MOOD_ASSIGN_OR_RETURN(MoodValue v, objects.GetAttribute(oid, path[depth], snap));
  auto handle = [&](const MoodValue& r) -> Status {
    if (r.is_null()) return Status::OK();
    if (r.kind() != ValueKind::kReference) {
      return Status::TypeError("reference path step '" + path[depth] +
                               "' reached a non-reference value");
    }
    return NaiveChaseFrom(objects, r.AsReference(), path, depth + 1, snap, fn);
  };
  if (v.IsCollection()) {
    for (const auto& e : v.elements()) MOOD_RETURN_IF_ERROR(handle(e));
    return Status::OK();
  }
  return handle(v);
}

/// NaiveChaseFrom over `from` in order: `fn(i, reached)`.
inline Status NaiveChaseRefs(const ObjectManager& objects, const std::vector<Oid>& from,
                             const std::vector<std::string>& path,
                             const SnapshotView& snap,
                             const std::function<Status(size_t, Oid)>& fn) {
  for (size_t i = 0; i < from.size(); i++) {
    MOOD_RETURN_IF_ERROR(NaiveChaseFrom(objects, from[i], path, 0, snap,
                                        [&](Oid reached) { return fn(i, reached); }));
  }
  return Status::OK();
}

inline Result<MoodValue> NaiveEvalBinary(const Evaluator& ev, const Expr& e,
                                         const NaiveEnv& env) {
  if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
    // Short-circuit evaluation.
    MOOD_ASSIGN_OR_RETURN(MoodValue lv, NaiveEval(ev, e.lhs, env));
    MOOD_ASSIGN_OR_RETURN(bool lb, OperandDataType::FromValue(lv).AsBool());
    if (e.op == BinaryOp::kAnd && !lb) return MoodValue::Boolean(false);
    if (e.op == BinaryOp::kOr && lb) return MoodValue::Boolean(true);
    MOOD_ASSIGN_OR_RETURN(MoodValue rv, NaiveEval(ev, e.rhs, env));
    MOOD_ASSIGN_OR_RETURN(bool rb, OperandDataType::FromValue(rv).AsBool());
    return MoodValue::Boolean(rb);
  }
  MOOD_ASSIGN_OR_RETURN(MoodValue lv, NaiveEval(ev, e.lhs, env));
  MOOD_ASSIGN_OR_RETURN(MoodValue rv, NaiveEval(ev, e.rhs, env));
  if (IsComparison(e.op)) {
    MOOD_ASSIGN_OR_RETURN(bool r, Evaluator::Compare(e.op, lv, rv));
    return MoodValue::Boolean(r);
  }
  OperandDataType x = OperandDataType::FromValue(lv);
  OperandDataType y = OperandDataType::FromValue(rv);
  OperandDataType r(DataTypeCode::kInt32);
  switch (e.op) {
    case BinaryOp::kAdd: r = x + y; break;
    case BinaryOp::kSub: r = x - y; break;
    case BinaryOp::kMul: r = x * y; break;
    case BinaryOp::kDiv: r = x / y; break;
    case BinaryOp::kMod: r = x % y; break;
    default:
      return Status::Internal("unhandled binary operator");
  }
  return r.ToValue();
}

/// Evaluates an expression to a value. A path through a Set/List-valued
/// reference attribute fans out and yields a Set of terminal values; a
/// comparison against such a Set is existential.
inline Result<MoodValue> NaiveEval(const Evaluator& ev, const ExprPtr& expr,
                                   const NaiveEnv& env) {
  switch (expr->kind) {
    case ExprKind::kLiteral:
      return expr->literal;
    case ExprKind::kPath: {
      auto it = env.vars.find(expr->range_var);
      if (it == env.vars.end()) {
        return Status::InvalidArgument("unbound range variable '" + expr->range_var +
                                       "'");
      }
      if (expr->steps.empty()) return MoodValue::Reference(it->second);
      return NaiveEvalPathFrom(ev, it->second, expr->steps, env);
    }
    case ExprKind::kUnary: {
      MOOD_ASSIGN_OR_RETURN(MoodValue v, NaiveEval(ev, expr->operand, env));
      OperandDataType o = OperandDataType::FromValue(v);
      if (expr->uop == UnaryOp::kNeg) return (-o).ToValue();
      return (!o).ToValue();
    }
    case ExprKind::kBinary:
      return NaiveEvalBinary(ev, *expr, env);
    case ExprKind::kParameter: {
      if (env.params == nullptr || expr->param_index >= env.params->size()) {
        return Status::InvalidArgument("parameter ?" +
                                       std::to_string(expr->param_index + 1) +
                                       " not bound");
      }
      return (*env.params)[expr->param_index];
    }
  }
  return Status::Internal("unhandled expression kind");
}

/// Evaluates a predicate to a Boolean (null/absent values make it false).
inline Result<bool> NaiveEvalPredicate(const Evaluator& ev, const ExprPtr& expr,
                                       const NaiveEnv& env) {
  MOOD_ASSIGN_OR_RETURN(MoodValue v, NaiveEval(ev, expr, env));
  if (v.is_null()) return false;
  return OperandDataType::FromValue(v).AsBool();
}

inline Result<QueryResult> NaiveSelect(Database* db, const std::string& sql) {
  MOOD_ASSIGN_OR_RETURN(Statement parsed, Parser::Parse(sql));
  if (!std::holds_alternative<SelectStmt>(parsed)) {
    return Status::InvalidArgument("naive oracle evaluates SELECT only");
  }
  const SelectStmt& stmt = std::get<SelectStmt>(parsed);
  const Evaluator& ev = *db->evaluator();
  using Row = std::vector<Oid>;
  auto env_of = [&](const Row& row) {
    NaiveEnv env;
    for (size_t i = 0; i < row.size(); i++) env.vars[stmt.from[i].var] = row[i];
    return env;
  };
  // FROM x WHERE: extend every partial row by one extent at a time, so the
  // first FROM variable varies slowest.
  std::vector<Row> rows = {Row{}};
  for (const FromEntry& fe : stmt.from) {
    std::vector<Oid> extent;
    MOOD_RETURN_IF_ERROR(db->objects()->ScanExtent(
        fe.class_name, fe.every, fe.excludes, [&](Oid oid, const MoodValue&) {
          extent.push_back(oid);
          return Status::OK();
        }));
    std::vector<Row> next;
    for (const Row& row : rows) {
      for (Oid oid : extent) {
        next.push_back(row);
        next.back().push_back(oid);
      }
    }
    rows = std::move(next);
  }
  auto keep_where = [&](const ExprPtr& pred, std::vector<Row>* in) -> Status {
    std::vector<Row> kept;
    for (Row& row : *in) {
      MOOD_ASSIGN_OR_RETURN(bool keep, NaiveEvalPredicate(ev, pred, env_of(row)));
      if (keep) kept.push_back(std::move(row));
    }
    *in = std::move(kept);
    return Status::OK();
  };
  if (stmt.where != nullptr) MOOD_RETURN_IF_ERROR(keep_where(stmt.where, &rows));
  // Evaluates `exprs` over every row: row-outer, expression-inner.
  auto eval_all = [&](const std::vector<ExprPtr>& exprs, const std::vector<Row>& in)
      -> Result<std::vector<std::vector<MoodValue>>> {
    std::vector<std::vector<MoodValue>> out;
    for (const Row& row : in) {
      NaiveEnv env = env_of(row);
      out.emplace_back();
      for (const ExprPtr& e : exprs) {
        MOOD_ASSIGN_OR_RETURN(MoodValue v, NaiveEval(ev, e, env));
        out.back().push_back(std::move(v));
      }
    }
    return out;
  };
  if (!stmt.group_by.empty()) {
    MOOD_ASSIGN_OR_RETURN(auto keys, eval_all(stmt.group_by, rows));
    std::map<std::string, Row> groups;  // first row per key, in key order
    for (size_t r = 0; r < rows.size(); r++) {
      std::string key;
      for (const MoodValue& v : keys[r]) v.EncodeTo(&key);
      groups.emplace(std::move(key), rows[r]);
    }
    rows.clear();
    for (auto& [key, row] : groups) rows.push_back(std::move(row));
    if (stmt.having != nullptr) MOOD_RETURN_IF_ERROR(keep_where(stmt.having, &rows));
  }
  if (!stmt.order_by.empty()) {
    std::vector<ExprPtr> exprs;
    for (const auto& ob : stmt.order_by) exprs.push_back(ob.expr);
    MOOD_ASSIGN_OR_RETURN(auto keys, eval_all(exprs, rows));
    std::vector<size_t> order(rows.size());
    for (size_t i = 0; i < order.size(); i++) order[i] = i;
    Status cmp_error;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < exprs.size(); k++) {
        auto c = keys[a][k].Compare(keys[b][k]);
        if (!c.ok()) {
          if (cmp_error.ok()) cmp_error = c.status();
          return false;
        }
        if (c.value() != 0) return stmt.order_by[k].ascending == (c.value() < 0);
      }
      return false;
    });
    MOOD_RETURN_IF_ERROR(cmp_error);
    std::vector<Row> sorted;
    for (size_t i : order) sorted.push_back(std::move(rows[i]));
    rows = std::move(sorted);
  }
  QueryResult result;
  for (const ExprPtr& p : stmt.projection) result.columns.push_back(p->ToString());
  MOOD_ASSIGN_OR_RETURN(result.rows, eval_all(stmt.projection, rows));
  if (stmt.distinct) {
    std::set<std::string> seen;
    std::vector<std::vector<MoodValue>> unique;
    for (auto& row : result.rows) {
      std::string key;
      for (const MoodValue& v : row) v.EncodeTo(&key);
      if (seen.insert(std::move(key)).second) unique.push_back(std::move(row));
    }
    result.rows = std::move(unique);
  }
  return result;
}

/// Rendered rows, sorted: the comparison form for results whose row order the
/// query leaves open (plans legitimately reorder unordered rows).
inline std::vector<std::string> SortedRows(const QueryResult& r) {
  std::vector<std::string> out;
  for (const auto& row : r.rows) {
    std::string line;
    for (const MoodValue& v : row) line += v.ToString() + " | ";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Diffs the engine's answer to `sql` against NaiveSelect. Both sides must
/// agree on success (and, with `same_error`, on the status text); when both
/// succeed, columns and sorted rows must be equal.
inline void ExpectNaiveMatch(Database* db, const std::string& sql,
                             bool same_error = false) {
  Result<QueryResult> engine = db->Query(sql);
  Result<QueryResult> naive = NaiveSelect(db, sql);
  ASSERT_EQ(engine.ok(), naive.ok())
      << sql << "\n engine: " << engine.status().ToString()
      << "\n naive:  " << naive.status().ToString();
  if (!engine.ok()) {
    if (same_error) {
      EXPECT_EQ(engine.status().ToString(), naive.status().ToString()) << sql;
    }
    return;
  }
  EXPECT_EQ(engine.value().columns, naive.value().columns) << sql;
  EXPECT_EQ(SortedRows(engine.value()), SortedRows(naive.value())) << sql;
}

}  // namespace mood::testing
