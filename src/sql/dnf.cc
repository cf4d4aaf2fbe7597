#include "sql/dnf.h"

#include "sql/evaluator.h"
#include "types/operand.h"

namespace mood {

namespace {

bool IsLiteral(const ExprPtr& e) { return e->kind == ExprKind::kLiteral; }

/// Evaluates a binary op over two literals via the run-time interpreter.
Result<MoodValue> EvalLiteral(BinaryOp op, const MoodValue& a, const MoodValue& b) {
  // Comparisons fold through the run-time comparison, so a folded `3 = 'BMW'`
  // fails with the same status text as the unfolded one would.
  if (IsComparison(op)) {
    MOOD_ASSIGN_OR_RETURN(bool r, Evaluator::Compare(op, a, b));
    return MoodValue::Boolean(r);
  }
  OperandDataType x = OperandDataType::FromValue(a);
  OperandDataType y = OperandDataType::FromValue(b);
  OperandDataType r(DataTypeCode::kInt32);
  switch (op) {
    case BinaryOp::kAdd: r = x + y; break;
    case BinaryOp::kSub: r = x - y; break;
    case BinaryOp::kMul: r = x * y; break;
    case BinaryOp::kDiv: r = x / y; break;
    case BinaryOp::kMod: r = x % y; break;
    case BinaryOp::kAnd: r = (x && y); break;
    case BinaryOp::kOr: r = (x || y); break;
    default: return Status::Internal("unhandled binary operator");
  }
  return r.ToValue();
}

BinaryOp NegateComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return BinaryOp::kNe;
    case BinaryOp::kNe: return BinaryOp::kEq;
    case BinaryOp::kLt: return BinaryOp::kGe;
    case BinaryOp::kLe: return BinaryOp::kGt;
    case BinaryOp::kGt: return BinaryOp::kLe;
    case BinaryOp::kGe: return BinaryOp::kLt;
    default: return op;
  }
}

}  // namespace

Result<ExprPtr> FoldConstants(const ExprPtr& expr) {
  switch (expr->kind) {
    case ExprKind::kLiteral:
    case ExprKind::kPath:
    case ExprKind::kParameter:
      return expr;
    case ExprKind::kUnary: {
      MOOD_ASSIGN_OR_RETURN(ExprPtr inner, FoldConstants(expr->operand));
      if (IsLiteral(inner)) {
        if (expr->uop == UnaryOp::kNeg) {
          OperandDataType v = OperandDataType::FromValue(inner->literal);
          MOOD_ASSIGN_OR_RETURN(MoodValue folded, (-v).ToValue());
          return Expr::Literal(std::move(folded));
        }
        OperandDataType v = OperandDataType::FromValue(inner->literal);
        MOOD_ASSIGN_OR_RETURN(MoodValue folded, (!v).ToValue());
        return Expr::Literal(std::move(folded));
      }
      if (inner == expr->operand) return expr;
      return Expr::Unary(expr->uop, std::move(inner));
    }
    case ExprKind::kBinary: {
      MOOD_ASSIGN_OR_RETURN(ExprPtr lhs, FoldConstants(expr->lhs));
      MOOD_ASSIGN_OR_RETURN(ExprPtr rhs, FoldConstants(expr->rhs));
      if (IsLiteral(lhs) && IsLiteral(rhs)) {
        MOOD_ASSIGN_OR_RETURN(MoodValue folded,
                              EvalLiteral(expr->op, lhs->literal, rhs->literal));
        return Expr::Literal(std::move(folded));
      }
      if (lhs == expr->lhs && rhs == expr->rhs) return expr;
      return Expr::Binary(expr->op, std::move(lhs), std::move(rhs));
    }
  }
  return expr;
}

ExprPtr PushNotDown(const ExprPtr& expr, bool negate) {
  switch (expr->kind) {
    case ExprKind::kLiteral: {
      if (negate && expr->literal.kind() == ValueKind::kBoolean) {
        return Expr::Literal(MoodValue::Boolean(!expr->literal.AsBoolean()));
      }
      return negate ? Expr::Unary(UnaryOp::kNot, expr) : expr;
    }
    case ExprKind::kPath:
    case ExprKind::kParameter:
      return negate ? Expr::Unary(UnaryOp::kNot, expr) : expr;
    case ExprKind::kUnary: {
      if (expr->uop == UnaryOp::kNot) return PushNotDown(expr->operand, !negate);
      return negate ? Expr::Unary(UnaryOp::kNot, expr) : expr;
    }
    case ExprKind::kBinary: {
      if (expr->op == BinaryOp::kAnd || expr->op == BinaryOp::kOr) {
        BinaryOp op = expr->op;
        if (negate) op = (op == BinaryOp::kAnd) ? BinaryOp::kOr : BinaryOp::kAnd;
        return Expr::Binary(op, PushNotDown(expr->lhs, negate),
                            PushNotDown(expr->rhs, negate));
      }
      if (negate && IsComparison(expr->op)) {
        return Expr::Binary(NegateComparison(expr->op), expr->lhs, expr->rhs);
      }
      return negate ? Expr::Unary(UnaryOp::kNot, expr) : expr;
    }
  }
  return expr;
}

std::vector<AndTerm> ToDnf(const ExprPtr& expr) {
  if (expr->kind == ExprKind::kBinary && expr->op == BinaryOp::kOr) {
    auto left = ToDnf(expr->lhs);
    auto right = ToDnf(expr->rhs);
    left.insert(left.end(), right.begin(), right.end());
    return left;
  }
  if (expr->kind == ExprKind::kBinary && expr->op == BinaryOp::kAnd) {
    auto left = ToDnf(expr->lhs);
    auto right = ToDnf(expr->rhs);
    // Cross product: (A1 | A2) & (B1 | B2) = A1B1 | A1B2 | A2B1 | A2B2.
    std::vector<AndTerm> out;
    out.reserve(left.size() * right.size());
    for (const auto& l : left) {
      for (const auto& r : right) {
        AndTerm term = l;
        term.insert(term.end(), r.begin(), r.end());
        out.push_back(std::move(term));
      }
    }
    return out;
  }
  return {AndTerm{expr}};
}

Result<std::vector<AndTerm>> NormalizePredicate(const ExprPtr& expr) {
  MOOD_ASSIGN_OR_RETURN(ExprPtr folded, FoldConstants(expr));
  ExprPtr normalized = PushNotDown(folded);
  return ToDnf(normalized);
}

}  // namespace mood
