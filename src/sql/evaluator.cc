#include "sql/evaluator.h"

#include "types/operand.h"

namespace mood {

Result<MoodValue> Evaluator::CallMethod(Oid receiver, const std::string& fname,
                                        const ArgsFn& args, DerefCache* deref) const {
  MOOD_ASSIGN_OR_RETURN(std::string cls, objects_->ClassOf(receiver, deref));
  MOOD_ASSIGN_OR_RETURN(MoodValue self_value, objects_->Fetch(receiver, deref));
  // The memoized layout supplies the flattened attribute list (and its name
  // vector for the method context) without re-walking the IS-A DAG per call;
  // DDL invalidates it through the catalog's schema epoch.
  MOOD_ASSIGN_OR_RETURN(AttributeLayoutPtr layout, objects_->LayoutOf(cls));
  const auto& attrs = layout->attrs;
  // Pad the tuple so methods can see attributes added after this object was made.
  if (self_value.kind() == ValueKind::kTuple && self_value.size() < attrs.size()) {
    auto& elems = self_value.mutable_elements();
    for (size_t i = elems.size(); i < attrs.size(); i++) {
      elems.push_back(attrs[i].type->DefaultValue());
    }
  }

  std::vector<MoodValue> arg_values;
  if (args) {
    MOOD_ASSIGN_OR_RETURN(arg_values, args());
  }

  MethodContext ctx;
  ctx.self = receiver;
  ctx.self_value = &self_value;
  ctx.attr_names = &layout->names;
  ctx.deref = [this, deref](Oid oid) { return objects_->Fetch(oid, deref); };
  return functions_->Invoke(cls, fname, ctx, std::move(arg_values));
}

Result<MoodValue> Evaluator::Step(const MoodValue& v, const std::string& name,
                                  bool is_call, const ArgsFn& args,
                                  DerefCache* deref) const {
  auto apply_one = [&](const MoodValue& e) -> Result<MoodValue> {
    if (e.is_null()) return MoodValue::Null();
    if (e.kind() != ValueKind::kReference) {
      return Status::TypeError("path step '" + name +
                               "' applied to a non-reference value");
    }
    Oid oid = e.AsReference();
    if (is_call) return CallMethod(oid, name, args, deref);
    if (name == "self") return e;
    // Attribute access; a name that is not an attribute may be a parameterless
    // method (the paper allows `s.A` where A is a parameterless method).
    auto attr = objects_->GetAttribute(oid, name, deref);
    if (!attr.ok() && attr.status().IsNotFound()) return CallMethod(oid, name, {}, deref);
    return attr;
  };
  if (!v.IsCollection()) return apply_one(v);
  MoodValue::ValueList results;
  results.reserve(v.elements().size());
  for (const auto& e : v.elements()) {
    MOOD_ASSIGN_OR_RETURN(MoodValue r, apply_one(e));
    if (r.is_null()) continue;
    if (r.IsCollection()) {
      // Flatten by moving: mutable_elements() is copy-on-write, so a
      // uniquely-owned inner collection moves element-wise without copies.
      auto& inner = r.mutable_elements();
      results.reserve(results.size() + inner.size());
      for (auto& iv : inner) results.push_back(std::move(iv));
    } else {
      results.push_back(std::move(r));
    }
  }
  return MoodValue::Set(std::move(results));
}

Result<MoodValue> Evaluator::EvalPathFrom(Oid root, const std::vector<PathStep>& steps,
                                          const Env& env) const {
  MoodValue current = MoodValue::Reference(root);
  for (size_t i = 0; i < steps.size(); i++) {
    const PathStep& step = steps[i];
    ArgsFn args;
    if (!step.args.empty()) {
      args = [&]() -> Result<std::vector<MoodValue>> {
        std::vector<MoodValue> values;
        values.reserve(step.args.size());
        for (const auto& a : step.args) {
          MOOD_ASSIGN_OR_RETURN(MoodValue v, Eval(a, env));
          values.push_back(std::move(v));
        }
        return values;
      };
    }
    MOOD_ASSIGN_OR_RETURN(current, Step(current, step.name, step.is_call, args, env.deref));
    if (current.is_null() && i + 1 < steps.size()) return MoodValue::Null();
  }
  return current;
}

Result<MoodValue> Evaluator::Eval(const ExprPtr& expr, const Env& env) const {
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
      return EvalPathFrom(it->second, expr->steps, env);
    }
    case ExprKind::kUnary: {
      MOOD_ASSIGN_OR_RETURN(MoodValue v, Eval(expr->operand, env));
      OperandDataType o = OperandDataType::FromValue(v);
      if (expr->uop == UnaryOp::kNeg) return (-o).ToValue();
      return (!o).ToValue();
    }
    case ExprKind::kBinary:
      return EvalBinary(*expr, env);
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

Result<bool> Evaluator::Compare(BinaryOp op, const MoodValue& lhs,
                                const MoodValue& rhs) {
  // Existential fan-out: if either side is a collection, the comparison holds if
  // any element pair does.
  if (lhs.IsCollection()) {
    for (const auto& e : lhs.elements()) {
      MOOD_ASSIGN_OR_RETURN(bool r, Compare(op, e, rhs));
      if (r) return true;
    }
    return false;
  }
  if (rhs.IsCollection()) {
    for (const auto& e : rhs.elements()) {
      MOOD_ASSIGN_OR_RETURN(bool r, Compare(op, lhs, e));
      if (r) return true;
    }
    return false;
  }
  if (lhs.is_null() || rhs.is_null()) return false;
  // References compare by identity.
  if (lhs.kind() == ValueKind::kReference || rhs.kind() == ValueKind::kReference) {
    if (lhs.kind() != rhs.kind()) {
      return Status::TypeError("cannot compare reference with non-reference");
    }
    bool eq = lhs.AsReference() == rhs.AsReference();
    if (op == BinaryOp::kEq) return eq;
    if (op == BinaryOp::kNe) return !eq;
    return Status::TypeError("references only support = and <>");
  }
  MOOD_ASSIGN_OR_RETURN(int c, lhs.Compare(rhs));
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    case BinaryOp::kGe: return c >= 0;
    default:
      return Status::Internal("not a comparison");
  }
}

Result<MoodValue> Evaluator::EvalBinary(const Expr& e, const Env& env) const {
  if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
    // Short-circuit evaluation (the optimizer orders predicates to exploit it).
    MOOD_ASSIGN_OR_RETURN(MoodValue lv, Eval(e.lhs, env));
    OperandDataType lo = OperandDataType::FromValue(lv);
    MOOD_ASSIGN_OR_RETURN(bool lb, lo.AsBool());
    if (e.op == BinaryOp::kAnd && !lb) return MoodValue::Boolean(false);
    if (e.op == BinaryOp::kOr && lb) return MoodValue::Boolean(true);
    MOOD_ASSIGN_OR_RETURN(MoodValue rv, Eval(e.rhs, env));
    OperandDataType ro = OperandDataType::FromValue(rv);
    MOOD_ASSIGN_OR_RETURN(bool rb, ro.AsBool());
    return MoodValue::Boolean(rb);
  }
  MOOD_ASSIGN_OR_RETURN(MoodValue lv, Eval(e.lhs, env));
  MOOD_ASSIGN_OR_RETURN(MoodValue rv, Eval(e.rhs, env));
  if (IsComparison(e.op)) {
    MOOD_ASSIGN_OR_RETURN(bool r, Compare(e.op, lv, rv));
    return MoodValue::Boolean(r);
  }
  // Arithmetic through the run-time-typed interpreter.
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

Result<bool> Evaluator::EvalPredicate(const ExprPtr& expr, const Env& env) const {
  MOOD_ASSIGN_OR_RETURN(MoodValue v, Eval(expr, env));
  if (v.is_null()) return false;
  OperandDataType o = OperandDataType::FromValue(v);
  return o.AsBool();
}

}  // namespace mood
