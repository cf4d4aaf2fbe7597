#include "sql/evaluator.h"

namespace mood {

Result<MoodValue> Evaluator::CallMethod(Oid receiver, const std::string& fname,
                                        const ArgsFn& args,
                                        const SnapshotView& snap) const {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord self, objects_->Read(receiver, snap));
  // The memoized layout supplies the class name and the flattened attribute
  // list (and its name vector for the method context) without re-walking the
  // IS-A DAG per call; DDL invalidates it through the catalog's schema epoch.
  MOOD_ASSIGN_OR_RETURN(AttributeLayoutPtr layout, objects_->LayoutOf(self.type_id));
  const std::string& cls = layout->class_name;
  MoodValue self_value = *self.tuple;
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
  ctx.deref = [this, snap](Oid oid) { return objects_->Fetch(oid, snap); };
  return functions_->Invoke(cls, fname, ctx, std::move(arg_values));
}

Result<MoodValue> Evaluator::Step(const MoodValue& v, const std::string& name,
                                  bool is_call, const ArgsFn& args,
                                  const SnapshotView& snap) const {
  auto apply_one = [&](const MoodValue& e) -> Result<MoodValue> {
    if (e.is_null()) return MoodValue::Null();
    if (e.kind() != ValueKind::kReference) {
      return Status::TypeError("path step '" + name +
                               "' applied to a non-reference value");
    }
    Oid oid = e.AsReference();
    if (is_call) return CallMethod(oid, name, args, snap);
    if (name == "self") return e;
    // Attribute access; a name that is not an attribute may be a parameterless
    // method (the paper allows `s.A` where A is a parameterless method).
    auto attr = objects_->GetAttribute(oid, name, snap);
    if (!attr.ok() && attr.status().IsNotFound()) return CallMethod(oid, name, {}, snap);
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

}  // namespace mood
