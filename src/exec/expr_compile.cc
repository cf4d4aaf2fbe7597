#include "exec/expr_compile.h"

#include <cstdio>

#include "sql/evaluator.h"
#include "types/operand.h"

namespace mood {

namespace {

/// Bottom-up constant evaluation with the interpreter's exact semantics.
/// Returns false for non-constant subtrees AND for constant subtrees whose
/// evaluation errors: an erroring subtree is left in bytecode form so the
/// identical error surfaces at run time.
bool TryConstEval(const Expr& e, MoodValue* out) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      *out = e.literal;
      return true;
    case ExprKind::kPath:
    case ExprKind::kParameter:
      return false;
    case ExprKind::kUnary: {
      MoodValue v;
      if (!TryConstEval(*e.operand, &v)) return false;
      OperandDataType o = OperandDataType::FromValue(v);
      auto r = e.uop == UnaryOp::kNeg ? (-o).ToValue() : (!o).ToValue();
      if (!r.ok()) return false;
      *out = std::move(r).value();
      return true;
    }
    case ExprKind::kBinary: {
      if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
        // Short-circuit is part of the semantics: a deciding lhs folds the
        // node even when the rhs is non-constant (the interpreter would never
        // evaluate it).
        MoodValue lv;
        if (!TryConstEval(*e.lhs, &lv)) return false;
        auto lb = OperandDataType::FromValue(lv).AsBool();
        if (!lb.ok()) return false;
        if (e.op == BinaryOp::kAnd && !lb.value()) {
          *out = MoodValue::Boolean(false);
          return true;
        }
        if (e.op == BinaryOp::kOr && lb.value()) {
          *out = MoodValue::Boolean(true);
          return true;
        }
        MoodValue rv;
        if (!TryConstEval(*e.rhs, &rv)) return false;
        auto rb = OperandDataType::FromValue(rv).AsBool();
        if (!rb.ok()) return false;
        *out = MoodValue::Boolean(rb.value());
        return true;
      }
      MoodValue lv, rv;
      if (!TryConstEval(*e.lhs, &lv) || !TryConstEval(*e.rhs, &rv)) return false;
      if (IsComparison(e.op)) {
        auto r = Evaluator::Compare(e.op, lv, rv);
        if (!r.ok()) return false;
        *out = MoodValue::Boolean(r.value());
        return true;
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
        default: return false;
      }
      auto v = r.ToValue();
      if (!v.ok()) return false;
      *out = std::move(v).value();
      return true;
    }
  }
  return false;
}

uint32_t AddConst(std::vector<MoodValue>* consts, MoodValue v) {
  consts->push_back(std::move(v));
  return static_cast<uint32_t>(consts->size() - 1);
}

}  // namespace

std::unique_ptr<ExprProgram> ExprCompiler::Compile(const ExprPtr& expr,
                                                   const ExprCompileEnv& env) const {
  if (expr == nullptr) return nullptr;
  auto prog = std::make_unique<ExprProgram>();
  prog->objects_ = objects_;
  if (!Emit(*expr, env, prog.get())) return nullptr;
  return prog;
}

bool ExprCompiler::Emit(const Expr& e, const ExprCompileEnv& env,
                        ExprProgram* prog) const {
  if (e.kind != ExprKind::kLiteral) {
    MoodValue folded;
    if (TryConstEval(e, &folded)) {
      prog->code_.push_back({ExprProgram::OpCode::kPushConst,
                             AddConst(&prog->consts_, std::move(folded)), 0});
      prog->const_folded_++;
      return true;
    }
  }
  switch (e.kind) {
    case ExprKind::kLiteral:
      prog->code_.push_back({ExprProgram::OpCode::kPushConst,
                             AddConst(&prog->consts_, e.literal), 0});
      return true;
    case ExprKind::kPath:
      return EmitPath(e, env, prog);
    case ExprKind::kParameter:
      prog->code_.push_back({ExprProgram::OpCode::kLoadParam, e.param_index, 0});
      return true;
    case ExprKind::kUnary:
      if (!Emit(*e.operand, env, prog)) return false;
      prog->code_.push_back(
          {ExprProgram::OpCode::kUnary, static_cast<uint32_t>(e.uop), 0});
      return true;
    case ExprKind::kBinary: {
      if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
        // A constant lhs that does not decide the result still disappears:
        // the node reduces to CoerceBool(rhs). (A deciding lhs was already
        // handled by the whole-node fold above.)
        MoodValue lv;
        if (TryConstEval(*e.lhs, &lv)) {
          auto lb = OperandDataType::FromValue(lv).AsBool();
          if (lb.ok()) {
            if (!Emit(*e.rhs, env, prog)) return false;
            prog->code_.push_back({ExprProgram::OpCode::kCoerceBool, 0, 0});
            if (e.lhs->kind != ExprKind::kLiteral) prog->const_folded_++;
            return true;
          }
        }
        if (!Emit(*e.lhs, env, prog)) return false;
        size_t jmp = prog->code_.size();
        prog->code_.push_back({e.op == BinaryOp::kAnd
                                   ? ExprProgram::OpCode::kJumpIfFalse
                                   : ExprProgram::OpCode::kJumpIfTrue,
                               0, 0});
        if (!Emit(*e.rhs, env, prog)) return false;
        prog->code_.push_back({ExprProgram::OpCode::kCoerceBool, 0, 0});
        prog->code_[jmp].a = static_cast<uint32_t>(prog->code_.size());
        return true;
      }
      if (!Emit(*e.lhs, env, prog) || !Emit(*e.rhs, env, prog)) return false;
      prog->code_.push_back({IsComparison(e.op) ? ExprProgram::OpCode::kCompare
                                                : ExprProgram::OpCode::kBinaryArith,
                             static_cast<uint32_t>(e.op), 0});
      return true;
    }
  }
  return false;
}

bool ExprCompiler::EmitPath(const Expr& e, const ExprCompileEnv& env,
                            ExprProgram* prog) const {
  auto it = env.vars.find(e.range_var);
  if (it == env.vars.end()) return false;  // unbound: the interpreter reports it
  const ExprCompileEnv::VarInfo& vi = it->second;
  // Leading `self` steps on the root are identities (the slot always holds a
  // valid reference), so they compile away.
  size_t first = 0;
  while (first < e.steps.size() && !e.steps[first].is_call &&
         e.steps[first].name == "self") {
    first++;
  }
  if (first == e.steps.size()) {
    prog->code_.push_back({ExprProgram::OpCode::kLoadSlot, vi.slot, 0});
    return true;
  }
  if (!vi.single_class || vi.class_name.empty()) return false;  // polymorphic root
  std::string cls = vi.class_name;
  for (size_t i = first; i < e.steps.size(); i++) {
    const PathStep& step = e.steps[i];
    if (step.is_call) return false;        // method dispatch stays interpreted
    if (step.name == "self") return false; // non-root self: rare, interpreter's
    auto layout_r = objects_->LayoutOf(cls);
    if (!layout_r.ok()) return false;
    AttributeLayoutPtr layout = std::move(layout_r).value();
    int ord = layout->OrdinalOf(step.name);
    if (ord < 0) return false;  // may resolve to a parameterless method
    const TypeDescPtr& type = layout->attrs[static_cast<size_t>(ord)].type;
    auto attr_idx = static_cast<uint32_t>(prog->attrs_.size());
    prog->attrs_.push_back({layout, static_cast<uint32_t>(ord), step.name});
    if (i == first) {
      prog->code_.push_back({ExprProgram::OpCode::kLoadAttr, vi.slot, attr_idx});
    } else {
      prog->code_.push_back({ExprProgram::OpCode::kDerefAttr, 0, attr_idx});
    }
    if (i + 1 < e.steps.size()) {
      // Non-terminal steps must be single-valued references: a Set/List here
      // would fan out mid-path (interpreter territory), anything else raises
      // the interpreter's type error — which kDerefAttr reproduces only for
      // values, not for the statically-knowable cases we can refuse now.
      if (type->kind() != ConstructorKind::kReference) return false;
      cls = type->referenced_class();
    }
  }
  return true;
}

Result<MoodValue> ExprProgram::Eval(const Oid* slots, DerefCache* cache,
                                    BatchScratch* scratch, bool* need_fallback) const {
  *need_fallback = false;
  auto& st = scratch->row_stack;
  st.clear();  // keeps capacity: no per-row allocation once warmed up
  size_t pc = 0;
  while (pc < code_.size()) {
    const Instr& ins = code_[pc];
    switch (ins.op) {
      case OpCode::kPushConst:
        st.push_back(consts_[ins.a]);
        break;
      case OpCode::kLoadParam: {
        const std::vector<MoodValue>* params = scratch->params;
        if (params == nullptr || ins.a >= params->size()) {
          return Status::InvalidArgument("parameter ?" + std::to_string(ins.a + 1) +
                                         " not bound");
        }
        st.push_back((*params)[ins.a]);
        break;
      }
      case OpCode::kLoadSlot:
        st.push_back(MoodValue::Reference(slots[ins.a]));
        break;
      case OpCode::kLoadAttr: {
        const AttrRef& ar = attrs_[ins.b];
        auto r = objects_->GetAttributeByOrdinal(slots[ins.a], *ar.layout, ar.ordinal,
                                                 cache);
        if (!r.ok()) {
          // NotFound: the instance's class lacks the attribute, so the name
          // may be a parameterless method — the interpreter decides.
          if (r.status().IsNotFound()) {
            *need_fallback = true;
            return MoodValue::Null();
          }
          return r.status();
        }
        st.push_back(std::move(r).value());
        break;
      }
      case OpCode::kDerefAttr: {
        const AttrRef& ar = attrs_[ins.b];
        MoodValue v = std::move(st.back());
        st.pop_back();
        if (v.is_null()) {
          // Null propagates through every remaining step of this path,
          // matching the interpreter's early Null() return.
          st.push_back(MoodValue::Null());
          break;
        }
        if (v.IsCollection()) {
          // Runtime fan-out the static type ruled out (shouldn't happen for
          // type-checked objects; be safe, not clever).
          *need_fallback = true;
          return MoodValue::Null();
        }
        if (v.kind() != ValueKind::kReference) {
          return Status::TypeError("path step '" + ar.name +
                                   "' applied to a non-reference value");
        }
        auto r = objects_->GetAttributeByOrdinal(v.AsReference(), *ar.layout,
                                                 ar.ordinal, cache);
        if (!r.ok()) {
          if (r.status().IsNotFound()) {
            *need_fallback = true;
            return MoodValue::Null();
          }
          return r.status();
        }
        st.push_back(std::move(r).value());
        break;
      }
      case OpCode::kBinaryArith: {
        MoodValue rv = std::move(st.back());
        st.pop_back();
        MoodValue lv = std::move(st.back());
        st.pop_back();
        OperandDataType x = OperandDataType::FromValue(lv);
        OperandDataType y = OperandDataType::FromValue(rv);
        OperandDataType r(DataTypeCode::kInt32);
        switch (static_cast<BinaryOp>(ins.a)) {
          case BinaryOp::kAdd: r = x + y; break;
          case BinaryOp::kSub: r = x - y; break;
          case BinaryOp::kMul: r = x * y; break;
          case BinaryOp::kDiv: r = x / y; break;
          case BinaryOp::kMod: r = x % y; break;
          default:
            return Status::Internal("unhandled binary operator");
        }
        MOOD_ASSIGN_OR_RETURN(MoodValue out, r.ToValue());
        st.push_back(std::move(out));
        break;
      }
      case OpCode::kCompare: {
        MoodValue rv = std::move(st.back());
        st.pop_back();
        MoodValue lv = std::move(st.back());
        st.pop_back();
        MOOD_ASSIGN_OR_RETURN(
            bool b, Evaluator::Compare(static_cast<BinaryOp>(ins.a), lv, rv));
        st.push_back(MoodValue::Boolean(b));
        break;
      }
      case OpCode::kUnary: {
        MoodValue v = std::move(st.back());
        st.pop_back();
        OperandDataType o = OperandDataType::FromValue(v);
        auto r = static_cast<UnaryOp>(ins.a) == UnaryOp::kNeg ? (-o).ToValue()
                                                              : (!o).ToValue();
        MOOD_RETURN_IF_ERROR(r.status());
        st.push_back(std::move(r).value());
        break;
      }
      case OpCode::kJumpIfFalse:
      case OpCode::kJumpIfTrue: {
        MoodValue v = std::move(st.back());
        st.pop_back();
        OperandDataType o = OperandDataType::FromValue(v);
        MOOD_ASSIGN_OR_RETURN(bool b, o.AsBool());
        bool jump = ins.op == OpCode::kJumpIfFalse ? !b : b;
        if (jump) {
          st.push_back(MoodValue::Boolean(b));
          pc = ins.a;
          continue;
        }
        break;
      }
      case OpCode::kCoerceBool: {
        MoodValue v = std::move(st.back());
        st.pop_back();
        OperandDataType o = OperandDataType::FromValue(v);
        MOOD_ASSIGN_OR_RETURN(bool b, o.AsBool());
        st.push_back(MoodValue::Boolean(b));
        break;
      }
    }
    pc++;
  }
  if (st.size() != 1) return Status::Internal("expression program stack imbalance");
  return std::move(st.back());
}

bool ExprProgram::has_jumps() const {
  for (const Instr& ins : code_) {
    if (ins.op == OpCode::kJumpIfFalse || ins.op == OpCode::kJumpIfTrue) return true;
  }
  return false;
}

void ExprProgram::EvalBatch(const RowBatch& batch, DerefCache* cache,
                            BatchScratch* s) const {
  const size_t n = batch.ActiveRows();
  s->flags.assign(n, kRowOk);
  s->values.resize(n);
  s->errors.clear();
  s->errors.resize(n);
  if (n == 0) return;

  if (has_jumps()) {
    // Short-circuit jumps make control flow diverge per row; run the row
    // machine over a row-major slot gather. Dispatch is not amortized here,
    // but DNF splitting keeps jumps out of the hot filter predicates.
    s->rowbuf.resize(batch.nslots);
    for (size_t k = 0; k < n; k++) {
      batch.GatherRow(batch.RowAt(k), s->rowbuf.data());
      bool need_fallback = false;
      auto r = Eval(s->rowbuf.data(), cache, s, &need_fallback);
      if (!r.ok()) {
        s->flags[k] = kRowError;
        s->errors[k] = r.status();
      } else if (need_fallback) {
        s->flags[k] = kRowFallback;
      } else {
        s->values[k] = std::move(r).value();
      }
    }
    return;
  }

  // Columnar path: every opcode runs as one tight loop over the live rows.
  // The stack holds columns instead of scalars; `live` lists the rows still
  // executing (a row leaves the moment it errors or needs the interpreter).
  // The push/pop discipline is row-independent, so all rows agree on the
  // stack shape at every pc.
  auto& live = s->live;
  live.resize(n);
  for (size_t k = 0; k < n; k++) live[k] = static_cast<uint32_t>(k);
  s->top = 0;
  auto push = [&]() -> BatchScratch::Col& {
    if (s->stack.size() <= s->top) s->stack.emplace_back();
    BatchScratch::Col& c = s->stack[s->top++];
    c.is_const = false;
    if (c.v.size() < n) c.v.resize(n);
    return c;
  };
  auto val = [](const BatchScratch::Col& c, uint32_t k) -> const MoodValue& {
    return c.is_const ? c.cval : c.v[k];
  };
  auto fail = [&](uint32_t k, Status st) {
    s->flags[k] = kRowError;
    s->errors[k] = std::move(st);
  };

  for (const Instr& ins : code_) {
    switch (ins.op) {
      case OpCode::kPushConst: {
        BatchScratch::Col& c = push();
        c.is_const = true;
        c.cval = consts_[ins.a];
        break;
      }
      case OpCode::kLoadParam: {
        // One bound value per execution: a broadcast constant column.
        BatchScratch::Col& c = push();
        c.is_const = true;
        if (s->params == nullptr || ins.a >= s->params->size()) {
          Status st = Status::InvalidArgument(
              "parameter ?" + std::to_string(ins.a + 1) + " not bound");
          for (uint32_t k : live) fail(k, st);
          live.clear();
          c.cval = MoodValue::Null();
          break;
        }
        c.cval = (*s->params)[ins.a];
        break;
      }
      case OpCode::kLoadSlot: {
        BatchScratch::Col& c = push();
        const Oid* col = batch.col(ins.a);
        for (uint32_t k : live) c.v[k] = MoodValue::Reference(col[batch.RowAt(k)]);
        break;
      }
      case OpCode::kLoadAttr: {
        const AttrRef& ar = attrs_[ins.b];
        BatchScratch::Col& c = push();
        const Oid* col = batch.col(ins.a);
        size_t w = 0;
        for (uint32_t k : live) {
          auto r = objects_->GetAttributeByOrdinal(col[batch.RowAt(k)], *ar.layout,
                                                   ar.ordinal, cache);
          if (!r.ok()) {
            if (r.status().IsNotFound()) {
              s->flags[k] = kRowFallback;
            } else {
              fail(k, r.status());
            }
            continue;
          }
          c.v[k] = std::move(r).value();
          live[w++] = k;
        }
        live.resize(w);
        break;
      }
      case OpCode::kDerefAttr: {
        const AttrRef& ar = attrs_[ins.b];
        BatchScratch::Col& c = s->stack[s->top - 1];
        if (c.v.size() < n) c.v.resize(n);
        size_t w = 0;
        for (uint32_t k : live) {
          const MoodValue& v = val(c, k);
          if (v.is_null()) {
            c.v[k] = MoodValue::Null();
            live[w++] = k;
            continue;
          }
          if (v.IsCollection()) {
            s->flags[k] = kRowFallback;
            continue;
          }
          if (v.kind() != ValueKind::kReference) {
            fail(k, Status::TypeError("path step '" + ar.name +
                                      "' applied to a non-reference value"));
            continue;
          }
          auto r = objects_->GetAttributeByOrdinal(v.AsReference(), *ar.layout,
                                                   ar.ordinal, cache);
          if (!r.ok()) {
            if (r.status().IsNotFound()) {
              s->flags[k] = kRowFallback;
            } else {
              fail(k, r.status());
            }
            continue;
          }
          c.v[k] = std::move(r).value();
          live[w++] = k;
        }
        c.is_const = false;
        live.resize(w);
        break;
      }
      case OpCode::kBinaryArith: {
        BatchScratch::Col& rhs = s->stack[s->top - 1];
        BatchScratch::Col& lhs = s->stack[s->top - 2];
        if (lhs.v.size() < n) lhs.v.resize(n);
        size_t w = 0;
        for (uint32_t k : live) {
          OperandDataType x = OperandDataType::FromValue(val(lhs, k));
          OperandDataType y = OperandDataType::FromValue(val(rhs, k));
          OperandDataType r(DataTypeCode::kInt32);
          switch (static_cast<BinaryOp>(ins.a)) {
            case BinaryOp::kAdd: r = x + y; break;
            case BinaryOp::kSub: r = x - y; break;
            case BinaryOp::kMul: r = x * y; break;
            case BinaryOp::kDiv: r = x / y; break;
            case BinaryOp::kMod: r = x % y; break;
            default:
              fail(k, Status::Internal("unhandled binary operator"));
              continue;
          }
          auto out = r.ToValue();
          if (!out.ok()) {
            fail(k, out.status());
            continue;
          }
          lhs.v[k] = std::move(out).value();
          live[w++] = k;
        }
        lhs.is_const = false;
        live.resize(w);
        s->top--;
        break;
      }
      case OpCode::kCompare: {
        BatchScratch::Col& rhs = s->stack[s->top - 1];
        BatchScratch::Col& lhs = s->stack[s->top - 2];
        if (lhs.v.size() < n) lhs.v.resize(n);
        size_t w = 0;
        for (uint32_t k : live) {
          auto b = Evaluator::Compare(static_cast<BinaryOp>(ins.a), val(lhs, k),
                                      val(rhs, k));
          if (!b.ok()) {
            fail(k, b.status());
            continue;
          }
          lhs.v[k] = MoodValue::Boolean(b.value());
          live[w++] = k;
        }
        lhs.is_const = false;
        live.resize(w);
        s->top--;
        break;
      }
      case OpCode::kUnary: {
        BatchScratch::Col& c = s->stack[s->top - 1];
        if (c.v.size() < n) c.v.resize(n);
        size_t w = 0;
        for (uint32_t k : live) {
          OperandDataType o = OperandDataType::FromValue(val(c, k));
          auto r = static_cast<UnaryOp>(ins.a) == UnaryOp::kNeg ? (-o).ToValue()
                                                                : (!o).ToValue();
          if (!r.ok()) {
            fail(k, r.status());
            continue;
          }
          c.v[k] = std::move(r).value();
          live[w++] = k;
        }
        c.is_const = false;
        live.resize(w);
        break;
      }
      case OpCode::kCoerceBool: {
        BatchScratch::Col& c = s->stack[s->top - 1];
        if (c.v.size() < n) c.v.resize(n);
        size_t w = 0;
        for (uint32_t k : live) {
          OperandDataType o = OperandDataType::FromValue(val(c, k));
          auto b = o.AsBool();
          if (!b.ok()) {
            fail(k, b.status());
            continue;
          }
          c.v[k] = MoodValue::Boolean(b.value());
          live[w++] = k;
        }
        c.is_const = false;
        live.resize(w);
        break;
      }
      case OpCode::kJumpIfFalse:
      case OpCode::kJumpIfTrue:
        // Unreachable: has_jumps() routed jumpful programs to the row machine.
        break;
    }
  }

  if (s->top != 1) {
    Status st = Status::Internal("expression program stack imbalance");
    for (uint32_t k : live) fail(k, st);
    return;
  }
  BatchScratch::Col& res = s->stack[0];
  for (uint32_t k : live) {
    s->values[k] = res.is_const ? res.cval : std::move(res.v[k]);
  }
}

void ExprProgram::EvalPredicateBatch(const RowBatch& batch, DerefCache* cache,
                                     BatchScratch* s) const {
  EvalBatch(batch, cache, s);
  const size_t n = batch.ActiveRows();
  s->keep.assign(n, 0);
  for (size_t k = 0; k < n; k++) {
    if (s->flags[k] != kRowOk) continue;
    const MoodValue& v = s->values[k];
    if (v.is_null()) continue;  // null => false, as in Evaluator::EvalPredicate
    auto b = OperandDataType::FromValue(v).AsBool();
    if (!b.ok()) {
      s->flags[k] = kRowError;
      s->errors[k] = b.status();
      continue;
    }
    s->keep[k] = b.value() ? 1 : 0;
  }
}

std::string ExprProgram::ToString() const {
  std::string out;
  char buf[64];
  auto op_name = [](OpCode op) -> const char* {
    switch (op) {
      case OpCode::kPushConst: return "PushConst";
      case OpCode::kLoadSlot: return "LoadSlot";
      case OpCode::kLoadAttr: return "LoadAttr";
      case OpCode::kDerefAttr: return "DerefAttr";
      case OpCode::kBinaryArith: return "Arith";
      case OpCode::kCompare: return "Compare";
      case OpCode::kUnary: return "Unary";
      case OpCode::kJumpIfFalse: return "JumpIfFalse";
      case OpCode::kJumpIfTrue: return "JumpIfTrue";
      case OpCode::kCoerceBool: return "CoerceBool";
      case OpCode::kLoadParam: return "LoadParam";
    }
    return "?";
  };
  for (size_t i = 0; i < code_.size(); i++) {
    const Instr& ins = code_[i];
    std::snprintf(buf, sizeof(buf), "%04zu %-11s ", i, op_name(ins.op));
    out += buf;
    switch (ins.op) {
      case OpCode::kPushConst: {
        const MoodValue& c = consts_[ins.a];
        std::snprintf(buf, sizeof(buf), "c%u ", ins.a);
        out += buf;
        out += ValueKindName(c.kind());
        out += "(" + c.ToString() + ")";
        break;
      }
      case OpCode::kLoadSlot:
        std::snprintf(buf, sizeof(buf), "s%u", ins.a);
        out += buf;
        break;
      case OpCode::kLoadAttr: {
        const AttrRef& ar = attrs_[ins.b];
        std::snprintf(buf, sizeof(buf), "s%u a%u ", ins.a, ins.b);
        out += buf;
        out += "(" + ar.layout->class_name + "." + ar.name + ")";
        break;
      }
      case OpCode::kDerefAttr: {
        const AttrRef& ar = attrs_[ins.b];
        std::snprintf(buf, sizeof(buf), "a%u ", ins.b);
        out += buf;
        out += "(" + ar.layout->class_name + "." + ar.name + ")";
        break;
      }
      case OpCode::kBinaryArith:
      case OpCode::kCompare:
        out += BinaryOpName(static_cast<BinaryOp>(ins.a));
        break;
      case OpCode::kUnary:
        out += static_cast<UnaryOp>(ins.a) == UnaryOp::kNeg ? "-" : "NOT";
        break;
      case OpCode::kJumpIfFalse:
      case OpCode::kJumpIfTrue:
        std::snprintf(buf, sizeof(buf), "-> %04u", ins.a);
        out += buf;
        break;
      case OpCode::kLoadParam:
        std::snprintf(buf, sizeof(buf), "?%u", ins.a + 1);
        out += buf;
        break;
      case OpCode::kCoerceBool:
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace mood
