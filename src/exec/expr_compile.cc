#include "exec/expr_compile.h"

#include <cstdio>

#include "sql/evaluator.h"
#include "types/operand.h"

namespace mood {

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

namespace {

uint32_t AddConst(std::vector<MoodValue>* consts, MoodValue v) {
  consts->push_back(std::move(v));
  return static_cast<uint32_t>(consts->size() - 1);
}

}  // namespace

std::unique_ptr<ExprProgram> ExprCompiler::Compile(const ExprPtr& expr,
                                                   const ExprCompileEnv& env) const {
  if (expr == nullptr) return nullptr;
  auto prog = std::make_unique<ExprProgram>();
  prog->evaluator_ = evaluator_;
  Emit(*expr, env, prog.get());
  return prog;
}

void ExprCompiler::Emit(const Expr& e, const ExprCompileEnv& env,
                        ExprProgram* prog) const {
  if (e.kind != ExprKind::kLiteral) {
    MoodValue folded;
    if (TryConstEval(e, &folded)) {
      prog->code_.push_back({ExprProgram::OpCode::kPushConst,
                             AddConst(&prog->consts_, std::move(folded)), 0});
      prog->const_folded_++;
      return;
    }
  }
  switch (e.kind) {
    case ExprKind::kLiteral:
      prog->code_.push_back({ExprProgram::OpCode::kPushConst,
                             AddConst(&prog->consts_, e.literal), 0});
      return;
    case ExprKind::kPath:
      EmitPath(e, env, prog);
      return;
    case ExprKind::kParameter:
      prog->code_.push_back({ExprProgram::OpCode::kLoadParam, e.param_index, 0});
      return;
    case ExprKind::kUnary:
      Emit(*e.operand, env, prog);
      prog->code_.push_back(
          {ExprProgram::OpCode::kUnary, static_cast<uint32_t>(e.uop), 0});
      return;
    case ExprKind::kBinary: {
      if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
        // A constant lhs that does not decide the result still disappears:
        // the node reduces to CoerceBool(rhs). (A deciding lhs was already
        // handled by the whole-node fold above.)
        MoodValue lv;
        if (TryConstEval(*e.lhs, &lv)) {
          auto lb = OperandDataType::FromValue(lv).AsBool();
          if (lb.ok()) {
            Emit(*e.rhs, env, prog);
            prog->code_.push_back({ExprProgram::OpCode::kCoerceBool, 0, 0});
            if (e.lhs->kind != ExprKind::kLiteral) prog->const_folded_++;
            return;
          }
        }
        Emit(*e.lhs, env, prog);
        size_t jmp = prog->code_.size();
        prog->code_.push_back({e.op == BinaryOp::kAnd
                                   ? ExprProgram::OpCode::kJumpIfFalse
                                   : ExprProgram::OpCode::kJumpIfTrue,
                               0, 0});
        Emit(*e.rhs, env, prog);
        prog->code_.push_back({ExprProgram::OpCode::kCoerceBool, 0, 0});
        prog->code_[jmp].a = static_cast<uint32_t>(prog->code_.size());
        return;
      }
      Emit(*e.lhs, env, prog);
      Emit(*e.rhs, env, prog);
      prog->code_.push_back({IsComparison(e.op) ? ExprProgram::OpCode::kCompare
                                                : ExprProgram::OpCode::kBinaryArith,
                             static_cast<uint32_t>(e.op), 0});
      return;
    }
  }
}

void ExprCompiler::EmitPath(const Expr& e, const ExprCompileEnv& env,
                            ExprProgram* prog) const {
  auto it = env.vars.find(e.range_var);
  if (it == env.vars.end()) {
    prog->code_.push_back({ExprProgram::OpCode::kUnbound,
                           AddConst(&prog->consts_, MoodValue::String(e.range_var)),
                           0});
    return;
  }
  const ExprCompileEnv::VarInfo& vi = it->second;
  // Leading `self` steps on the root are identities (the slot always holds a
  // valid reference), so they compile away.
  size_t first = 0;
  while (first < e.steps.size() && !e.steps[first].is_call &&
         e.steps[first].name == "self") {
    first++;
  }
  // Static class of the value the next step applies to; empty once a step
  // leaves the static layouts (a collection, a shared step's result).
  std::string cls = vi.class_name;
  bool pushed = false;  // false: the value is still the slot's reference
  auto load_slot = [&] {
    if (!pushed) prog->code_.push_back({ExprProgram::OpCode::kLoadSlot, vi.slot, 0});
    pushed = true;
  };
  ObjectManager* objects = evaluator_->objects();
  for (size_t i = first; i < e.steps.size(); i++) {
    const PathStep& step = e.steps[i];
    AttributeLayoutPtr layout;
    int ord = -1;
    if (!step.is_call && step.name != "self" && !cls.empty()) {
      auto layout_r = objects->LayoutOf(cls);
      if (layout_r.ok()) {
        layout = std::move(layout_r).value();
        ord = layout->OrdinalOf(step.name);
      }
    }
    if (ord < 0) {
      load_slot();
      EmitCall(step, env, prog);
      cls.clear();
      continue;
    }
    auto attr_idx = static_cast<uint32_t>(prog->attrs_.size());
    prog->attrs_.push_back({layout, static_cast<uint32_t>(ord), step.name});
    if (pushed) {
      prog->code_.push_back({ExprProgram::OpCode::kDerefAttr, 0, attr_idx});
    } else {
      prog->code_.push_back({ExprProgram::OpCode::kLoadAttr, vi.slot, attr_idx});
      pushed = true;
    }
    const TypeDescPtr& type = layout->attrs[static_cast<size_t>(ord)].type;
    cls = type->kind() == ConstructorKind::kReference ? type->referenced_class() : "";
  }
  load_slot();
}

void ExprCompiler::EmitCall(const PathStep& step, const ExprCompileEnv& env,
                            ExprProgram* prog) const {
  auto call_idx = static_cast<uint32_t>(prog->calls_.size());
  prog->calls_.push_back({step.name, step.is_call});
  auto argc = static_cast<uint32_t>(step.args.size());
  if (argc == 0) {
    prog->code_.push_back({ExprProgram::OpCode::kCall, call_idx, 0});
    return;
  }
  // Arguments run only on rows whose receiver reaches the call, as in
  // Evaluator::CallMethod (a Null receiver never evaluates them).
  size_t guard = prog->code_.size();
  prog->code_.push_back({ExprProgram::OpCode::kGuardCall, 0, call_idx});
  for (const ExprPtr& arg : step.args) Emit(*arg, env, prog);
  prog->code_.push_back({ExprProgram::OpCode::kCall, call_idx, argc});
  prog->code_[guard].a = static_cast<uint32_t>(prog->code_.size());
}

void ExprProgram::EvalBatch(const RowBatch& batch, DerefCache* cache,
                            BatchScratch* s) const {
  const size_t n = batch.ActiveRows();
  s->flags.assign(n, kRowOk);
  s->values.resize(n);
  s->errors.clear();
  s->errors.resize(n);
  if (n == 0) return;

  // Every opcode runs as one tight loop over the live rows. The stack holds
  // columns instead of scalars; `live` lists the rows still executing, in
  // ascending order. A row leaves it the moment it errors, or parks when a
  // jump decides its value early; parked rows rejoin at their target. The
  // push/pop discipline is row-independent, so all rows agree on the stack
  // shape at every pc.
  auto& live = s->live;
  live.resize(n);
  for (size_t k = 0; k < n; k++) live[k] = static_cast<uint32_t>(k);
  s->top = 0;
  s->parked.clear();
  ObjectManager* objects = evaluator_->objects();
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
  // Parked rows whose target is `pc` write their value into the top column
  // (materializing a broadcast first) and merge back into `live`.
  auto rejoin = [&](size_t pc) {
    size_t first = s->parked.size();
    while (first > 0 && s->parked[first - 1].target == pc) first--;
    if (first == s->parked.size()) return;
    BatchScratch::Col& c = s->stack[s->top - 1];
    if (c.v.size() < n) c.v.resize(n);
    if (c.is_const) {
      for (uint32_t k : live) c.v[k] = c.cval;
      c.is_const = false;
    }
    auto& merged = s->merged;
    merged.clear();
    size_t i = 0;
    for (size_t p = first; p < s->parked.size(); p++) {
      BatchScratch::Parked& pr = s->parked[p];
      while (i < live.size() && live[i] < pr.row) merged.push_back(live[i++]);
      merged.push_back(pr.row);
      c.v[pr.row] = std::move(pr.value);
    }
    merged.insert(merged.end(), live.begin() + static_cast<ptrdiff_t>(i), live.end());
    live.swap(merged);
    s->parked.erase(s->parked.begin() + static_cast<ptrdiff_t>(first), s->parked.end());
  };
  // The ordinal fast path serves a single reference; anything else (a Null, a
  // collection to fan out, a non-reference, or an instance whose class lacks
  // the attribute) takes the shared path step.
  auto attr_of = [&](const MoodValue& v, const AttrRef& ar) -> Result<MoodValue> {
    if (v.kind() == ValueKind::kReference) {
      auto r = objects->GetAttributeByOrdinal(v.AsReference(), *ar.layout, ar.ordinal,
                                              cache);
      if (r.ok() || !r.status().IsNotFound()) return r;
    }
    return evaluator_->Step(v, ar.name, false, nullptr, cache);
  };

  for (size_t pc = 0; pc < code_.size(); pc++) {
    rejoin(pc);
    const Instr& ins = code_[pc];
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
      case OpCode::kUnbound: {
        BatchScratch::Col& c = push();
        c.is_const = true;
        c.cval = MoodValue::Null();
        Status st = Status::InvalidArgument("unbound range variable '" +
                                            consts_[ins.a].AsString() + "'");
        for (uint32_t k : live) fail(k, st);
        live.clear();
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
          auto r = attr_of(MoodValue::Reference(col[batch.RowAt(k)]), ar);
          if (!r.ok()) {
            fail(k, r.status());
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
          auto r = attr_of(val(c, k), ar);
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
      case OpCode::kGuardCall: {
        // Probe the call: a receiver that asks for its arguments reaches the
        // call; any other outcome (Null, an empty fan-out, a receiver error)
        // is the row's final value for this step.
        const CallRef& cr = calls_[ins.b];
        const BatchScratch::Col& c = s->stack[s->top - 1];
        bool asked = false;
        Evaluator::ArgsFn probe = [&asked]() -> Result<std::vector<MoodValue>> {
          asked = true;
          return Status::Internal("argument probe");
        };
        size_t w = 0;
        for (uint32_t k : live) {
          asked = false;
          auto r = evaluator_->Step(val(c, k), cr.name, true, probe, cache);
          if (asked) {
            live[w++] = k;
          } else if (!r.ok()) {
            fail(k, r.status());
          } else {
            s->parked.push_back({ins.a, k, std::move(r).value()});
          }
        }
        live.resize(w);
        break;
      }
      case OpCode::kCall: {
        const CallRef& cr = calls_[ins.a];
        const size_t argc = ins.b;
        BatchScratch::Col& recv = s->stack[s->top - 1 - argc];
        if (recv.v.size() < n) recv.v.resize(n);
        uint32_t row = 0;
        Evaluator::ArgsFn args;
        if (argc > 0) {
          args = [&]() -> Result<std::vector<MoodValue>> {
            std::vector<MoodValue> values;
            values.reserve(argc);
            for (size_t j = s->top - argc; j < s->top; j++) {
              values.push_back(val(s->stack[j], row));
            }
            return values;
          };
        }
        size_t w = 0;
        for (uint32_t k : live) {
          row = k;
          auto r = evaluator_->Step(val(recv, k), cr.name, cr.is_call, args, cache);
          if (!r.ok()) {
            fail(k, r.status());
            continue;
          }
          recv.v[k] = std::move(r).value();
          live[w++] = k;
        }
        recv.is_const = false;
        live.resize(w);
        s->top -= argc;
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
      case OpCode::kJumpIfTrue: {
        // A row whose condition decides the AND (false) / OR (true) parks
        // with that Boolean; the rest go on to the right-hand side.
        const bool decides = ins.op == OpCode::kJumpIfTrue;
        const BatchScratch::Col& c = s->stack[s->top - 1];
        size_t w = 0;
        for (uint32_t k : live) {
          auto b = OperandDataType::FromValue(val(c, k)).AsBool();
          if (!b.ok()) {
            fail(k, b.status());
          } else if (b.value() == decides) {
            s->parked.push_back({ins.a, k, MoodValue::Boolean(decides)});
          } else {
            live[w++] = k;
          }
        }
        live.resize(w);
        s->top--;
        break;
      }
    }
  }
  rejoin(code_.size());

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

Result<MoodValue> ExprProgram::EvalRow(const Oid* row, size_t nslots, DerefCache* cache,
                                       BatchScratch* scratch) const {
  RowBatch batch(nslots, 1);
  batch.PushRow(row, nslots);
  EvalBatch(batch, cache, scratch);
  if (scratch->flags[0] == kRowError) return scratch->errors[0];
  return std::move(scratch->values[0]);
}

void ExprProgram::EvalPredicateBatch(const RowBatch& batch, DerefCache* cache,
                                     BatchScratch* s) const {
  EvalBatch(batch, cache, s);
  const size_t n = batch.ActiveRows();
  s->keep.assign(n, 0);
  for (size_t k = 0; k < n; k++) {
    if (s->flags[k] != kRowOk) continue;
    const MoodValue& v = s->values[k];
    if (v.is_null()) continue;  // null => false
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
      case OpCode::kGuardCall: return "GuardCall";
      case OpCode::kCall: return "Call";
      case OpCode::kUnbound: return "Unbound";
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
      case OpCode::kGuardCall:
        std::snprintf(buf, sizeof(buf), "-> %04u m%u", ins.a, ins.b);
        out += buf;
        break;
      case OpCode::kCall: {
        const CallRef& cr = calls_[ins.a];
        std::snprintf(buf, sizeof(buf), "m%u argc=%u ", ins.a, ins.b);
        out += buf;
        out += "(" + cr.name + (cr.is_call ? "())" : ")");
        break;
      }
      case OpCode::kUnbound:
        out += "(" + consts_[ins.a].AsString() + ")";
        break;
      case OpCode::kCoerceBool:
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace mood
