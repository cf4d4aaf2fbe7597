#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/row_batch.h"
#include "objects/object_manager.h"
#include "sql/ast.h"

namespace mood {

/// A bound expression lowered into flat postfix bytecode, evaluated a whole
/// RowBatch at a time (EvalBatch): operands live in caller-provided scratch
/// columns (reused across batches, so scalar operands never touch the heap),
/// range variables are dense slot indices into the batch's Oid columns, and
/// attribute steps are plan-time ordinals into per-class AttributeLayouts (no
/// string-map or catalog lookup per row).
///
/// Semantics contract: a program produces byte-identical MoodValues and
/// identical error statuses to the interpreted Evaluator for every expression
/// it accepts — arithmetic runs through the same OperandDataType operators,
/// comparisons through Evaluator::Compare, AND/OR keep short-circuit order.
/// Dynamic constructs the compiler cannot pin down statically (method calls,
/// mid-path collection fan-out, polymorphic roots) are rejected at compile
/// time; runtime surprises (a subclass instance lacking the bound attribute, a
/// value that fans out unexpectedly) flag the row kRowFallback so the caller
/// re-evaluates it with the interpreter.
class ExprProgram {
 public:
  enum class OpCode : uint8_t {
    kPushConst,    ///< a: consts index
    kLoadSlot,     ///< a: slot; push Reference(slots[a])
    kLoadAttr,     ///< a: slot, b: attrs index; push attribute of slots[a]
    kDerefAttr,    ///< b: attrs index; pop ref, push its attribute
    kBinaryArith,  ///< a: BinaryOp (+ - * / %); pop rhs, lhs, push result
    kCompare,      ///< a: BinaryOp (= <> < <= > >=); pop rhs, lhs, push Boolean
    kUnary,        ///< a: UnaryOp; pop v, push result
    kJumpIfFalse,  ///< a: target pc; AND: pop cond, if false push false + jump
    kJumpIfTrue,   ///< a: target pc; OR: pop cond, if true push true + jump
    kCoerceBool,   ///< pop v, push Boolean(AsBool(v))
    kLoadParam,    ///< a: `?` position; push scratch params[a] (broadcast const)
  };

  struct Instr {
    OpCode op;
    uint32_t a = 0;
    uint32_t b = 0;
  };

  /// One attribute access bound at compile time. `layout` pins the class the
  /// ordinal was resolved against (shared_ptr keeps it alive across DDL);
  /// `name` feeds interpreter-identical error messages.
  struct AttrRef {
    AttributeLayoutPtr layout;
    uint32_t ordinal = 0;
    std::string name;
  };

  /// Per-row outcome of a batch evaluation.
  enum RowFlag : uint8_t {
    kRowOk = 0,        ///< values[k] (or keep[k]) holds the row's result
    kRowFallback = 1,  ///< re-evaluate this row through the interpreter
    kRowError = 2,     ///< errors[k] is the interpreter-identical status
  };

  /// Reusable columnar evaluation state for EvalBatch; one instance per worker,
  /// reused across batches so the column vectors never reallocate once warm.
  /// The output vectors are indexed by live-row position k in
  /// [0, batch.ActiveRows()), i.e. selection order, not raw row index.
  struct BatchScratch {
    std::vector<MoodValue> values;  ///< per-row results (kRowOk rows)
    std::vector<uint8_t> flags;     ///< per-row RowFlag
    std::vector<Status> errors;     ///< per-row statuses (kRowError rows)
    std::vector<uint8_t> keep;      ///< EvalPredicateBatch verdicts (kRowOk rows)

    // -- internals --
    /// One operand-stack column. A constant operand stays a single broadcast
    /// value (`is_const`), so PushConst never copies per row.
    struct Col {
      bool is_const = false;
      MoodValue cval;
      std::vector<MoodValue> v;
    };
    std::vector<Col> stack;
    size_t top = 0;
    std::vector<uint32_t> live;
    std::vector<MoodValue> row_stack;  ///< row machine stack (programs with jumps)
    std::vector<Oid> rowbuf;           ///< row-major slot gather for the row machine
    /// Bound `?` parameter values for this execution (null: none bound).
    const std::vector<MoodValue>* params = nullptr;
  };

  /// Evaluates the program once per live row of `batch`, amortizing opcode
  /// dispatch across the batch: jump-free programs (the common case after DNF
  /// splitting) run every opcode as one tight loop over a columnar operand
  /// stack; programs with short-circuit jumps diverge per row, so they run the
  /// row machine internally over a slot gather. A row stops executing the
  /// moment it errors or needs the interpreter — the other rows keep
  /// streaming. Never fails as a whole: per-row outcomes land in
  /// scratch->flags/values/errors, and the caller owns first-error ordering
  /// (walk the rows in selection order, exactly like the serial loop).
  void EvalBatch(const RowBatch& batch, DerefCache* cache, BatchScratch* scratch) const;

  /// Predicate form of EvalBatch: scratch->keep[k] is set for kRowOk rows with
  /// the interpreter's truth rules (null => false); a value AsBool() rejects
  /// turns the row into kRowError, matching Evaluator::EvalPredicate.
  void EvalPredicateBatch(const RowBatch& batch, DerefCache* cache,
                          BatchScratch* scratch) const;

  /// True when the program contains short-circuit jumps (per-row control
  /// flow); EvalBatch then runs rows through the row machine instead of the
  /// columnar loops.
  bool has_jumps() const;

  /// Deterministic bytecode dump (golden-tested), e.g.
  ///   0000 LoadAttr    s0 a0 (cylinders)
  ///   0001 PushConst   c0 (Integer 4)
  ///   0002 Compare     =
  std::string ToString() const;

  /// Number of maximal non-literal constant subtrees folded at compile time.
  size_t const_folded() const { return const_folded_; }

 private:
  friend class ExprCompiler;

  /// Row machine for programs with short-circuit jumps: evaluates one row of
  /// range-variable bindings on s->row_stack. On a dynamic case the compiled
  /// form cannot express, sets *need_fallback and returns OK(Null); the caller
  /// must re-evaluate the row through the interpreter.
  Result<MoodValue> Eval(const Oid* slots, DerefCache* cache, BatchScratch* s,
                         bool* need_fallback) const;

  ObjectManager* objects_ = nullptr;
  std::vector<Instr> code_;
  std::vector<MoodValue> consts_;
  std::vector<AttrRef> attrs_;
  size_t const_folded_ = 0;
};

using ExprProgramPtr = std::shared_ptr<const ExprProgram>;

/// Thread-safe memo of compiled programs keyed by expression identity. A cached
/// plan owns one: repeated executions of the same plan reuse the lowered
/// bytecode — including negative ("keep the interpreter") outcomes — instead of
/// re-compiling per call. Keying by Expr pointer is sound because the memo
/// lives and dies with the plan that owns those expression nodes.
class ProgramMemo {
 public:
  /// True when `key` was compiled before; *out receives the program (may be
  /// null for expressions the compiler rejected).
  bool Lookup(const Expr* key, ExprProgramPtr* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo_.find(key);
    if (it == memo_.end()) return false;
    *out = it->second;
    return true;
  }
  void Insert(const Expr* key, ExprProgramPtr prog) {
    std::lock_guard<std::mutex> lock(mu_);
    memo_.emplace(key, std::move(prog));
  }

 private:
  mutable std::mutex mu_;
  std::map<const Expr*, ExprProgramPtr> memo_;
};

using ProgramMemoPtr = std::shared_ptr<ProgramMemo>;

/// Plan-time compilation environment: which slot each range variable occupies
/// in the executor's row vectors, and the statically-known class of the
/// objects bound to it (empty / !single_class when the extent is polymorphic).
struct ExprCompileEnv {
  struct VarInfo {
    uint32_t slot = 0;
    std::string class_name;
    bool single_class = false;
  };
  std::map<std::string, VarInfo> vars;
};

/// Lowers Expr trees into ExprPrograms. Compile returns null (not an error)
/// when the expression uses a construct the bytecode cannot reproduce
/// faithfully — callers keep the interpreter for those:
///   - method-call steps, or attribute names that may resolve to methods;
///   - non-terminal Set/List-typed steps (mid-path fan-out);
///   - `self` steps anywhere but directly on the root variable;
///   - range variables absent from the env or without a single static class.
class ExprCompiler {
 public:
  explicit ExprCompiler(ObjectManager* objects) : objects_(objects) {}

  std::unique_ptr<ExprProgram> Compile(const ExprPtr& expr,
                                       const ExprCompileEnv& env) const;

 private:
  bool Emit(const Expr& e, const ExprCompileEnv& env, ExprProgram* prog) const;
  bool EmitPath(const Expr& e, const ExprCompileEnv& env, ExprProgram* prog) const;

  ObjectManager* objects_;
};

}  // namespace mood
