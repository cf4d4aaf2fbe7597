#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/row_batch.h"
#include "objects/object_manager.h"
#include "sql/ast.h"
#include "sql/evaluator.h"

namespace mood {

/// A bound expression lowered into flat postfix bytecode, evaluated a whole
/// RowBatch at a time (EvalBatch): operands live in caller-provided scratch
/// columns (reused across batches, so scalar operands never touch the heap),
/// range variables are dense slot indices into the batch's Oid columns, and
/// attribute steps are plan-time ordinals into per-class AttributeLayouts (no
/// string-map or catalog lookup per row).
///
/// This is the engine's only expression evaluator: the executor, the algebra
/// and DML all run it. Semantics contract: a program produces byte-identical
/// MoodValues and identical error statuses to the recursive interpreter in
/// tests/naive_oracle.h — arithmetic runs through the same
/// OperandDataType operators, comparisons through Evaluator::Compare, path
/// steps the ordinal fast path cannot serve (methods, names outside the static
/// layout, collection fan-out, non-root `self`) through Evaluator::Step, and
/// AND/OR keep short-circuit order.
class ExprProgram {
 public:
  enum class OpCode : uint8_t {
    kPushConst,    ///< a: consts index
    kLoadSlot,     ///< a: slot; push Reference(slots[a])
    kLoadAttr,     ///< a: slot, b: attrs index; push attribute of slots[a]
    kDerefAttr,    ///< b: attrs index; pop value, push its attribute
    kGuardCall,    ///< a: target pc, b: calls index; rows whose receiver (top)
                   ///< never asks for the arguments skip to the target
    kCall,         ///< a: calls index, b: argc; pop args and receiver, push
                   ///< Evaluator::Step of the receiver
    kBinaryArith,  ///< a: BinaryOp (+ - * / %); pop rhs, lhs, push result
    kCompare,      ///< a: BinaryOp (= <> < <= > >=); pop rhs, lhs, push Boolean
    kUnary,        ///< a: UnaryOp; pop v, push result
    kJumpIfFalse,  ///< a: target pc; AND: pop cond; false rows park with false
    kJumpIfTrue,   ///< a: target pc; OR: pop cond; true rows park with true
    kCoerceBool,   ///< pop v, push Boolean(AsBool(v))
    kLoadParam,    ///< a: `?` position; push scratch params[a] (broadcast const)
    kUnbound,      ///< a: consts index of a range variable absent from the row
  };

  struct Instr {
    OpCode op;
    uint32_t a = 0;
    uint32_t b = 0;
  };

  /// One attribute access bound at compile time. `layout` pins the class the
  /// ordinal was resolved against (shared_ptr keeps it alive across DDL);
  /// `name` feeds the shared path step and interpreter-identical errors.
  struct AttrRef {
    AttributeLayoutPtr layout;
    uint32_t ordinal = 0;
    std::string name;
  };

  /// One path step evaluated through Evaluator::Step.
  struct CallRef {
    std::string name;
    bool is_call = false;
  };

  /// Per-row outcome of a batch evaluation.
  enum RowFlag : uint8_t {
    kRowOk = 0,     ///< values[k] (or keep[k]) holds the row's result
    kRowError = 1,  ///< errors[k] is the interpreter-identical status
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
    /// A row that left `live` at a jump with its result decided; it rejoins
    /// at `target` with `value` on top of the stack.
    struct Parked {
      uint32_t target;
      uint32_t row;
      MoodValue value;
    };
    std::vector<Col> stack;
    size_t top = 0;
    std::vector<uint32_t> live;
    std::vector<uint32_t> merged;  ///< rejoin buffer
    std::vector<Parked> parked;    ///< innermost jump last (regions nest)
    /// Bound `?` parameter values for this execution (null: none bound).
    const std::vector<MoodValue>* params = nullptr;
  };

  /// Evaluates the program once per live row of `batch`, amortizing opcode
  /// dispatch across the batch: every opcode runs as one tight loop over a
  /// columnar operand stack. A row stops executing the moment it errors, and
  /// a row whose AND/OR or method receiver is decided early parks until the
  /// jump target — the other rows keep streaming. Never fails as a whole:
  /// per-row outcomes land in scratch->flags/values/errors, and the caller
  /// owns first-error ordering (walk the rows in selection order, exactly
  /// like the serial loop).
  void EvalBatch(const RowBatch& batch, DerefCache* cache, BatchScratch* scratch) const;

  /// EvalBatch over the single row `row[0..nslots)` (batch size 1): the row's
  /// value or its error.
  Result<MoodValue> EvalRow(const Oid* row, size_t nslots, DerefCache* cache,
                            BatchScratch* scratch) const;

  /// Predicate form of EvalBatch: scratch->keep[k] is set for kRowOk rows with
  /// the interpreter's truth rules (null => false); a value AsBool() rejects
  /// turns the row into kRowError, matching the interpreter oracle.
  void EvalPredicateBatch(const RowBatch& batch, DerefCache* cache,
                          BatchScratch* scratch) const;

  /// Deterministic bytecode dump (golden-tested), e.g.
  ///   0000 LoadAttr    s0 a0 (cylinders)
  ///   0001 PushConst   c0 (Integer 4)
  ///   0002 Compare     =
  std::string ToString() const;

  /// Number of maximal non-literal constant subtrees folded at compile time.
  size_t const_folded() const { return const_folded_; }

 private:
  friend class ExprCompiler;

  const Evaluator* evaluator_ = nullptr;
  std::vector<Instr> code_;
  std::vector<MoodValue> consts_;
  std::vector<AttrRef> attrs_;
  std::vector<CallRef> calls_;
  size_t const_folded_ = 0;
};

using ExprProgramPtr = std::shared_ptr<const ExprProgram>;

/// Thread-safe memo of compiled programs keyed by expression identity. A cached
/// plan owns one: repeated executions of the same plan reuse the lowered
/// bytecode instead of re-compiling per call. Keying by Expr pointer is sound because the memo
/// lives and dies with the plan that owns those expression nodes.
class ProgramMemo {
 public:
  /// The program compiled for `key` before, or null.
  ExprProgramPtr Lookup(const Expr* key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo_.find(key);
    return it == memo_.end() ? nullptr : it->second;
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
/// in the executor's row vectors, and the class its FROM entry names (empty
/// when unknown). Under EVERY the objects may be subclass instances; ordinals
/// bound against the named class re-resolve by name for those.
struct ExprCompileEnv {
  struct VarInfo {
    uint32_t slot = 0;
    std::string class_name;
  };
  std::map<std::string, VarInfo> vars;
};

/// Bottom-up constant evaluation with the interpreter's exact semantics.
/// Returns false for non-constant subtrees AND for constant subtrees whose
/// evaluation errors: an erroring subtree is left in bytecode form so the
/// identical error surfaces at run time.
bool TryConstEval(const Expr& e, MoodValue* out);

/// Lowers Expr trees into ExprPrograms. Every expression compiles: attribute
/// steps on a statically known class become ordinal loads, every other path
/// step (methods, names the layout lacks, non-root `self`, steps past a
/// collection or another such step) becomes a kCall through Evaluator::Step,
/// and a range variable absent from the env becomes kUnbound (the
/// interpreter's error, raised per row).
class ExprCompiler {
 public:
  explicit ExprCompiler(const Evaluator* evaluator) : evaluator_(evaluator) {}

  /// Null only for a null expression.
  std::unique_ptr<ExprProgram> Compile(const ExprPtr& expr,
                                       const ExprCompileEnv& env) const;

 private:
  void Emit(const Expr& e, const ExprCompileEnv& env, ExprProgram* prog) const;
  void EmitPath(const Expr& e, const ExprCompileEnv& env, ExprProgram* prog) const;
  void EmitCall(const PathStep& step, const ExprCompileEnv& env,
                ExprProgram* prog) const;

  const Evaluator* evaluator_;
};

}  // namespace mood
