#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "funcman/function_manager.h"
#include "objects/object_manager.h"
#include "sql/ast.h"

namespace mood {

/// Interprets MOODSQL expressions at run time over bound range variables. This is
/// the kernel's interpreted half: arithmetic and Boolean expressions run through
/// OperandDataType (Section 2), while method steps dispatch into compiled bodies
/// through the Function Manager.
class Evaluator {
 public:
  Evaluator(ObjectManager* objects, FunctionManager* functions)
      : objects_(objects), functions_(functions) {}

  /// Bindings of range variables to objects for the current row, plus the
  /// query's Deref cache (null disables caching). Every dereference in a path
  /// step or method call goes through `deref`, so repeated hops over the same
  /// objects within one query hit memory.
  struct Env {
    std::map<std::string, Oid> vars;
    DerefCache* deref = nullptr;
    /// Bound values for `?` positional parameters, in placeholder order.
    const std::vector<MoodValue>* params = nullptr;
  };

  /// Evaluates an expression to a value. A path through a Set/List-valued
  /// reference attribute fans out and yields a Set of terminal values; a
  /// comparison against such a Set uses existential semantics (true if any
  /// element satisfies it).
  Result<MoodValue> Eval(const ExprPtr& expr, const Env& env) const;

  /// Evaluates a predicate to a Boolean (null/absent values make it false).
  Result<bool> EvalPredicate(const ExprPtr& expr, const Env& env) const;

  /// Evaluates a path expression rooted at a concrete object.
  Result<MoodValue> EvalPathFrom(Oid root, const std::vector<PathStep>& steps,
                                 const Env& env) const;

  /// Supplies a method call's argument values. Asked once per receiver that
  /// reaches the call, after the receiver's class and value resolve; an empty
  /// function means "no arguments".
  using ArgsFn = std::function<Result<std::vector<MoodValue>>()>;

  /// Applies one path step (`name`, a method call when `is_call`) to `v`: the
  /// single definition of a path step, shared by EvalPathFrom and the compiled
  /// batch kernels (exec/expr_compile). Null yields Null. A Set/List fans out:
  /// each element steps, Null results drop and collection results flatten
  /// into one Set. A reference reads the attribute, or calls the method; an
  /// attribute name the instance lacks may name a parameterless method.
  /// Anything else is a TypeError.
  Result<MoodValue> Step(const MoodValue& v, const std::string& name, bool is_call,
                         const ArgsFn& args, DerefCache* deref) const;

  /// Compares with existential fan-out semantics. Static and public so the
  /// compiled expression programs (exec/expr_compile) share the exact same
  /// comparison code path as the interpreter.
  static Result<bool> Compare(BinaryOp op, const MoodValue& lhs, const MoodValue& rhs);

  ObjectManager* objects() const { return objects_; }
  FunctionManager* functions() const { return functions_; }

 private:
  Result<MoodValue> EvalBinary(const Expr& e, const Env& env) const;
  Result<MoodValue> CallMethod(Oid receiver, const std::string& fname,
                               const ArgsFn& args, DerefCache* deref) const;

  ObjectManager* objects_;
  FunctionManager* functions_;
};

}  // namespace mood
