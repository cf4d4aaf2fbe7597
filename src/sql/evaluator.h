#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "funcman/function_manager.h"
#include "objects/object_manager.h"
#include "sql/ast.h"

namespace mood {

/// The run-time pieces every expression evaluator shares: one path step
/// (attribute read or method dispatch into compiled bodies through the
/// Function Manager) and one comparison. The batch kernels (exec/expr_compile)
/// are the engine's only evaluator; the recursive interpreter is the test
/// oracle (tests/naive_oracle.h). Both reach objects and methods only through
/// this class.
class Evaluator {
 public:
  Evaluator(ObjectManager* objects, FunctionManager* functions)
      : objects_(objects), functions_(functions) {}

  /// Supplies a method call's argument values. Asked once per receiver that
  /// reaches the call, after the receiver's class and value resolve; an empty
  /// function means "no arguments".
  using ArgsFn = std::function<Result<std::vector<MoodValue>>()>;

  /// Applies one path step (`name`, a method call when `is_call`) to `v`: the
  /// single definition of a path step, shared by the compiled batch kernels
  /// (exec/expr_compile) and the test oracle. Null yields Null. A Set/List fans out:
  /// each element steps, Null results drop and collection results flatten
  /// into one Set. A reference reads the attribute, or calls the method; an
  /// attribute name the instance lacks may name a parameterless method.
  /// Anything else is a TypeError. Every object read, the method's receiver
  /// and its MethodContext::deref included, takes the reader snapshot `snap`
  /// (`{}` reads the latest state).
  Result<MoodValue> Step(const MoodValue& v, const std::string& name, bool is_call,
                         const ArgsFn& args, const SnapshotView& snap) const;

  /// Compares with existential fan-out semantics: if either side is a
  /// collection, the comparison holds if any element pair does. Static so the
  /// constant folder, the batch kernels and the test oracle share it.
  static Result<bool> Compare(BinaryOp op, const MoodValue& lhs, const MoodValue& rhs);

  ObjectManager* objects() const { return objects_; }
  FunctionManager* functions() const { return functions_; }

 private:
  Result<MoodValue> CallMethod(Oid receiver, const std::string& fname,
                               const ArgsFn& args, const SnapshotView& snap) const;

  ObjectManager* objects_;
  FunctionManager* functions_;
};

}  // namespace mood
