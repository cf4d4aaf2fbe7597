#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "algebra/collection.h"
#include "common/status.h"
#include "objects/object_manager.h"
#include "sql/evaluator.h"

namespace mood {

/// Join strategies of the Join operator (Section 3.2 / Section 8.3).
enum class JoinMethod : uint8_t {
  kForwardTraversal = 0,
  kIndexed = 1,          ///< binary join index
  kBackwardTraversal = 2,
  kHashPartition = 3,    ///< pointer-based hash-partition join
  kNestedLoop = 4,       ///< general fallback for explicit (value) joins
};

std::string_view JoinMethodName(JoinMethod m);

// --- Return-type rules (paper Tables 1-7), exposed as pure functions so the
// --- table-regeneration bench prints them straight from the implementation.

/// Table 1: return type of Select. Extents may return Extent (objects kept as
/// objects) or Set (identifiers only) — `as_set` picks the latter.
CollKind SelectReturnKind(CollKind arg, bool as_set = false);

/// Table 2: return type of Join.
CollKind JoinReturnKind(CollKind arg1, CollKind arg2);

/// Table 3: DupElim applicability ("not applicable" for Set => nullopt).
std::optional<std::string> DupElimReturn(CollKind arg);

/// Table 4: return type of Union/Intersection/Difference.
Result<CollKind> SetOpReturnKind(CollKind arg1, CollKind arg2);

/// Table 5 (asSet / asList): what the resulting elements are.
std::string AsSetListElements(CollKind arg);

/// Table 6 (asExtent): argument must be Set or List.
Result<std::string> AsExtentReturn(CollKind arg);

/// Table 7: argument kinds Unnest accepts.
bool UnnestAccepts(CollKind arg, bool tuple_object);

/// The MOOD algebra: every operator of Section 3.2 as executable code over the
/// object manager. Predicates are MOODSQL expressions evaluated with the
/// element bound to `var`; they compile once (ExprCompiler) and run through the
/// executor's batch kernels. The binary-join-index probe lives here and the
/// reference chase in the object manager; the executor calls them too, so each
/// join strategy has one implementation.
///
/// Thread safety: the const operators the parallel executor fans out (IndSel,
/// Deref and friends) are concurrent-read safe — they read through the object
/// manager's guarded index caches and the buffer pool. Bind mutates the
/// session name table and is externally synchronized: it runs on the
/// interpreter thread before workers fan out (see DESIGN.md §6).
class MoodAlgebra {
 public:
  MoodAlgebra(ObjectManager* objects, Evaluator* evaluator)
      : objects_(objects), evaluator_(evaluator) {}

  // --- General operators -------------------------------------------------------

  /// ObjId(o): identity on Oids (objects are addressed by their identifiers).
  Oid ObjId(Oid o) const { return o; }

  /// TypeId(o): type identifier of an object.
  Result<TypeId> TypeIdOf(Oid o) const;

  /// Deref(oid).
  Result<MoodValue> Deref(Oid oid) const { return objects_->Fetch(oid); }

  /// isA(path): class name of the last attribute of a path starting with a class
  /// name, e.g. isA("Vehicle.drivetrain.engine") == "VehicleEngine".
  Result<std::string> IsA(const std::string& path) const;

  /// Bind(arg, aName): names a collection in the session namespace.
  Status Bind(Collection arg, const std::string& name);
  Result<Collection> Named(const std::string& name) const;

  /// Bind over a class extent: the usual leaf of an access plan.
  Result<Collection> BindClass(const std::string& class_name, bool with_subclasses,
                               const std::vector<std::string>& excludes = {}) const;

  // --- Collection operators ------------------------------------------------------

  /// Select(arg, P): P is evaluated with each element bound to `var`.
  Result<Collection> Select(const Collection& arg, const ExprPtr& pred,
                            const std::string& var, bool extent_as_set = false) const;

  /// IndSel(arg, index_type, P): index-assisted selection; P must be
  /// `var.attr theta const`. Returns a Set of object identifiers.
  Result<Collection> IndSel(const std::string& class_name, const IndexDesc& index,
                            BinaryOp op, const MoodValue& constant) const;

  /// Project(aTupleCollection, attribute_list): dereferences identifiers and
  /// returns the extent of tuple values projected onto the attribute list.
  Result<Collection> Project(const Collection& arg,
                             const std::vector<std::string>& attributes) const;

  /// Join(arg1, arg2, join_method, P): P references `var1` and `var2`.
  /// The implicit-join form C.A = D.self is accelerated by forward/backward
  /// traversal, indexes and hash partitioning; other predicates fall back to
  /// nested loops. The result holds <left, right> pair tuples with the kind of
  /// Table 2.
  Result<Collection> Join(const Collection& arg1, const Collection& arg2,
                          JoinMethod method, const ExprPtr& pred,
                          const std::string& var1, const std::string& var2,
                          const std::string& ref_attr = "") const;

  /// The Indexed strategy's probe: looks every `targets[i]` up in the binary
  /// join index `index`, in order, calling `fn(source, i)` for each object the
  /// index lists as referencing it.
  Status ProbeJoinIndex(const IndexDesc& index, const std::vector<Oid>& targets,
                        const std::function<Status(Oid, size_t)>& fn) const;

  /// Partition(aTupleCollection, attribute_list): groups of objects with equal
  /// values on the attributes.
  Result<std::vector<Collection>> Partition(
      const Collection& arg, const std::vector<std::string>& attributes) const;

  /// Sort(aTupleCollection, heap sort, attribute_list), no duplicate elimination.
  Result<Collection> Sort(const Collection& arg,
                          const std::vector<std::string>& attributes,
                          bool ascending = true) const;

  /// DupElim(arg) per Table 3; Set argument is rejected as "not applicable".
  Result<Collection> DupElim(const Collection& arg) const;

  Result<Collection> Union(const Collection& a, const Collection& b) const;
  Result<Collection> Intersection(const Collection& a, const Collection& b) const;
  Result<Collection> Difference(const Collection& a, const Collection& b) const;

  // --- Conversion operators ----------------------------------------------------

  Result<Collection> AsSet(const Collection& arg) const;
  Result<Collection> AsList(const Collection& arg) const;
  Result<Collection> AsExtent(const Collection& arg) const;

  /// Unnest over the first Set/List-valued field of each tuple (or a specific
  /// field index).
  Result<Collection> Unnest(const Collection& arg, int field_index = -1) const;
  /// Nest: inverse of Unnest over the given field.
  Result<Collection> Nest(const Collection& arg, int field_index) const;

  /// Flatten(arg): set/list of collections -> set of object identifiers.
  Result<Collection> Flatten(const Collection& arg) const;

  ObjectManager* objects() const { return objects_; }

 private:
  /// Materializes the tuple value of an element (deref when the collection holds
  /// identifiers).
  Result<MoodValue> ElementValue(const Collection& coll, size_t i) const;
  /// The object's values of `attrs` (Null for a field the object predates).
  Result<std::vector<MoodValue>> KeyOf(Oid oid, const std::vector<std::string>& attrs) const;

  ObjectManager* objects_;
  Evaluator* evaluator_;
  std::map<std::string, Collection> session_names_;
};

}  // namespace mood
