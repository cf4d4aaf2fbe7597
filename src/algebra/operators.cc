#include "algebra/operators.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "exec/expr_compile.h"
#include "exec/parallel.h"
#include "index/key_codec.h"

namespace mood {

namespace {

/// Streams candidate rows through one compiled predicate a batch at a time and
/// hands every row it holds for to `keep`, in row order. The first row that
/// errors ends the stream with its status: the row a row-at-a-time loop would
/// have stopped at.
class PredicateStream {
 public:
  PredicateStream(const ExprProgram& pred, size_t nslots,
                  std::function<void(const Oid*)> keep)
      : pred_(pred), batch_(nslots, kDefaultBatchRows), row_(nslots),
        keep_(std::move(keep)) {}

  Status Push(const Oid* row) {
    batch_.PushRow(row, batch_.nslots);
    return batch_.Full() ? Flush() : Status::OK();
  }

  Status Flush() {
    if (batch_.nrows == 0) return Status::OK();
    pred_.EvalPredicateBatch(batch_, nullptr, &scratch_);
    for (size_t k = 0; k < batch_.ActiveRows(); k++) {
      if (scratch_.flags[k] == ExprProgram::kRowError) return scratch_.errors[k];
      if (scratch_.keep[k] == 0) continue;
      batch_.GatherRow(batch_.RowAt(k), row_.data());
      keep_(row_.data());
    }
    batch_.Clear();
    return Status::OK();
  }

 private:
  const ExprProgram& pred_;
  RowBatch batch_;
  std::vector<Oid> row_;
  std::function<void(const Oid*)> keep_;
  ExprProgram::BatchScratch scratch_;
};

struct PairHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
    return std::hash<uint64_t>()(p.first * 0x9E3779B97F4A7C15ull ^ p.second);
  }
};

/// Hash of a value's top-level atomic fields. Deep-equal values have equal
/// atomic fields (compared with MoodValue::Equals, which Hash agrees with), so
/// they hash alike; references and nested values are left to DeepEquals.
uint64_t AtomicFieldsHash(const MoodValue& v) {
  auto atomic_hash = [](const MoodValue& f) -> uint64_t {
    switch (f.kind()) {
      case ValueKind::kTuple:
      case ValueKind::kSet:
      case ValueKind::kList:
      case ValueKind::kReference:
        return 0;
      default:
        return f.Hash();
    }
  };
  if (v.kind() != ValueKind::kTuple) return atomic_hash(v);
  uint64_t h = v.size();
  for (const MoodValue& f : v.elements()) h = h * 1000003 + atomic_hash(f);
  return h;
}

/// MoodAlgebra::ChaseRefs from path step `depth` on.
Status ChaseFrom(ObjectManager* objects, Oid oid, const std::vector<std::string>& path,
                 size_t depth, DerefCache* cache, const std::function<Status(Oid)>& fn) {
  if (depth == path.size()) return fn(oid);
  MOOD_ASSIGN_OR_RETURN(MoodValue v, objects->GetAttribute(oid, path[depth], cache));
  auto handle = [&](const MoodValue& r) -> Status {
    if (r.is_null()) return Status::OK();
    if (r.kind() != ValueKind::kReference) {
      return Status::TypeError("reference path step '" + path[depth] +
                               "' reached a non-reference value");
    }
    return ChaseFrom(objects, r.AsReference(), path, depth + 1, cache, fn);
  };
  if (v.IsCollection()) {
    for (const auto& e : v.elements()) MOOD_RETURN_IF_ERROR(handle(e));
    return Status::OK();
  }
  return handle(v);
}

}  // namespace

std::string_view JoinMethodName(JoinMethod m) {
  switch (m) {
    case JoinMethod::kForwardTraversal: return "FORWARD_TRAVERSAL";
    case JoinMethod::kIndexed: return "INDEXED";
    case JoinMethod::kBackwardTraversal: return "BACKWARD_TRAVERSAL";
    case JoinMethod::kHashPartition: return "HASH_PARTITION";
    case JoinMethod::kNestedLoop: return "NESTED_LOOP";
  }
  return "?";
}

// --- Typing rules (Tables 1-7) --------------------------------------------------

CollKind SelectReturnKind(CollKind arg, bool as_set) {
  switch (arg) {
    case CollKind::kExtent: return as_set ? CollKind::kSet : CollKind::kExtent;
    case CollKind::kSet: return CollKind::kSet;
    case CollKind::kList: return CollKind::kList;
    case CollKind::kNamedObject: return CollKind::kNamedObject;
  }
  return arg;
}

CollKind JoinReturnKind(CollKind arg1, CollKind arg2) {
  // Table 2: Extent dominates, then Set, then List; two named objects join to an
  // object.
  auto rank = [](CollKind k) {
    switch (k) {
      case CollKind::kExtent: return 3;
      case CollKind::kSet: return 2;
      case CollKind::kList: return 1;
      case CollKind::kNamedObject: return 0;
    }
    return 0;
  };
  return rank(arg1) >= rank(arg2) ? arg1 : arg2;
}

std::optional<std::string> DupElimReturn(CollKind arg) {
  switch (arg) {
    case CollKind::kSet:
      return std::nullopt;  // not applicable: a set is duplicate-free
    case CollKind::kList:
      return "list of ordered distinct object identifiers";
    case CollKind::kExtent:
      return "Extent of the distinct objects according to the deep equality check";
    case CollKind::kNamedObject:
      return std::nullopt;
  }
  return std::nullopt;
}

Result<CollKind> SetOpReturnKind(CollKind arg1, CollKind arg2) {
  auto ok = [](CollKind k) { return k == CollKind::kSet || k == CollKind::kList; };
  if (!ok(arg1) || !ok(arg2)) {
    return Status::InvalidArgument(
        "Union/Intersection/Difference take Set or List arguments");
  }
  if (arg1 == CollKind::kList && arg2 == CollKind::kList) return CollKind::kList;
  return CollKind::kSet;
}

std::string AsSetListElements(CollKind arg) {
  switch (arg) {
    case CollKind::kExtent:
      return "Object identifiers of the objects in the extent arg";
    case CollKind::kSet:
      return "Object identifiers of the set arg";
    case CollKind::kList:
      return "Object identifiers of the list arg";
    case CollKind::kNamedObject:
      return "Object identifiers of the named object";
  }
  return "";
}

Result<std::string> AsExtentReturn(CollKind arg) {
  if (arg == CollKind::kSet || arg == CollKind::kList) {
    return std::string("extent of dereferenced objects of the elements of the ") +
           (arg == CollKind::kSet ? "set" : "list");
  }
  return Status::InvalidArgument("asExtent takes a Set or List argument");
}

bool UnnestAccepts(CollKind arg, bool tuple_object) {
  if (tuple_object) return true;  // "A tuple type object"
  return arg == CollKind::kExtent || arg == CollKind::kSet || arg == CollKind::kList;
}

// --- Operator implementations ----------------------------------------------------

Result<TypeId> MoodAlgebra::TypeIdOf(Oid o) const {
  MOOD_ASSIGN_OR_RETURN(std::string cls, objects_->ClassOf(o));
  return objects_->catalog()->typeId(cls);
}

Result<std::string> MoodAlgebra::IsA(const std::string& path) const {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= path.size()) {
    size_t dot = path.find('.', start);
    if (dot == std::string::npos) {
      parts.push_back(path.substr(start));
      break;
    }
    parts.push_back(path.substr(start, dot - start));
    start = dot + 1;
  }
  if (parts.empty()) return Status::InvalidArgument("empty path");
  std::string cls = parts[0];
  MOOD_RETURN_IF_ERROR(objects_->catalog()->Lookup(cls).status());
  for (size_t i = 1; i < parts.size(); i++) {
    MOOD_ASSIGN_OR_RETURN(auto attrs, objects_->catalog()->AllAttributes(cls));
    const MoodsAttribute* found = nullptr;
    for (const auto& a : attrs) {
      if (a.name == parts[i]) {
        found = &a;
        break;
      }
    }
    if (found == nullptr) {
      return Status::CatalogError("class '" + cls + "' has no attribute '" + parts[i] +
                                  "'");
    }
    TypeDescPtr t = found->type;
    if (t->kind() == ConstructorKind::kSet || t->kind() == ConstructorKind::kList) {
      t = t->element();
    }
    if (t->kind() == ConstructorKind::kReference) {
      cls = t->referenced_class();
    } else if (i + 1 == parts.size()) {
      return cls;  // atomic terminal: class of the last attribute
    } else {
      return Status::CatalogError("path continues past atomic attribute '" + parts[i] +
                                  "'");
    }
  }
  return cls;
}

Status MoodAlgebra::Bind(Collection arg, const std::string& name) {
  session_names_[name] = std::move(arg);
  return Status::OK();
}

Result<Collection> MoodAlgebra::Named(const std::string& name) const {
  auto it = session_names_.find(name);
  if (it == session_names_.end()) {
    return Status::NotFound("no bound collection '" + name + "'");
  }
  return it->second;
}

Result<Collection> MoodAlgebra::BindClass(const std::string& class_name,
                                          bool with_subclasses,
                                          const std::vector<std::string>& excludes) const {
  std::vector<Oid> oids;
  MOOD_RETURN_IF_ERROR(objects_->ScanExtent(class_name, with_subclasses, excludes,
                                            [&](Oid oid, const MoodValue&) {
                                              oids.push_back(oid);
                                              return Status::OK();
                                            }));
  return Collection::Extent(class_name, std::move(oids));
}

Result<MoodValue> MoodAlgebra::ElementValue(const Collection& coll, size_t i) const {
  if (coll.materialized()) return coll.values()[i];
  return objects_->Fetch(coll.oids()[i]);
}

Result<Collection> MoodAlgebra::Select(const Collection& arg, const ExprPtr& pred,
                                       const std::string& var,
                                       bool extent_as_set) const {
  if (arg.materialized()) {
    return Status::NotSupported("Select over materialized value extents");
  }
  ExprCompileEnv env;
  env.vars[var] = {0, arg.class_name()};
  std::unique_ptr<ExprProgram> program = ExprCompiler(evaluator_).Compile(pred, env);
  std::vector<Oid> kept;
  PredicateStream stream(*program, 1, [&](const Oid* row) { kept.push_back(row[0]); });
  for (Oid oid : arg.oids()) MOOD_RETURN_IF_ERROR(stream.Push(&oid));
  MOOD_RETURN_IF_ERROR(stream.Flush());
  CollKind out = SelectReturnKind(arg.kind(), extent_as_set);
  switch (out) {
    case CollKind::kExtent: return Collection::Extent(arg.class_name(), std::move(kept));
    case CollKind::kSet: return Collection::Set(std::move(kept));
    case CollKind::kList: return Collection::List(std::move(kept));
    case CollKind::kNamedObject:
      return kept.empty() ? Collection::NamedObject(arg.object_name(), kNullOid)
                          : Collection::NamedObject(arg.object_name(), kept[0]);
  }
  return Status::Internal("unhandled collection kind");
}

Result<Collection> MoodAlgebra::IndSel(const std::string& class_name,
                                       const IndexDesc& index, BinaryOp op,
                                       const MoodValue& constant) const {
  std::vector<Oid> oids;
  std::string key = MakeIndexKey(constant);
  if (index.kind == IndexKind::kHash) {
    if (op != BinaryOp::kEq) {
      return Status::InvalidArgument("hash index supports only equality");
    }
    MOOD_ASSIGN_OR_RETURN(HashIndex * hash, objects_->OpenHash(index));
    MOOD_ASSIGN_OR_RETURN(auto packed, hash->SearchEqual(key));
    for (uint64_t v : packed) oids.push_back(Oid::Unpack(v));
    return Collection::Set(std::move(oids));
  }
  if (index.kind != IndexKind::kBTree) {
    return Status::InvalidArgument("IndSel requires a B+-tree or hash index");
  }
  MOOD_ASSIGN_OR_RETURN(BPlusTree * tree, objects_->OpenBTree(index));
  const std::string* lo = nullptr;
  const std::string* hi = nullptr;
  bool strict_lo = false, strict_hi = false;
  switch (op) {
    case BinaryOp::kEq: lo = &key; hi = &key; break;
    case BinaryOp::kGt: lo = &key; strict_lo = true; break;
    case BinaryOp::kGe: lo = &key; break;
    case BinaryOp::kLt: hi = &key; strict_hi = true; break;
    case BinaryOp::kLe: hi = &key; break;
    default:
      return Status::InvalidArgument("IndSel does not support this operator");
  }
  MOOD_RETURN_IF_ERROR(tree->Scan(lo, hi, [&](Slice k, uint64_t v) {
    if (strict_lo && k == Slice(key)) return Status::OK();
    if (strict_hi && k == Slice(key)) return Status::OK();
    oids.push_back(Oid::Unpack(v));
    return Status::OK();
  }));
  (void)class_name;
  return Collection::Set(std::move(oids));
}

Result<Collection> MoodAlgebra::Project(const Collection& arg,
                                        const std::vector<std::string>& attributes) const {
  std::vector<MoodValue> rows;
  rows.reserve(arg.size());
  for (size_t i = 0; i < arg.size(); i++) {
    MoodValue::ValueList fields;
    if (arg.materialized()) {
      return Status::NotSupported("Project over already-projected values");
    }
    Oid oid = arg.oids()[i];
    for (const auto& attr : attributes) {
      MOOD_ASSIGN_OR_RETURN(MoodValue v, objects_->GetAttribute(oid, attr));
      fields.push_back(std::move(v));
    }
    rows.push_back(MoodValue::Tuple(std::move(fields)));
  }
  return Collection::ValueExtent(std::move(rows));
}

Result<Collection> MoodAlgebra::Join(const Collection& arg1, const Collection& arg2,
                                     JoinMethod method, const ExprPtr& pred,
                                     const std::string& var1, const std::string& var2,
                                     const std::string& ref_attr) const {
  if (arg1.materialized() || arg2.materialized()) {
    return Status::NotSupported("Join over materialized value extents");
  }
  CollKind out_kind = JoinReturnKind(arg1.kind(), arg2.kind());
  std::vector<MoodValue> pairs;
  // Set semantics: each <left, right> pair once.
  std::unordered_set<std::pair<uint64_t, uint64_t>, PairHash> seen;
  auto emit = [&](Oid left, Oid right) {
    if (out_kind == CollKind::kSet && !seen.insert({left.Pack(), right.Pack()}).second) {
      return;
    }
    pairs.push_back(MoodValue::Tuple(
        {MoodValue::Reference(left), MoodValue::Reference(right)}));
  };

  if (!ref_attr.empty() && method == JoinMethod::kIndexed) {
    // Probe a registered binary join index from the inner side.
    auto desc =
        objects_->catalog()->FindIndex(arg1.class_name(), ref_attr, IndexKind::kBinaryJoin);
    if (!desc.has_value()) {
      return Status::NotFound("no binary join index on " + arg1.class_name() + "." +
                              ref_attr);
    }
    std::unordered_set<uint64_t> outer;
    for (Oid o : arg1.oids()) outer.insert(o.Pack());
    MOOD_RETURN_IF_ERROR(ProbeJoinIndex(*desc, arg2.oids(), [&](Oid left, size_t r) {
      if (outer.count(left.Pack()) > 0) emit(left, arg2.oids()[r]);
      return Status::OK();
    }));
  } else if (!ref_attr.empty() && method != JoinMethod::kNestedLoop) {
    // Forward traversal, backward traversal and hash partitioning produce the
    // same pairs; they differ in the I/O pattern the cost model prices
    // (Section 6). All three run the one reference chase for now.
    std::unordered_set<uint64_t> inner;
    inner.reserve(arg2.size());
    for (Oid o : arg2.oids()) inner.insert(o.Pack());
    const std::vector<std::string> path = {ref_attr};
    for (Oid left : arg1.oids()) {
      MOOD_RETURN_IF_ERROR(ChaseRefs(left, path, nullptr, [&](Oid right) {
        if (inner.count(right.Pack()) > 0) emit(left, right);
        return Status::OK();
      }));
    }
  } else {
    if (pred == nullptr) {
      return Status::InvalidArgument("nested-loop join requires a predicate");
    }
    ExprCompileEnv env;
    env.vars[var1] = {0, arg1.class_name()};
    env.vars[var2] = {1, arg2.class_name()};
    std::unique_ptr<ExprProgram> program = ExprCompiler(evaluator_).Compile(pred, env);
    PredicateStream stream(*program, 2, [&](const Oid* row) { emit(row[0], row[1]); });
    for (Oid left : arg1.oids()) {
      for (Oid right : arg2.oids()) {
        const Oid row[2] = {left, right};
        MOOD_RETURN_IF_ERROR(stream.Push(row));
      }
    }
    MOOD_RETURN_IF_ERROR(stream.Flush());
  }
  return Collection::Pairs(out_kind, std::move(pairs));
}

Status MoodAlgebra::ChaseRefs(Oid from, const std::vector<std::string>& path,
                              DerefCache* cache,
                              const std::function<Status(Oid)>& fn) const {
  return ChaseFrom(objects_, from, path, 0, cache, fn);
}

Status MoodAlgebra::ProbeJoinIndex(const IndexDesc& index,
                                   const std::vector<Oid>& targets,
                                   const std::function<Status(Oid, size_t)>& fn) const {
  MOOD_ASSIGN_OR_RETURN(BinaryJoinIndex * bji, objects_->OpenJoinIndex(index));
  for (size_t i = 0; i < targets.size(); i++) {
    MOOD_ASSIGN_OR_RETURN(std::vector<Oid> sources, bji->Sources(targets[i]));
    for (Oid source : sources) MOOD_RETURN_IF_ERROR(fn(source, i));
  }
  return Status::OK();
}

Result<std::vector<MoodValue>> MoodAlgebra::KeyOf(
    const MoodValue& tuple, const std::string& class_name,
    const std::vector<std::string>& attrs) const {
  MOOD_ASSIGN_OR_RETURN(auto all, objects_->catalog()->AllAttributes(class_name));
  std::vector<MoodValue> key;
  for (const auto& attr : attrs) {
    int idx = -1;
    for (size_t i = 0; i < all.size(); i++) {
      if (all[i].name == attr) {
        idx = static_cast<int>(i);
        break;
      }
    }
    if (idx < 0) {
      return Status::NotFound("class '" + class_name + "' has no attribute '" + attr +
                              "'");
    }
    if (static_cast<size_t>(idx) < tuple.size()) {
      key.push_back(tuple.elements()[static_cast<size_t>(idx)]);
    } else {
      key.push_back(MoodValue::Null());
    }
  }
  return key;
}

Result<std::vector<Collection>> MoodAlgebra::Partition(
    const Collection& arg, const std::vector<std::string>& attributes) const {
  if (arg.materialized()) {
    return Status::NotSupported("Partition over materialized value extents");
  }
  // Group by encoded key.
  std::map<std::string, std::vector<Oid>> groups;
  for (Oid oid : arg.oids()) {
    MOOD_ASSIGN_OR_RETURN(std::string cls, objects_->ClassOf(oid));
    MOOD_ASSIGN_OR_RETURN(MoodValue tuple, objects_->Fetch(oid));
    MOOD_ASSIGN_OR_RETURN(auto key, KeyOf(tuple, cls, attributes));
    std::string enc;
    for (const auto& k : key) k.EncodeTo(&enc);
    groups[enc].push_back(oid);
  }
  std::vector<Collection> out;
  out.reserve(groups.size());
  for (auto& [enc, oids] : groups) {
    out.push_back(Collection::Extent(arg.class_name(), std::move(oids)));
  }
  return out;
}

Result<Collection> MoodAlgebra::Sort(const Collection& arg,
                                     const std::vector<std::string>& attributes,
                                     bool ascending) const {
  if (arg.materialized()) {
    return Status::NotSupported("Sort over materialized value extents");
  }
  struct Keyed {
    Oid oid;
    std::vector<MoodValue> key;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(arg.size());
  for (Oid oid : arg.oids()) {
    MOOD_ASSIGN_OR_RETURN(std::string cls, objects_->ClassOf(oid));
    MOOD_ASSIGN_OR_RETURN(MoodValue tuple, objects_->Fetch(oid));
    MOOD_ASSIGN_OR_RETURN(auto key, KeyOf(tuple, cls, attributes));
    keyed.push_back(Keyed{oid, std::move(key)});
  }
  // Heap sort (the paper's only supported sort method). Comparison errors poison
  // the sort; record the first one.
  Status cmp_error;
  auto less = [&](const Keyed& a, const Keyed& b) {
    for (size_t i = 0; i < a.key.size(); i++) {
      auto c = a.key[i].Compare(b.key[i]);
      if (!c.ok()) {
        if (cmp_error.ok()) cmp_error = c.status();
        return false;
      }
      if (c.value() != 0) return ascending ? c.value() < 0 : c.value() > 0;
    }
    return false;
  };
  std::make_heap(keyed.begin(), keyed.end(), less);
  std::sort_heap(keyed.begin(), keyed.end(), less);
  MOOD_RETURN_IF_ERROR(cmp_error);

  std::vector<Oid> sorted;
  sorted.reserve(keyed.size());
  for (const auto& k : keyed) sorted.push_back(k.oid);
  if (arg.kind() == CollKind::kExtent) {
    return Collection::Extent(arg.class_name(), std::move(sorted));
  }
  // Set/list arguments yield the sorted list of object identifiers.
  return Collection::List(std::move(sorted));
}

Result<Collection> MoodAlgebra::DupElim(const Collection& arg) const {
  auto rule = DupElimReturn(arg.kind());
  if (!rule.has_value()) {
    return Status::InvalidArgument("DupElim is not applicable to " +
                                   std::string(CollKindName(arg.kind())));
  }
  std::vector<Oid> distinct;
  if (arg.kind() == CollKind::kList) {
    std::unordered_set<uint64_t> seen;
    seen.reserve(arg.size());
    for (Oid o : arg.oids()) {
      if (seen.insert(o.Pack()).second) distinct.push_back(o);
    }
    return Collection::List(std::move(distinct));
  }
  // Extent: deep equality over object values, compared only within the bucket
  // of values whose top-level atomic fields hash alike.
  std::vector<MoodValue> distinct_values;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (Oid o : arg.oids()) {
    MOOD_ASSIGN_OR_RETURN(MoodValue v, objects_->Fetch(o));
    std::vector<size_t>& bucket = buckets[AtomicFieldsHash(v)];
    bool dup = false;
    for (size_t d : bucket) {
      MOOD_ASSIGN_OR_RETURN(dup, objects_->DeepEquals(v, distinct_values[d]));
      if (dup) break;
    }
    if (!dup) {
      bucket.push_back(distinct_values.size());
      distinct.push_back(o);
      distinct_values.push_back(std::move(v));
    }
  }
  return Collection::Extent(arg.class_name(), std::move(distinct));
}

Result<Collection> MoodAlgebra::Union(const Collection& a, const Collection& b) const {
  MOOD_ASSIGN_OR_RETURN(CollKind out, SetOpReturnKind(a.kind(), b.kind()));
  std::vector<Oid> oids = a.oids();
  oids.insert(oids.end(), b.oids().begin(), b.oids().end());
  if (out == CollKind::kList) return Collection::List(std::move(oids));  // concat
  return Collection::Set(std::move(oids));
}

Result<Collection> MoodAlgebra::Intersection(const Collection& a,
                                             const Collection& b) const {
  MOOD_ASSIGN_OR_RETURN(CollKind out, SetOpReturnKind(a.kind(), b.kind()));
  std::unordered_set<uint64_t> right;
  for (Oid o : b.oids()) right.insert(o.Pack());
  std::vector<Oid> oids;
  for (Oid o : a.oids()) {
    if (right.count(o.Pack())) oids.push_back(o);
  }
  if (out == CollKind::kList) return Collection::List(std::move(oids));
  return Collection::Set(std::move(oids));
}

Result<Collection> MoodAlgebra::Difference(const Collection& a,
                                           const Collection& b) const {
  MOOD_ASSIGN_OR_RETURN(CollKind out, SetOpReturnKind(a.kind(), b.kind()));
  std::unordered_set<uint64_t> right;
  for (Oid o : b.oids()) right.insert(o.Pack());
  std::vector<Oid> oids;
  for (Oid o : a.oids()) {
    if (!right.count(o.Pack())) oids.push_back(o);
  }
  if (out == CollKind::kList) return Collection::List(std::move(oids));
  return Collection::Set(std::move(oids));
}

Result<Collection> MoodAlgebra::AsSet(const Collection& arg) const {
  if (arg.materialized()) {
    return Status::NotSupported("asSet over materialized value extents");
  }
  return Collection::Set(arg.oids());
}

Result<Collection> MoodAlgebra::AsList(const Collection& arg) const {
  if (arg.materialized()) {
    return Status::NotSupported("asList over materialized value extents");
  }
  return Collection::List(arg.oids());
}

Result<Collection> MoodAlgebra::AsExtent(const Collection& arg) const {
  MOOD_RETURN_IF_ERROR(AsExtentReturn(arg.kind()).status());
  return Collection::Extent("", arg.oids());
}

Result<Collection> MoodAlgebra::Unnest(const Collection& arg, int field_index) const {
  // Materialize the tuples.
  std::vector<MoodValue> tuples;
  for (size_t i = 0; i < arg.size(); i++) {
    MOOD_ASSIGN_OR_RETURN(MoodValue v, ElementValue(arg, i));
    if (v.kind() != ValueKind::kTuple) {
      return Status::TypeError("Unnest requires tuple-type elements");
    }
    tuples.push_back(std::move(v));
  }
  std::vector<MoodValue> out;
  for (const auto& t : tuples) {
    int idx = field_index;
    if (idx < 0) {
      for (size_t f = 0; f < t.size(); f++) {
        if (t.elements()[f].IsCollection()) {
          idx = static_cast<int>(f);
          break;
        }
      }
    }
    if (idx < 0 || static_cast<size_t>(idx) >= t.size() ||
        !t.elements()[static_cast<size_t>(idx)].IsCollection()) {
      out.push_back(t);  // nothing to unnest for this tuple
      continue;
    }
    const auto& nested = t.elements()[static_cast<size_t>(idx)];
    for (const auto& elem : nested.elements()) {
      MoodValue::ValueList fields = t.elements();
      fields[static_cast<size_t>(idx)] = elem;
      out.push_back(MoodValue::Tuple(std::move(fields)));
    }
  }
  return Collection::ValueExtent(std::move(out));
}

Result<Collection> MoodAlgebra::Nest(const Collection& arg, int field_index) const {
  std::vector<MoodValue> tuples;
  for (size_t i = 0; i < arg.size(); i++) {
    MOOD_ASSIGN_OR_RETURN(MoodValue v, ElementValue(arg, i));
    if (v.kind() != ValueKind::kTuple) {
      return Status::TypeError("Nest requires tuple-type elements");
    }
    tuples.push_back(std::move(v));
  }
  if (field_index < 0) return Status::InvalidArgument("Nest needs a field index");
  // Group by all other fields.
  std::vector<std::pair<MoodValue, MoodValue::ValueList>> groups;  // key tuple -> nested
  for (const auto& t : tuples) {
    if (static_cast<size_t>(field_index) >= t.size()) {
      return Status::InvalidArgument("Nest field index out of range");
    }
    MoodValue::ValueList key_fields;
    for (size_t f = 0; f < t.size(); f++) {
      if (f != static_cast<size_t>(field_index)) key_fields.push_back(t.elements()[f]);
    }
    MoodValue key = MoodValue::Tuple(std::move(key_fields));
    bool found = false;
    for (auto& [k, nested] : groups) {
      if (k.Equals(key)) {
        nested.push_back(t.elements()[static_cast<size_t>(field_index)]);
        found = true;
        break;
      }
    }
    if (!found) {
      groups.emplace_back(std::move(key),
                          MoodValue::ValueList{t.elements()[static_cast<size_t>(field_index)]});
    }
  }
  std::vector<MoodValue> out;
  for (auto& [key, nested] : groups) {
    MoodValue::ValueList fields = key.elements();
    fields.insert(fields.begin() + field_index, MoodValue::Set(std::move(nested)));
    out.push_back(MoodValue::Tuple(std::move(fields)));
  }
  return Collection::ValueExtent(std::move(out));
}

Result<Collection> MoodAlgebra::Flatten(const Collection& arg) const {
  std::vector<Oid> oids;
  auto add = [&](const MoodValue& v) -> Status {
    if (v.kind() == ValueKind::kReference) {
      oids.push_back(v.AsReference());
      return Status::OK();
    }
    if (v.IsCollection()) {
      for (const auto& e : v.elements()) {
        if (e.kind() == ValueKind::kReference) {
          oids.push_back(e.AsReference());
        } else {
          return Status::TypeError("Flatten expects collections of object identifiers");
        }
      }
      return Status::OK();
    }
    return Status::TypeError("Flatten expects collections of object identifiers");
  };
  for (size_t i = 0; i < arg.size(); i++) {
    MOOD_ASSIGN_OR_RETURN(MoodValue v, ElementValue(arg, i));
    MOOD_RETURN_IF_ERROR(add(v));
  }
  // The result of Flatten is always a set.
  return Collection::Set(std::move(oids));
}

}  // namespace mood
