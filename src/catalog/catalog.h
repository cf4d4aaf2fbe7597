#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/storage_manager.h"
#include "types/oid.h"
#include "types/type_desc.h"

namespace mood {

/// Catalog type identifier. Ids 1..6 are reserved for the basic types; user
/// classes and types start at 16.
using TypeId = uint32_t;
inline constexpr TypeId kInvalidTypeId = 0;
inline constexpr TypeId kFirstUserTypeId = 16;

/// Attribute description stored in the catalog (the paper's MoodsAttribute
/// system class).
struct MoodsAttribute {
  std::string name;
  TypeDescPtr type;
};

/// Member-function signature information (the paper's MoodsFunction system
/// class). "MOOD System handles the methods only by keeping information on their
/// name, return type, and names and types of their parameters" — the body is kept
/// as processed C++ source for the Function Manager.
struct MoodsFunction {
  std::string name;
  TypeDescPtr return_type;
  std::vector<MoodsAttribute> params;
  std::string body_source;

  /// Signature used to locate the compiled function: ClassName::name(T1,T2,...).
  std::string Signature(const std::string& class_name) const;
};

/// Kinds of secondary indexes the catalog can register.
enum class IndexKind : uint8_t {
  kBTree = 0,
  kHash = 1,
  kRTree = 2,
  // 3 is reserved: it tagged the removed path index, and a catalog that still
  // holds one fails to open.
  kBinaryJoin = 4,
};

std::string_view IndexKindName(IndexKind k);

/// Descriptor of one registered index.
struct IndexDesc {
  std::string name;
  std::string class_name;
  /// Attribute name for kBTree/kHash/kRTree; reference attribute for kBinaryJoin.
  std::string attribute;
  IndexKind kind = IndexKind::kBTree;
  bool unique = false;
  PageId meta1 = kInvalidPageId;  // tree/hash/rtree meta page; BJI forward
  PageId meta2 = kInvalidPageId;  // BJI backward tree meta page
};

/// A class or type registered in the catalog (the paper's MoodsType system
/// class). Per Section 2, classes differ from types in that they have a default
/// extent, identity semantics, and participate in the class hierarchy.
struct MoodsType {
  TypeId id = kInvalidTypeId;
  std::string name;
  bool is_class = false;
  std::vector<std::string> supers;  // multiple inheritance (IS-A DAG)
  std::vector<MoodsAttribute> own_attributes;
  std::vector<MoodsFunction> functions;
  FileId extent_file = kInvalidFileId;

  const MoodsFunction* FindFunction(const std::string& fname) const;
};

/// Persisted definition of one materialized view: the name plus the SELECT
/// source text (re-parsed and re-materialized on reopen by the MV subsystem).
struct MatViewDef {
  std::string name;
  std::string select_sql;
};

/// The MOOD catalog: "the definition of classes, types, and member functions in a
/// structure similar to a compiler symbol table", persisted on the storage
/// manager so compile-time information survives to run time (late binding).
class Catalog {
 public:
  /// Opens (or initializes) the catalog in `storage`. The catalog occupies one
  /// heap file that is created on first use.
  Status Open(StorageManager* storage);

  // --- Type and class definition -------------------------------------------

  struct ClassDef {
    std::string name;
    bool is_class = true;  // false: value type (copy semantics, no extent)
    std::vector<std::string> supers;
    std::vector<MoodsAttribute> attributes;
    std::vector<MoodsFunction> methods;
  };

  Result<TypeId> Define(const ClassDef& def);
  Status Drop(const std::string& name);

  // --- Lookup ----------------------------------------------------------------

  Result<const MoodsType*> Lookup(const std::string& name) const;
  Result<const MoodsType*> Lookup(TypeId id) const;
  bool Exists(const std::string& name) const { return by_name_.count(name) > 0; }

  /// The paper's typeId()/typeName() kernel functions.
  TypeId typeId(const std::string& type_name) const;
  std::string typeName(TypeId id) const;

  std::vector<const MoodsType*> AllTypes() const;

  // --- Inheritance DAG ---------------------------------------------------------

  /// All attributes of a class including inherited ones, supers first
  /// (depth-first over the IS-A DAG, duplicates merged by name).
  Result<std::vector<MoodsAttribute>> AllAttributes(const std::string& name) const;

  /// All functions including inherited; an own function overrides an inherited
  /// one with the same name (late binding resolves bottom-up).
  Result<std::vector<MoodsFunction>> AllFunctions(const std::string& name) const;

  /// Resolves a function by name bottom-up through the hierarchy, returning the
  /// defining class name as well.
  Result<std::pair<std::string, const MoodsFunction*>> ResolveFunction(
      const std::string& class_name, const std::string& fname) const;

  /// Direct subclasses.
  Result<std::vector<std::string>> Subclasses(const std::string& name) const;
  /// The class plus all transitive subclasses (used by EVERY-extent scans).
  Result<std::vector<std::string>> SubtreeClasses(const std::string& name) const;
  /// True if `sub` IS-A `super` (reflexive).
  bool IsSubclassOf(const std::string& sub, const std::string& super) const;

  // --- Dynamic schema changes (MoodView's class designer) ----------------------

  Status AddAttribute(const std::string& class_name, MoodsAttribute attr);
  Status DropAttribute(const std::string& class_name, const std::string& attr);
  Status RenameAttribute(const std::string& class_name, const std::string& from,
                         const std::string& to);
  Status AddFunction(const std::string& class_name, MoodsFunction fn);
  Status DropFunction(const std::string& class_name, const std::string& fname);
  Status UpdateFunctionBody(const std::string& class_name, const std::string& fname,
                            std::string body);

  // --- Index registry -----------------------------------------------------------

  Status RegisterIndex(const IndexDesc& desc);
  Status UnregisterIndex(const std::string& index_name);
  std::vector<IndexDesc> IndexesOn(const std::string& class_name) const;
  std::optional<IndexDesc> FindIndex(const std::string& class_name,
                                     const std::string& attribute,
                                     IndexKind kind) const;
  std::optional<IndexDesc> FindIndexByName(const std::string& index_name) const;

  // --- Materialized views --------------------------------------------------------

  Status RegisterView(const MatViewDef& def);
  Status UnregisterView(const std::string& view_name);
  std::vector<MatViewDef> AllViews() const;
  std::optional<MatViewDef> FindView(const std::string& view_name) const;

  // --- Named objects (the Bind naming operator's persistent side) ---------------

  Status BindName(const std::string& name, Oid oid);
  Status UnbindName(const std::string& name);
  Result<Oid> LookupName(const std::string& name) const;
  std::vector<std::pair<std::string, Oid>> AllNamedObjects() const;

  StorageManager* storage() const { return storage_; }

  /// Monotone counter bumped by every schema mutation (class definition/drop,
  /// attribute or function changes). Caches derived from catalog contents —
  /// e.g. ObjectManager's per-class attribute layouts — validate against this
  /// epoch, mirroring the object-level write-epoch mechanism.
  uint64_t schema_epoch() const { return schema_epoch_.load(std::memory_order_acquire); }

 private:
  void BumpSchemaEpoch() { schema_epoch_.fetch_add(1, std::memory_order_acq_rel); }

  struct StoredType {
    MoodsType type;
    RecordId rid;
  };

  Status PersistType(StoredType* st);
  Status PersistIndexes();
  Status PersistNames();
  Status PersistViews();
  Status LoadAll();

  /// Checks the supers exist and the merged attribute set has no name clashes.
  Status ValidateDef(const ClassDef& def) const;

  static void EncodeType(const MoodsType& t, std::string* dst);
  static Result<MoodsType> DecodeType(Slice in);

  StorageManager* storage_ = nullptr;
  HeapFile* file_ = nullptr;
  std::unordered_map<std::string, std::unique_ptr<StoredType>> by_name_;
  std::unordered_map<TypeId, StoredType*> by_id_;
  std::map<std::string, IndexDesc> indexes_;
  std::map<std::string, Oid> named_objects_;
  std::map<std::string, MatViewDef> views_;
  RecordId index_record_rid_{};
  RecordId names_record_rid_{};
  RecordId views_record_rid_{};
  TypeId next_type_id_ = kFirstUserTypeId;
  std::atomic<uint64_t> schema_epoch_{0};
};

}  // namespace mood
