#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "index/bptree.h"
#include "index/hash_index.h"
#include "index/join_index.h"
#include "objects/read_view.h"
#include "storage/storage_manager.h"
#include "types/value.h"

namespace mood {

/// One decoded object record: the type id stored with the object and its
/// attribute tuple, held behind shared_ptr<const MoodValue> so a pre-image
/// served from the version store is shared, not copied.
struct ObjectRecord {
  TypeId type_id = 0;
  std::shared_ptr<const MoodValue> tuple;
};

/// Immutable per-class attribute layout: the flattened AllAttributes view of
/// one class (supers first, duplicates merged) frozen at a schema epoch.
/// Compiled expression programs bind attribute accesses to `attrs` ordinals at
/// plan time; `names` feeds MethodContext::attr_names without re-walking the
/// IS-A DAG per method call. Handed out behind shared_ptr<const> so a layout
/// stays valid for the duration of a query even if DDL invalidates the cache.
struct AttributeLayout {
  TypeId type_id = kInvalidTypeId;
  std::string class_name;
  std::vector<MoodsAttribute> attrs;  ///< Catalog::AllAttributes order
  std::vector<std::string> names;     ///< attrs[i].name (method-context view)
  std::unordered_map<std::string, uint32_t> ordinal_by_name;

  /// Ordinal of `name`, or a negative value when the class lacks it.
  int OrdinalOf(const std::string& name) const {
    auto it = ordinal_by_name.find(name);
    return it == ordinal_by_name.end() ? -1 : static_cast<int>(it->second);
  }

  /// Ordinal of `name`; NotFound when the class lacks it.
  Result<size_t> Ordinal(const std::string& name) const {
    int idx = OrdinalOf(name);
    if (idx < 0) {
      return Status::NotFound("class '" + class_name + "' has no attribute '" + name + "'");
    }
    return static_cast<size_t>(idx);
  }
};

using AttributeLayoutPtr = std::shared_ptr<const AttributeLayout>;

/// Object-level storage interface: creates, fetches, updates and deletes class
/// instances in their default extents, maintains registered secondary indexes,
/// and implements dereferencing and deep equality — the object layer the MOOD
/// kernel builds over the storage manager.
class ObjectManager {
 public:
  /// `versions` is the multi-version store (required): every object write
  /// runs under its exclusive CommitGate section and captures its pre-image
  /// into it, and reads given an active SnapshotView serve the version
  /// visible at that snapshot.
  ObjectManager(StorageManager* storage, Catalog* catalog, VersionStore* versions)
      : storage_(storage), catalog_(catalog), versions_(versions) {}

  /// Observer invoked after every object write (create/update/delete), inside
  /// the exclusive CommitGate section and after the write-epoch bump. The MV
  /// subsystem uses it for delta capture. Must not call back into
  /// ObjectManager write paths. Null disables (the default).
  using WriteObserver = std::function<void(uint16_t file, Oid oid)>;
  void SetWriteObserver(WriteObserver observer) { write_observer_ = std::move(observer); }

  /// Creates an instance of `class_name` from a tuple whose fields follow
  /// Catalog::AllAttributes order. Type-checks against the class schema, inserts
  /// into the class extent and maintains indexes. A tuple shorter than the schema
  /// is padded with attribute defaults (supports schema evolution via
  /// AddAttribute).
  ///
  /// `version_batch` on the write methods groups this write's pre-image
  /// capture under an existing VersionStore batch (a transaction's, or one
  /// autocommit statement's). 0 derives it: the wal's batch when given,
  /// otherwise a self-committing single-write batch.
  Result<Oid> CreateObject(const std::string& class_name, MoodValue tuple,
                           PageWriteLogger* wal = nullptr, uint64_t version_batch = 0);

  /// Reads and decodes one whole object record: its type id and tuple.
  /// Fetch, ClassOf and the write paths all go through it, so a caller that
  /// needs both the class and the tuple makes one call. Every read takes the
  /// statement's reader snapshot `snap`: when it is active and the object's
  /// file has version chains, the version store decides what the snapshot
  /// sees (a pre-image, or NotFound for an object it does not see);
  /// otherwise the record is decoded on its pinned page (HeapFile::Visit).
  /// An inactive snapshot (`{}`) reads the latest state.
  Result<ObjectRecord> Read(Oid oid, const SnapshotView& snap = {}) const;

  /// The algebra's Deref(oid) operator: the object's tuple.
  Result<MoodValue> Fetch(Oid oid, const SnapshotView& snap = {}) const;

  /// Class name of the object (the algebra's TypeId/isA support). Derived from
  /// the type id stored with every object.
  Result<std::string> ClassOf(Oid oid, const SnapshotView& snap = {}) const;

  /// Replaces the whole attribute tuple (type-checked; indexes maintained).
  Status UpdateObject(Oid oid, MoodValue tuple, PageWriteLogger* wal = nullptr,
                      uint64_t version_batch = 0);

  /// Sets one attribute by name.
  Status SetAttribute(Oid oid, const std::string& attr, MoodValue value,
                      PageWriteLogger* wal = nullptr, uint64_t version_batch = 0);

  Status DeleteObject(Oid oid, PageWriteLogger* wal = nullptr,
                      uint64_t version_batch = 0);

  /// Attribute of an object by name (inherited attributes included); NotFound
  /// when the object's class lacks it. ReadFields' one-item case.
  Result<MoodValue> GetAttribute(Oid oid, const std::string& attr,
                                 const SnapshotView& snap = {}) const;

  /// One object of a grouped attribute read; `row` indexes the caller's
  /// output arrays.
  struct FieldRead {
    Oid oid;
    uint32_t row = 0;
  };

  /// The grouped attribute read behind every path step: attribute `name` of
  /// each item's object, at `ordinal` when the instance is of exactly
  /// `expected`'s class (null `expected`: always by name) and re-resolved by
  /// name through the instance's own layout otherwise (NotFound when that
  /// class lacks it). errors[row] receives each item's status and
  /// values[row] its field, assigned only when the status is OK.
  ///
  /// The items are reordered in place: sorted by (file, page, slot) and read
  /// through HeapFile::VisitSorted, so each page is pinned once per call and
  /// at most one page is pinned at a time. A subclass layout is resolved once
  /// per distinct type id per call. Visibility follows Read's rule for `snap`
  /// object by object; when the heap record is the visible state, only the
  /// field is decoded, in place on the pinned page.
  void ReadFields(std::span<FieldRead> items, const AttributeLayout* expected,
                  uint32_t ordinal, const std::string& name, const SnapshotView& snap,
                  MoodValue* values, Status* errors) const;

  // --- Attribute layouts (compiled expression support) -------------------------

  /// Memoized flattened attribute layout of a class. Entries are invalidated
  /// as a whole when Catalog::schema_epoch() moves (DDL).
  Result<AttributeLayoutPtr> LayoutOf(const std::string& class_name) const;
  Result<AttributeLayoutPtr> LayoutOf(TypeId type_id) const;

  /// Attribute of an object by plan-time ordinal: ReadFields' one-item case
  /// with `expected` the layout the ordinal was bound against (a subclass
  /// instance re-resolves by name; NotFound when its class lacks the
  /// attribute, and callers fall back to interpretation).
  Result<MoodValue> GetAttributeByOrdinal(Oid oid, const AttributeLayout& expected,
                                          uint32_t ordinal,
                                          const SnapshotView& snap) const;

  /// Write epoch of one extent file's slot: the stamp cached plans, results
  /// and materialized views are checked against (StampHolds, ReadView).
  /// Monotonically increases on every object write to files sharing the slot
  /// (FileSlot).
  uint64_t WriteEpochOf(uint16_t file) const {
    return write_epochs_[FileSlot(file)].load(std::memory_order_acquire);
  }

  /// Pins a ReadView: the version store's current CSN and pending slots plus
  /// every slot's write epoch. The caller holds the commit gate shared, so no
  /// epoch moves between the two captures.
  ReadView PinReadView() const;

  /// Scans a class extent. `include_subclasses` adds every transitive subclass
  /// extent (the EVERY form); `exclude` removes the subtrees of the listed
  /// subclasses (the `-` operator in FROM).
  Status ScanExtent(const std::string& class_name, bool include_subclasses,
                    const std::vector<std::string>& exclude,
                    const std::function<Status(Oid, const MoodValue&)>& fn) const {
    return ScanExtent(class_name, include_subclasses, exclude, SnapshotView{}, fn);
  }

  /// ScanExtent as of a snapshot: one chain walk per class extent
  /// (HeapFile::Scan), so every page is read once and every read error ends
  /// the scan. Records born after the snapshot are skipped,
  /// records updated since serve their visible pre-image, and objects deleted
  /// from the heap but visible at the snapshot are appended per class via
  /// SnapshotLeftovers.
  Status ScanExtent(const std::string& class_name, bool include_subclasses,
                    const std::vector<std::string>& exclude, const SnapshotView& snap,
                    const std::function<Status(Oid, const MoodValue&)>& fn) const;

  /// The oids ScanExtent produces, in the same order and under the same
  /// snapshot rule, without copying or decoding any record
  /// (HeapFile::ScanIds): for callers that keep only the oid (the executor's
  /// extent bind reads an object when an expression needs it; a served
  /// materialized view orders its stored rows by it).
  Status ScanExtentOids(const std::string& class_name, bool include_subclasses,
                        const std::vector<std::string>& exclude, const SnapshotView& snap,
                        const std::function<Status(Oid)>& fn) const;

  /// The classes whose own extents a ScanExtent over the same arguments visits,
  /// in visit order (subtree expansion minus excluded subtrees).
  Result<std::vector<std::string>> ScanClasses(
      const std::string& class_name, bool include_subclasses,
      const std::vector<std::string>& exclude) const;

  /// Page ids of one class's own extent, in scan (chain) order.
  Result<std::vector<PageId>> ExtentPageIds(const std::string& class_name) const;

  /// Scans the records homed on one extent page with the decode, forwarding
  /// and snapshot visibility of ScanExtent (leftovers excluded).
  /// Concurrent-read safe for distinct or identical pages while no writer
  /// mutates the extent.
  Status ScanExtentPage(const std::string& class_name, PageId page,
                        const SnapshotView& snap,
                        const std::function<Status(Oid, const MoodValue&)>& fn) const;

  /// |C| for one class (own extent only or with subclasses).
  Result<uint64_t> ExtentCount(const std::string& class_name,
                               bool include_subclasses) const;
  /// nbpages(C) of the class's own extent.
  Result<uint32_t> ExtentPages(const std::string& class_name) const;

  /// Deep (value) equality following references, with cycle protection. Used by
  /// DupElim on extents ("deep equality check", Table 3).
  Result<bool> DeepEquals(const MoodValue& a, const MoodValue& b) const;

  // --- Index creation & access -------------------------------------------------

  /// Builds a B+-tree (or hash) index over `attribute` of `class_name`, bulk
  /// loading existing objects, and registers it in the catalog.
  Status CreateAttributeIndex(const std::string& index_name,
                              const std::string& class_name,
                              const std::string& attribute, IndexKind kind,
                              bool unique = false);

  /// Builds a binary join index over reference attribute `attribute`.
  Status CreateBinaryJoinIndex(const std::string& index_name,
                               const std::string& class_name,
                               const std::string& attribute);

  /// Opens (cached) handles to registered indexes.
  Result<BPlusTree*> OpenBTree(const IndexDesc& desc);
  Result<HashIndex*> OpenHash(const IndexDesc& desc);
  Result<BinaryJoinIndex*> OpenJoinIndex(const IndexDesc& desc);

  /// The reference chase of the pointer-join strategies (algebra and
  /// executor alike): follows `path` from every oid of `from`, calling
  /// `fn(i, reached)` for every object reached from `from[i]`, in order of
  /// `i` and depth first within it. Set/List-valued reference attributes fan
  /// out, a Null stops the branch, and any other non-reference value is a
  /// TypeError. The chase goes hop by hop, each hop one grouped read
  /// (ReadFields) of the whole frontier, so each page is pinned once per
  /// hop; the outcome, including which error is returned first, is the
  /// depth-first one. Every hop reads through `snap` (see Read).
  Status ChaseRefs(const std::vector<Oid>& from, const std::vector<std::string>& path,
                   const SnapshotView& snap,
                   const std::function<Status(size_t, Oid)>& fn) const;

  Catalog* catalog() const { return catalog_; }
  StorageManager* storage() const { return storage_; }

  /// Puts back the index entries of every object version batch `batch`
  /// wrote: entries for each object's current heap state out, entries for its
  /// pre-batch state in. Indexes are maintained outside the WAL, so aborting
  /// a transaction must run this before its heap pages are restored
  /// (TransactionManager::SetRollbackHook); the caller holds the gate
  /// exclusively.
  Status UndoIndexWrites(uint64_t batch);

  /// Registers the `objects.*` probe: created/deleted counters and the summed
  /// write epochs (total cache-invalidating writes across all extent-file
  /// slots).
  void RegisterMetrics(MetricsRegistry* registry) const;

 private:
  Result<HeapFile*> ExtentOf(const std::string& class_name) const;
  Result<MoodValue> PadToSchema(const std::string& class_name, MoodValue tuple) const;

  /// Runs `scan(class, extent file id, extent)` for every class a ScanExtent
  /// over the same arguments visits, in visit order.
  Status ForEachScannedExtent(
      const std::string& class_name, bool include_subclasses,
      const std::vector<std::string>& exclude,
      const std::function<Status(const std::string&, uint32_t, HeapFile*)>& scan) const;

  /// ReadFields over one object.
  Result<MoodValue> ReadField(Oid oid, const AttributeLayout* expected, uint32_t ordinal,
                              const std::string& name, const SnapshotView& snap) const;

  /// The completion pass for snapshot scans over `class_name`'s own extent:
  /// produces, in oid order, every object whose heap record is gone (deleted
  /// by a later or uncommitted writer) but which is still visible at the
  /// snapshot. A no-op for inactive snapshots or version-free files.
  Status SnapshotLeftovers(const std::string& class_name, const SnapshotView& snap,
                           const std::function<Status(Oid, const MoodValue&)>& fn) const;

  /// Name of the class whose type id a record carries.
  Result<std::string> ClassNameOf(TypeId type_id) const;

  /// Writes `tuple` over the object whose current record `old` the caller
  /// read: type check, heap update, pre-image capture, index maintenance.
  Status Rewrite(Oid oid, const ObjectRecord& old, MoodValue tuple, PageWriteLogger* wal,
                 uint64_t version_batch);

  /// Called after any object write to `file`; moves the stamp of every file
  /// sharing the epoch slot.
  void BumpWriteEpoch(uint16_t file) const {
    write_epochs_[FileSlot(file)].fetch_add(1, std::memory_order_acq_rel);
  }

  /// Applies index maintenance for one object transition old -> new (either may
  /// be null for insert/delete).
  Status MaintainIndexes(const std::string& class_name, Oid oid,
                         const MoodValue* old_tuple, const MoodValue* new_tuple);


  Result<bool> DeepEqualsRec(const MoodValue& a, const MoodValue& b,
                             std::vector<std::pair<uint64_t, uint64_t>>* visiting) const;

  StorageManager* storage_;
  Catalog* catalog_;
  VersionStore* versions_;
  /// Write observer (null in plain embedded use; see SetWriteObserver).
  WriteObserver write_observer_;
  /// Per-file-slot write epochs (see WriteEpochOf). Slotted by file id so a
  /// write invalidates at class granularity (plus any class whose extent file
  /// aliases the slot — a false invalidation, never a false hit).
  mutable std::array<std::atomic<uint64_t>, kFileSlots> write_epochs_{};
  /// Engine-wide observability counters (relaxed atomics; see RegisterMetrics).
  mutable std::atomic<uint64_t> objects_created_{0};
  mutable std::atomic<uint64_t> objects_deleted_{0};
  /// Guards the lazily-populated index-handle caches below: parallel workers
  /// may race to open the same index (e.g. concurrent IndSel probes). The
  /// handles themselves are concurrent-read safe once opened.
  mutable std::mutex index_cache_mu_;
  mutable std::unordered_map<std::string, std::unique_ptr<BPlusTree>> btrees_;
  mutable std::unordered_map<std::string, std::unique_ptr<HashIndex>> hashes_;
  mutable std::unordered_map<std::string, std::unique_ptr<BinaryJoinIndex>> bjis_;
  /// Memoized per-class attribute layouts (see LayoutOf), validated against
  /// Catalog::schema_epoch(): any DDL clears the whole map on next use.
  mutable std::mutex layout_mu_;
  mutable uint64_t layout_epoch_ = 0;
  mutable std::unordered_map<TypeId, AttributeLayoutPtr> layouts_;
};

}  // namespace mood
