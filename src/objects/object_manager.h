#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
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

/// Per-query dereference cache: OID -> decoded object snapshot. Path
/// expressions (the paper's forward-traversal inner loop) dereference the same
/// objects repeatedly; this cache turns the second and later Deref(oid) of a
/// query into a memory lookup instead of a page pin + record decode.
///
/// Staleness contract: every entry carries the write epoch of the object's
/// extent file at fetch time (see ObjectManager::WriteEpochOf). Any write to
/// that file bumps the epoch, so a lookup after an update in the same query
/// sees an epoch mismatch and refetches — an update is always visible to the
/// next Deref. Tuples are held behind shared_ptr<const MoodValue> so hits from
/// parallel morsel workers share one immutable snapshot.
///
/// Thread safety: lock-striped; safe for concurrent Lookup/Insert from the
/// executor's workers.
class DerefCache {
 public:
  /// `capacity` bounds the total entry count (0 disables caching entirely).
  explicit DerefCache(size_t capacity) : capacity_(capacity) {}

  DerefCache(const DerefCache&) = delete;
  DerefCache& operator=(const DerefCache&) = delete;

  struct Snapshot {
    TypeId type_id = 0;
    std::shared_ptr<const MoodValue> tuple;
  };

  /// Returns true and fills `out` only when an entry for `oid` exists at
  /// exactly `epoch`. A stale entry is erased and reported as a miss.
  bool Lookup(Oid oid, uint64_t epoch, Snapshot* out);

  void Insert(Oid oid, uint64_t epoch, const Snapshot& snap);

  /// Attaches a reader snapshot: ObjectManager's cached read paths
  /// (FetchSnapshot and everything built on it) then serve the version visible
  /// at the snapshot instead of the latest heap state. The cache is per-query,
  /// so one snapshot per cache is exactly statement scope.
  void SetSnapshot(const SnapshotView& view) { snapshot_ = view; }
  const SnapshotView& snapshot() const { return snapshot_; }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    uint64_t epoch = 0;
    Snapshot snap;
  };
  struct Stripe {
    std::mutex mu;
    std::unordered_map<uint64_t, Entry> map;  // key: Oid::Pack()
  };
  static constexpr size_t kStripes = 8;

  Stripe& StripeOf(uint64_t packed) {
    // Mix so oids differing only in low slot bits spread over stripes.
    packed ^= packed >> 33;
    packed *= 0xff51afd7ed558ccdull;
    return stripes_[(packed >> 33) % kStripes];
  }

  size_t capacity_;
  SnapshotView snapshot_;
  std::array<Stripe, kStripes> stripes_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
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
};

using AttributeLayoutPtr = std::shared_ptr<const AttributeLayout>;

/// Object-level storage interface: creates, fetches, updates and deletes class
/// instances in their default extents, maintains registered secondary indexes,
/// and implements dereferencing and deep equality — the object layer the MOOD
/// kernel builds over the storage manager.
class ObjectManager {
 public:
  ObjectManager(StorageManager* storage, Catalog* catalog)
      : storage_(storage), catalog_(catalog) {}

  /// Wires up multi-version snapshot support (Database::Open does this). Once
  /// set, every object write runs under the store's exclusive CommitGate
  /// section and captures its pre-image into the store, and cached reads honor
  /// an attached SnapshotView. Null (the default) is the legacy read-latest
  /// embedded behavior with zero overhead.
  void SetVersionStore(VersionStore* versions) { versions_ = versions; }
  VersionStore* versions() const { return versions_; }

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

  /// The algebra's Deref(oid) operator. The DerefCache overloads consult and
  /// fill `cache` (may be null); see DerefCache for the staleness contract.
  Result<MoodValue> Fetch(Oid oid) const { return Fetch(oid, nullptr); }
  Result<MoodValue> Fetch(Oid oid, DerefCache* cache) const;

  /// Class name of the object (the algebra's TypeId/isA support). Derived from
  /// the type id stored with every object.
  Result<std::string> ClassOf(Oid oid) const;
  Result<std::string> ClassOf(Oid oid, DerefCache* cache) const;

  /// Replaces the whole attribute tuple (type-checked; indexes maintained).
  Status UpdateObject(Oid oid, MoodValue tuple, PageWriteLogger* wal = nullptr,
                      uint64_t version_batch = 0);

  /// Sets one attribute by name.
  Status SetAttribute(Oid oid, const std::string& attr, MoodValue value,
                      PageWriteLogger* wal = nullptr, uint64_t version_batch = 0);

  Status DeleteObject(Oid oid, PageWriteLogger* wal = nullptr,
                      uint64_t version_batch = 0);

  /// Attribute of an object by name (inherited attributes included). The
  /// cached overload does one heap read per object per query instead of the
  /// two (ClassOf + Fetch) the uncached path needs.
  Result<MoodValue> GetAttribute(Oid oid, const std::string& attr) const {
    return GetAttribute(oid, attr, nullptr);
  }
  Result<MoodValue> GetAttribute(Oid oid, const std::string& attr,
                                 DerefCache* cache) const;

  // --- Attribute layouts (compiled expression support) -------------------------

  /// Memoized flattened attribute layout of a class. Entries are invalidated
  /// as a whole when Catalog::schema_epoch() moves (DDL), mirroring the
  /// write-epoch mechanism the DerefCache uses for object data.
  Result<AttributeLayoutPtr> LayoutOf(const std::string& class_name) const;
  Result<AttributeLayoutPtr> LayoutOf(TypeId type_id) const;

  /// Attribute of an object by plan-time ordinal. `expected` is the layout the
  /// ordinal was bound against; when the stored instance is of exactly that
  /// class the access is a direct tuple index (no name lookup). A subclass
  /// instance re-resolves by name through the instance's own layout; NotFound
  /// when that class lacks the attribute (callers fall back to interpretation).
  Result<MoodValue> GetAttributeByOrdinal(Oid oid, const AttributeLayout& expected,
                                          uint32_t ordinal, DerefCache* cache) const;

  /// Write epoch of one extent file's slot (see DerefCache). Monotonically
  /// increases on every object write to files sharing the slot (FileSlot).
  uint64_t WriteEpochOf(uint16_t file) const {
    return write_epochs_[FileSlot(file)].load(std::memory_order_acquire);
  }

  /// Pins a ReadView: the version store's current CSN and pending slots plus
  /// every slot's write epoch. Requires SetVersionStore, and the caller holds
  /// the commit gate shared, so no epoch moves between the two captures.
  ReadView PinReadView() const;

  /// Scans a class extent. `include_subclasses` adds every transitive subclass
  /// extent (the EVERY form); `exclude` removes the subtrees of the listed
  /// subclasses (the `-` operator in FROM).
  Status ScanExtent(const std::string& class_name, bool include_subclasses,
                    const std::vector<std::string>& exclude,
                    const std::function<Status(Oid, const MoodValue&)>& fn) const {
    return ScanExtent(class_name, include_subclasses, exclude, SnapshotView{}, fn);
  }

  /// ScanExtent as of a snapshot: records born after the snapshot are skipped,
  /// records updated since serve their visible pre-image, and objects deleted
  /// from the heap but visible at the snapshot are appended per class via
  /// SnapshotLeftovers. The page-granular path (ScanExtentPage) omits the
  /// leftover pass — parallel scans must run SnapshotLeftovers per class after
  /// the page loop to match.
  Status ScanExtent(const std::string& class_name, bool include_subclasses,
                    const std::vector<std::string>& exclude, const SnapshotView& snap,
                    const std::function<Status(Oid, const MoodValue&)>& fn) const;

  /// The classes whose own extents a ScanExtent over the same arguments visits,
  /// in visit order (subtree expansion minus excluded subtrees).
  Result<std::vector<std::string>> ScanClasses(
      const std::string& class_name, bool include_subclasses,
      const std::vector<std::string>& exclude) const;

  /// Page ids of one class's own extent, in scan (chain) order. Together with
  /// ScanExtentPage this partitions ScanExtent into page-granular morsels:
  /// scanning the listed pages in order yields exactly ScanExtent's sequence.
  Result<std::vector<PageId>> ExtentPageIds(const std::string& class_name) const;

  /// Scans the records homed on one extent page (same decode and forwarding
  /// semantics as ScanExtent). Concurrent-read safe for distinct or identical
  /// pages while no writer mutates the extent.
  Status ScanExtentPage(const std::string& class_name, PageId page,
                        const std::function<Status(Oid, const MoodValue&)>& fn) const;

  /// ScanExtentPage with a readahead cursor (one cursor per logical scan of
  /// the class; see HeapFile::ScanCursor).
  Status ScanExtentPage(const std::string& class_name, PageId page,
                        HeapFile::ScanCursor* cursor,
                        const std::function<Status(Oid, const MoodValue&)>& fn) const {
    return ScanExtentPage(class_name, page, cursor, SnapshotView{}, fn);
  }

  /// Snapshot-aware page scan (same visibility semantics as the snapshot
  /// ScanExtent overload; leftovers likewise excluded).
  Status ScanExtentPage(const std::string& class_name, PageId page,
                        HeapFile::ScanCursor* cursor, const SnapshotView& snap,
                        const std::function<Status(Oid, const MoodValue&)>& fn) const;

  /// The completion pass for snapshot scans over `class_name`'s own extent:
  /// produces, in oid order, every object whose heap record is gone (deleted
  /// by a later or uncommitted writer) but which is still visible at the
  /// snapshot. A no-op for inactive snapshots or version-free files.
  Status SnapshotLeftovers(const std::string& class_name, const SnapshotView& snap,
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

  /// Follows a dotted path from a root object to its terminal values. Set/list
  /// valued reference attributes fan out. The callback receives each terminal
  /// value reached.
  Status TraversePath(Oid root, const std::vector<std::string>& path,
                      const std::function<Status(const MoodValue&)>& fn) const {
    return TraversePath(root, path, nullptr, fn);
  }
  Status TraversePath(Oid root, const std::vector<std::string>& path, DerefCache* cache,
                      const std::function<Status(const MoodValue&)>& fn) const;

  Catalog* catalog() const { return catalog_; }
  StorageManager* storage() const { return storage_; }

  /// Puts back the index entries of every object version batch `batch`
  /// wrote: entries for each object's current heap state out, entries for its
  /// pre-batch state in. Indexes are maintained outside the WAL, so aborting
  /// a transaction must run this before its heap pages are restored
  /// (TransactionManager::SetRollbackHook); the caller holds the gate
  /// exclusively.
  Status UndoIndexWrites(uint64_t batch);

  /// Folds one finished query's DerefCache hit/miss counts into the
  /// engine-wide totals (called by the Executor when the per-query cache
  /// dies); `objects.deref_cache.*` in the metrics registry.
  void AccumulateDerefStats(uint64_t hits, uint64_t misses) const {
    deref_hits_.fetch_add(hits, std::memory_order_relaxed);
    deref_misses_.fetch_add(misses, std::memory_order_relaxed);
  }

  /// Registers the `objects.*` probe: created/deleted counters, accumulated
  /// deref-cache totals, and the summed write epochs (total cache-invalidating
  /// writes across all extent-file slots).
  void RegisterMetrics(MetricsRegistry* registry) const;

 private:
  Result<HeapFile*> ExtentOf(const std::string& class_name) const;
  Result<MoodValue> PadToSchema(const std::string& class_name, MoodValue tuple) const;

  /// Reads + decodes an object, consulting `cache` when non-null. The epoch is
  /// sampled before the heap read, so a racing write can only make the cached
  /// entry look stale (a wasted refetch), never hide the new value.
  Result<DerefCache::Snapshot> FetchSnapshot(Oid oid, DerefCache* cache) const;

  /// Called after any committed object write to `file`; invalidates cached
  /// snapshots of every object in files sharing the epoch slot.
  void BumpWriteEpoch(uint16_t file) const {
    write_epochs_[FileSlot(file)].fetch_add(1, std::memory_order_acq_rel);
  }

  /// Applies index maintenance for one object transition old -> new (either may
  /// be null for insert/delete).
  Status MaintainIndexes(const std::string& class_name, Oid oid,
                         const MoodValue* old_tuple, const MoodValue* new_tuple);

  Result<int> AttrIndex(const std::string& class_name, const std::string& attr) const;

  Result<bool> DeepEqualsRec(const MoodValue& a, const MoodValue& b,
                             std::vector<std::pair<uint64_t, uint64_t>>* visiting) const;

  StorageManager* storage_;
  Catalog* catalog_;
  /// Snapshot/versioning hook (null in plain embedded use; see SetVersionStore).
  VersionStore* versions_ = nullptr;
  /// Write observer (null in plain embedded use; see SetWriteObserver).
  WriteObserver write_observer_;
  /// Per-file-slot write epochs backing the DerefCache staleness contract.
  /// Slotted by file id so a write invalidates at class granularity (plus any
  /// class whose extent file aliases the slot — a false invalidation, never a
  /// false hit).
  mutable std::array<std::atomic<uint64_t>, kFileSlots> write_epochs_{};
  /// Engine-wide observability counters (relaxed atomics; see RegisterMetrics).
  mutable std::atomic<uint64_t> objects_created_{0};
  mutable std::atomic<uint64_t> objects_deleted_{0};
  mutable std::atomic<uint64_t> deref_hits_{0};
  mutable std::atomic<uint64_t> deref_misses_{0};
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

/// Encodes an object record: [type_id u32][tuple value bytes].
void EncodeObjectRecord(TypeId type_id, const MoodValue& tuple, std::string* dst);
Result<std::pair<TypeId, MoodValue>> DecodeObjectRecord(Slice record);

}  // namespace mood
