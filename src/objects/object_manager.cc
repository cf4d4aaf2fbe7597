#include "objects/object_manager.h"

#include <algorithm>
#include <set>

#include "common/coding.h"
#include "index/key_codec.h"
#include "obs/metrics.h"
#include "txn/version_store.h"

namespace mood {

namespace {

/// Resolves the VersionStore batch a write's pre-image capture belongs to and
/// self-commits single-write batches. An explicit batch (a transaction's or an
/// autocommit statement's) is used as-is and left open for its owner; with no
/// batch in scope the write gets a private one, committed on success and
/// dropped if the write never reached the heap.
class BatchScope {
 public:
  BatchScope(VersionStore* versions, PageWriteLogger* wal, uint64_t explicit_batch)
      : versions_(versions) {
    if (explicit_batch != 0) {
      batch_ = explicit_batch;
    } else if (wal != nullptr && wal->version_batch() != 0) {
      batch_ = wal->version_batch();
    } else {
      batch_ = versions_->BeginBatch();
      own_ = true;
    }
  }
  ~BatchScope() {
    if (!own_) return;
    // Once the heap write happened the capture must commit even if index
    // maintenance failed afterwards — the record change is visible, matching
    // the non-versioned autocommit contract for partial failures.
    if (wrote_) {
      versions_->CommitBatch(batch_);
    } else {
      versions_->AbortBatch(batch_);
    }
  }
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

  uint64_t batch() const { return batch_; }
  void NoteHeapWrite() { wrote_ = true; }

 private:
  VersionStore* versions_;
  uint64_t batch_ = 0;
  bool own_ = false;
  bool wrote_ = false;
};

/// An object record is [type_id u32][tuple value bytes].
void EncodeObjectRecord(TypeId type_id, const MoodValue& tuple, std::string* dst) {
  PutFixed32(dst, type_id);
  tuple.EncodeTo(dst);
}

Result<std::pair<TypeId, MoodValue>> DecodeObjectRecord(Slice record) {
  if (record.size() < 4) return Status::Corruption("short object record");
  TypeId id = DecodeFixed32(record.data());
  record.remove_prefix(4);
  MOOD_ASSIGN_OR_RETURN(MoodValue v, MoodValue::DecodeAll(record));
  return std::make_pair(id, std::move(v));
}

Oid OidOf(uint32_t file, RecordId rid) {
  Oid oid;
  oid.file = static_cast<uint16_t>(file);
  oid.page = rid.page;
  oid.slot = rid.slot;
  return oid;
}

/// Field `idx` of `record`'s tuple laid out as `layout`. An object that
/// predates a schema change lacks trailing fields; those take the default.
Result<MoodValue> FieldOf(const ObjectRecord& record, const AttributeLayout& layout,
                          size_t idx) {
  if (idx >= record.tuple->size()) return layout.attrs[idx].type->DefaultValue();
  MOOD_ASSIGN_OR_RETURN(const MoodValue* f, record.tuple->Field(idx));
  return *f;
}

/// The snapshot visibility rule for one scanned extent record.
enum class Visibility {
  kHeap,      ///< serve the heap record
  kPreImage,  ///< updated since the snapshot: serve the version in `*v`
  kHidden,    ///< created after the snapshot: skip it
};

Visibility VisibleAt(const SnapshotView& snap, Oid oid, VersionStore::Version* v) {
  if (!snap.active() || !snap.versions->FileHasVersions(oid.file) ||
      !snap.versions->VisibleVersion(oid, snap.csn, v)) {
    return Visibility::kHeap;
  }
  return v->absent ? Visibility::kHidden : Visibility::kPreImage;
}

/// Hands one scanned extent record to `fn` as its visible tuple.
Status EmitVisible(uint32_t file, const SnapshotView& snap, RecordId rid,
                   const std::string& rec,
                   const std::function<Status(Oid, const MoodValue&)>& fn) {
  Oid oid = OidOf(file, rid);
  VersionStore::Version v;
  switch (VisibleAt(snap, oid, &v)) {
    case Visibility::kHidden:
      return Status::OK();
    case Visibility::kPreImage:
      return fn(oid, *v.tuple);
    case Visibility::kHeap:
      break;
  }
  MOOD_ASSIGN_OR_RETURN(auto decoded, DecodeObjectRecord(rec));
  return fn(oid, decoded.second);
}

/// Hands one scanned extent record's oid to `fn` when it is visible; the
/// record is not decoded.
Status EmitVisibleOid(uint32_t file, const SnapshotView& snap, RecordId rid,
                      const std::function<Status(Oid)>& fn) {
  Oid oid = OidOf(file, rid);
  VersionStore::Version v;
  return VisibleAt(snap, oid, &v) == Visibility::kHidden ? Status::OK() : fn(oid);
}

/// Mixes an oid's packed bits (murmur3's finalizer): the top bits pick the
/// stripe, the low bits the slot, so oids differing only in slot bits spread.
uint64_t MixOid(uint64_t packed) {
  packed ^= packed >> 33;
  packed *= 0xff51afd7ed558ccdull;
  packed ^= packed >> 33;
  packed *= 0xc4ceb9fe1a85ec53ull;
  return packed ^ (packed >> 33);
}

}  // namespace

DerefCache::Slot& DerefCache::Probe(Stripe& stripe, uint64_t key, uint64_t hash) {
  const size_t mask = stripe.slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = stripe.slots[i];
    if (slot.record.tuple == nullptr || slot.key == key) return slot;
  }
}

bool DerefCache::Lookup(Oid oid, uint64_t epoch, ObjectRecord* out) {
  const uint64_t key = oid.Pack();
  const uint64_t hash = MixOid(key);
  Stripe& stripe = stripes_[hash >> 61];
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (!stripe.slots.empty()) {
    const Slot& slot = Probe(stripe, key, hash);
    if (slot.record.tuple != nullptr && slot.epoch == epoch) {
      *out = slot.record;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void DerefCache::Insert(Oid oid, uint64_t epoch, const ObjectRecord& record) {
  const uint64_t misses = misses_.load(std::memory_order_relaxed);
  if (misses > kProbation &&
      hits_.load(std::memory_order_relaxed) * kMinHitShare < misses) {
    return;
  }
  const uint64_t key = oid.Pack();
  const uint64_t hash = MixOid(key);
  Stripe& stripe = stripes_[hash >> 61];
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.slots.empty()) stripe.slots.resize(kInitialSlots);
  Slot* slot = &Probe(stripe, key, hash);
  if (slot->record.tuple == nullptr) {
    // A new entry: keep the table at most half full, doubling it up to the
    // stripe's share of the capacity and emptying it once that is reached.
    if (2 * (stripe.used + 1) > stripe.slots.size()) {
      std::vector<Slot> old;
      old.swap(stripe.slots);
      stripe.used = 0;
      if (old.size() < 2 * kStripeEntries) {
        stripe.slots.resize(2 * old.size());
        for (Slot& moved : old) {
          if (moved.record.tuple == nullptr) continue;
          Probe(stripe, moved.key, MixOid(moved.key)) = std::move(moved);
          stripe.used++;
        }
      } else {
        stripe.slots.resize(old.size());
      }
      slot = &Probe(stripe, key, hash);
    }
    stripe.used++;
  }
  slot->key = key;
  slot->epoch = epoch;
  slot->record = record;
}

Result<HeapFile*> ObjectManager::ExtentOf(const std::string& class_name) const {
  MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(class_name));
  if (!type->is_class) {
    return Status::InvalidArgument("'" + class_name + "' is a value type (no extent)");
  }
  return storage_->GetFile(type->extent_file);
}

Result<MoodValue> ObjectManager::PadToSchema(const std::string& class_name,
                                             MoodValue tuple) const {
  MOOD_ASSIGN_OR_RETURN(auto attrs, catalog_->AllAttributes(class_name));
  if (tuple.kind() != ValueKind::kTuple) {
    return Status::TypeError("object value must be a Tuple");
  }
  if (tuple.size() > attrs.size()) {
    return Status::TypeError("tuple has more fields than class '" + class_name +
                             "' has attributes");
  }
  if (tuple.size() < attrs.size()) {
    auto& elems = tuple.mutable_elements();
    for (size_t i = elems.size(); i < attrs.size(); i++) {
      elems.push_back(attrs[i].type->DefaultValue());
    }
  }
  for (size_t i = 0; i < attrs.size(); i++) {
    Status st = attrs[i].type->CheckValue(tuple.elements()[i]);
    if (!st.ok()) {
      return Status::TypeError("attribute '" + attrs[i].name + "': " + st.message());
    }
  }
  return tuple;
}

Result<Oid> ObjectManager::CreateObject(const std::string& class_name, MoodValue tuple,
                                        PageWriteLogger* wal, uint64_t version_batch) {
  MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(class_name));
  MOOD_ASSIGN_OR_RETURN(tuple, PadToSchema(class_name, std::move(tuple)));
  MOOD_ASSIGN_OR_RETURN(HeapFile* extent, ExtentOf(class_name));
  std::string rec;
  EncodeObjectRecord(type->id, tuple, &rec);
  BatchScope batch(versions_, wal, version_batch);
  // The exclusive gate section makes heap write + pre-image capture + index
  // maintenance + epoch bump one atomic unit against snapshot readers.
  CommitGate::ExclusiveGuard gate(&versions_->gate());
  MOOD_ASSIGN_OR_RETURN(RecordId rid, extent->Insert(rec, wal));
  batch.NoteHeapWrite();
  Oid oid = OidOf(type->extent_file, rid);
  versions_->CapturePending(batch.batch(), oid, /*absent_before=*/true, 0, nullptr,
                            /*live_after=*/true);
  MOOD_RETURN_IF_ERROR(MaintainIndexes(class_name, oid, nullptr, &tuple));
  BumpWriteEpoch(oid.file);
  if (write_observer_) write_observer_(oid.file, oid);
  objects_created_.fetch_add(1, std::memory_order_relaxed);
  return oid;
}

ReadView ObjectManager::PinReadView() const {
  ReadView view(this);
  const uint64_t csn = versions_->PinSnapshot(&view.pending_);
  view.pin_ = std::unique_ptr<VersionStore, SnapshotUnpin>(versions_, {csn});
  for (size_t slot = 0; slot < kFileSlots; slot++) {
    view.epochs_[slot] = write_epochs_[slot].load(std::memory_order_acquire);
  }
  return view;
}

bool ReadView::Current(uint16_t file) const {
  return Identifies(file) && objects_->WriteEpochOf(file) == EpochOf(file);
}

Result<ObjectRecord> ObjectManager::Read(Oid oid, DerefCache* cache) const {
  if (!oid.valid()) return Status::InvalidArgument("null object identifier");
  // Epoch before the read: a write racing the read can at worst tag a fresh
  // value with a pre-write epoch, which later lookups treat as stale.
  uint64_t epoch = WriteEpochOf(oid.file);
  ObjectRecord record;
  if (cache != nullptr && cache->Lookup(oid, epoch, &record)) return record;
  // Version store first: it decides visibility for deleted objects (the heap
  // read below would report NotFound) and supplies pre-images of objects
  // written after the reader's snapshot.
  if (cache != nullptr && cache->snapshot().active()) {
    const SnapshotView& view = cache->snapshot();
    if (view.versions->FileHasVersions(oid.file)) {
      VersionStore::Version v;
      if (view.versions->VisibleVersion(oid, view.csn, &v)) {
        if (v.absent) {
          return Status::NotFound("object " + oid.ToString() +
                                  " not visible at reader snapshot");
        }
        record.type_id = v.type_id;
        record.tuple = std::move(v.tuple);
        cache->Insert(oid, epoch, record);
        return record;
      }
    }
  }
  MOOD_ASSIGN_OR_RETURN(HeapFile* file, storage_->GetFile(oid.file));
  MOOD_ASSIGN_OR_RETURN(std::string rec, file->Get(RecordId{oid.page, oid.slot}));
  MOOD_ASSIGN_OR_RETURN(auto decoded, DecodeObjectRecord(rec));
  record.type_id = decoded.first;
  record.tuple = std::make_shared<const MoodValue>(std::move(decoded.second));
  if (cache != nullptr) cache->Insert(oid, epoch, record);
  return record;
}

Result<MoodValue> ObjectManager::Fetch(Oid oid, DerefCache* cache) const {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord record, Read(oid, cache));
  return *record.tuple;
}

Result<std::string> ObjectManager::ClassNameOf(TypeId type_id) const {
  std::string name = catalog_->typeName(type_id);
  if (name.empty()) return Status::CatalogError("object has unknown type id");
  return name;
}

Result<std::string> ObjectManager::ClassOf(Oid oid, DerefCache* cache) const {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord record, Read(oid, cache));
  return ClassNameOf(record.type_id);
}

Status ObjectManager::UpdateObject(Oid oid, MoodValue tuple, PageWriteLogger* wal,
                                   uint64_t version_batch) {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord old, Read(oid));
  return Rewrite(oid, old, std::move(tuple), wal, version_batch);
}

Status ObjectManager::Rewrite(Oid oid, const ObjectRecord& old, MoodValue tuple,
                              PageWriteLogger* wal, uint64_t version_batch) {
  MOOD_ASSIGN_OR_RETURN(std::string class_name, ClassNameOf(old.type_id));
  MOOD_ASSIGN_OR_RETURN(tuple, PadToSchema(class_name, std::move(tuple)));
  MOOD_ASSIGN_OR_RETURN(HeapFile* extent, ExtentOf(class_name));
  std::string rec;
  EncodeObjectRecord(old.type_id, tuple, &rec);
  BatchScope batch(versions_, wal, version_batch);
  CommitGate::ExclusiveGuard gate(&versions_->gate());
  MOOD_RETURN_IF_ERROR(extent->Update(RecordId{oid.page, oid.slot}, rec, wal));
  batch.NoteHeapWrite();
  // Capture only after the page write succeeded, inside the exclusive gate
  // section — readers cannot observe the gap between write and capture.
  versions_->CapturePending(batch.batch(), oid, /*absent_before=*/false, old.type_id,
                            old.tuple, /*live_after=*/true);
  Status st = MaintainIndexes(class_name, oid, old.tuple.get(), &tuple);
  // After the write so a concurrent reader cannot cache the old value under
  // the new epoch.
  BumpWriteEpoch(oid.file);
  if (write_observer_) write_observer_(oid.file, oid);
  return st;
}

Status ObjectManager::SetAttribute(Oid oid, const std::string& attr, MoodValue value,
                                   PageWriteLogger* wal, uint64_t version_batch) {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord old, Read(oid));
  MOOD_ASSIGN_OR_RETURN(AttributeLayoutPtr layout, LayoutOf(old.type_id));
  MOOD_ASSIGN_OR_RETURN(size_t idx, layout->Ordinal(attr));
  MOOD_ASSIGN_OR_RETURN(MoodValue tuple, PadToSchema(layout->class_name, *old.tuple));
  tuple.mutable_elements()[idx] = std::move(value);
  return Rewrite(oid, old, std::move(tuple), wal, version_batch);
}

Status ObjectManager::DeleteObject(Oid oid, PageWriteLogger* wal,
                                   uint64_t version_batch) {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord old, Read(oid));
  MOOD_ASSIGN_OR_RETURN(std::string class_name, ClassNameOf(old.type_id));
  MOOD_ASSIGN_OR_RETURN(HeapFile* extent, ExtentOf(class_name));
  BatchScope batch(versions_, wal, version_batch);
  CommitGate::ExclusiveGuard gate(&versions_->gate());
  MOOD_RETURN_IF_ERROR(extent->Delete(RecordId{oid.page, oid.slot}, wal));
  batch.NoteHeapWrite();
  versions_->CapturePending(batch.batch(), oid, /*absent_before=*/false, old.type_id,
                            old.tuple, /*live_after=*/false);
  Status st = MaintainIndexes(class_name, oid, old.tuple.get(), nullptr);
  BumpWriteEpoch(oid.file);
  if (write_observer_) write_observer_(oid.file, oid);
  objects_deleted_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Result<MoodValue> ObjectManager::GetAttribute(Oid oid, const std::string& attr,
                                              DerefCache* cache) const {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord record, Read(oid, cache));
  MOOD_ASSIGN_OR_RETURN(AttributeLayoutPtr layout, LayoutOf(record.type_id));
  MOOD_ASSIGN_OR_RETURN(size_t idx, layout->Ordinal(attr));
  return FieldOf(record, *layout, idx);
}

Result<AttributeLayoutPtr> ObjectManager::LayoutOf(const std::string& class_name) const {
  TypeId id = catalog_->typeId(class_name);
  if (id == kInvalidTypeId) {
    return Status::NotFound("no class or type named '" + class_name + "'");
  }
  return LayoutOf(id);
}

Result<AttributeLayoutPtr> ObjectManager::LayoutOf(TypeId type_id) const {
  uint64_t epoch = catalog_->schema_epoch();
  {
    std::lock_guard<std::mutex> lock(layout_mu_);
    if (layout_epoch_ != epoch) {
      layouts_.clear();
      layout_epoch_ = epoch;
    } else {
      auto it = layouts_.find(type_id);
      if (it != layouts_.end()) return it->second;
    }
  }
  // Build outside the lock: AllAttributes walks the IS-A DAG and allocates.
  std::string name = catalog_->typeName(type_id);
  if (name.empty()) return Status::CatalogError("object has unknown type id");
  auto layout = std::make_shared<AttributeLayout>();
  layout->type_id = type_id;
  layout->class_name = name;
  MOOD_ASSIGN_OR_RETURN(layout->attrs, catalog_->AllAttributes(name));
  layout->names.reserve(layout->attrs.size());
  layout->ordinal_by_name.reserve(layout->attrs.size());
  for (uint32_t i = 0; i < layout->attrs.size(); i++) {
    layout->names.push_back(layout->attrs[i].name);
    layout->ordinal_by_name.emplace(layout->attrs[i].name, i);
  }
  std::lock_guard<std::mutex> lock(layout_mu_);
  if (layout_epoch_ != epoch) {
    // A DDL slipped in while we built; serve the (still-correct-at-`epoch`)
    // layout to this caller without caching it.
    return AttributeLayoutPtr(layout);
  }
  auto [it, inserted] = layouts_.emplace(type_id, std::move(layout));
  return it->second;
}

Result<MoodValue> ObjectManager::GetAttributeByOrdinal(Oid oid,
                                                       const AttributeLayout& expected,
                                                       uint32_t ordinal,
                                                       DerefCache* cache) const {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord record, Read(oid, cache));
  if (record.type_id == expected.type_id) return FieldOf(record, expected, ordinal);
  // Subclass instance behind a statically-typed reference: its flattened
  // layout may order inherited attributes differently, so re-resolve by name.
  MOOD_ASSIGN_OR_RETURN(AttributeLayoutPtr actual, LayoutOf(record.type_id));
  MOOD_ASSIGN_OR_RETURN(size_t pos, actual->Ordinal(expected.attrs[ordinal].name));
  return FieldOf(record, *actual, pos);
}

Result<std::vector<std::string>> ObjectManager::ScanClasses(
    const std::string& class_name, bool include_subclasses,
    const std::vector<std::string>& exclude) const {
  std::vector<std::string> classes;
  if (include_subclasses) {
    MOOD_ASSIGN_OR_RETURN(classes, catalog_->SubtreeClasses(class_name));
  } else {
    classes.push_back(class_name);
  }
  // The `-` operator removes whole subtrees of the excluded subclasses.
  std::set<std::string> excluded;
  for (const auto& ex : exclude) {
    MOOD_ASSIGN_OR_RETURN(auto sub, catalog_->SubtreeClasses(ex));
    excluded.insert(sub.begin(), sub.end());
  }
  std::vector<std::string> kept;
  kept.reserve(classes.size());
  for (auto& cls : classes) {
    if (excluded.count(cls)) continue;
    kept.push_back(std::move(cls));
  }
  return kept;
}

Result<std::vector<PageId>> ObjectManager::ExtentPageIds(
    const std::string& class_name) const {
  MOOD_ASSIGN_OR_RETURN(HeapFile* extent, ExtentOf(class_name));
  return extent->PageIds();
}

Status ObjectManager::ScanExtentPage(
    const std::string& class_name, PageId page, HeapFile::ScanCursor* cursor,
    const SnapshotView& snap,
    const std::function<Status(Oid, const MoodValue&)>& fn) const {
  MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(class_name));
  MOOD_ASSIGN_OR_RETURN(HeapFile* extent, storage_->GetFile(type->extent_file));
  return extent
      ->ScanPage(page, cursor,
                 [&](RecordId rid, const std::string& rec) {
                   return EmitVisible(type->extent_file, snap, rid, rec, fn);
                 })
      .status();
}

Status ObjectManager::ForEachScannedExtent(
    const std::string& class_name, bool include_subclasses,
    const std::vector<std::string>& exclude,
    const std::function<Status(const std::string&, uint32_t, HeapFile*)>& scan) const {
  MOOD_ASSIGN_OR_RETURN(std::vector<std::string> classes,
                        ScanClasses(class_name, include_subclasses, exclude));
  for (const auto& cls : classes) {
    MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(cls));
    MOOD_ASSIGN_OR_RETURN(HeapFile* extent, storage_->GetFile(type->extent_file));
    MOOD_RETURN_IF_ERROR(scan(cls, type->extent_file, extent));
  }
  return Status::OK();
}

Status ObjectManager::ScanExtent(
    const std::string& class_name, bool include_subclasses,
    const std::vector<std::string>& exclude, const SnapshotView& snap,
    const std::function<Status(Oid, const MoodValue&)>& fn) const {
  return ForEachScannedExtent(
      class_name, include_subclasses, exclude,
      [&](const std::string& cls, uint32_t file, HeapFile* extent) {
        MOOD_RETURN_IF_ERROR(extent->Scan([&](RecordId rid, const std::string& rec) {
          return EmitVisible(file, snap, rid, rec, fn);
        }));
        return SnapshotLeftovers(cls, snap, fn);
      });
}

Status ObjectManager::ScanExtentOids(const std::string& class_name,
                                     bool include_subclasses,
                                     const std::vector<std::string>& exclude,
                                     const SnapshotView& snap,
                                     const std::function<Status(Oid)>& fn) const {
  return ForEachScannedExtent(
      class_name, include_subclasses, exclude,
      [&](const std::string& cls, uint32_t file, HeapFile* extent) {
        MOOD_RETURN_IF_ERROR(extent->Scan([&](RecordId rid, const std::string&) {
          return EmitVisibleOid(file, snap, rid, fn);
        }));
        return SnapshotLeftovers(cls, snap,
                                 [&](Oid oid, const MoodValue&) { return fn(oid); });
      });
}

Status ObjectManager::SnapshotLeftovers(
    const std::string& class_name, const SnapshotView& snap,
    const std::function<Status(Oid, const MoodValue&)>& fn) const {
  if (!snap.active()) return Status::OK();
  MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(class_name));
  uint16_t file = static_cast<uint16_t>(type->extent_file);
  if (!snap.versions->FileHasVersions(file)) return Status::OK();
  uint64_t emitted = 0;
  for (Oid oid : snap.versions->HeapAbsentOids(file)) {
    VersionStore::Version v;
    if (!snap.versions->VisibleVersion(oid, snap.csn, &v) || v.absent) continue;
    emitted++;
    MOOD_RETURN_IF_ERROR(fn(oid, *v.tuple));
  }
  if (emitted > 0) snap.versions->NoteInjected(emitted);
  return Status::OK();
}

Result<uint64_t> ObjectManager::ExtentCount(const std::string& class_name,
                                            bool include_subclasses) const {
  std::vector<std::string> classes;
  if (include_subclasses) {
    MOOD_ASSIGN_OR_RETURN(classes, catalog_->SubtreeClasses(class_name));
  } else {
    classes.push_back(class_name);
  }
  uint64_t total = 0;
  for (const auto& cls : classes) {
    MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(cls));
    MOOD_ASSIGN_OR_RETURN(HeapFile* extent, storage_->GetFile(type->extent_file));
    total += extent->record_count();
  }
  return total;
}

Result<uint32_t> ObjectManager::ExtentPages(const std::string& class_name) const {
  MOOD_ASSIGN_OR_RETURN(HeapFile* extent, ExtentOf(class_name));
  return extent->page_count();
}

Result<bool> ObjectManager::DeepEquals(const MoodValue& a, const MoodValue& b) const {
  std::vector<std::pair<uint64_t, uint64_t>> visiting;
  return DeepEqualsRec(a, b, &visiting);
}

Result<bool> ObjectManager::DeepEqualsRec(
    const MoodValue& a, const MoodValue& b,
    std::vector<std::pair<uint64_t, uint64_t>>* visiting) const {
  if (a.kind() == ValueKind::kReference && b.kind() == ValueKind::kReference) {
    Oid oa = a.AsReference(), ob = b.AsReference();
    if (oa == ob) return true;
    auto pair = std::make_pair(oa.Pack(), ob.Pack());
    if (std::find(visiting->begin(), visiting->end(), pair) != visiting->end()) {
      return true;  // cycle: assume equal along this path
    }
    visiting->push_back(pair);
    MOOD_ASSIGN_OR_RETURN(ObjectRecord ra, Read(oa));
    MOOD_ASSIGN_OR_RETURN(ObjectRecord rb, Read(ob));
    MOOD_ASSIGN_OR_RETURN(bool eq, DeepEqualsRec(*ra.tuple, *rb.tuple, visiting));
    visiting->pop_back();
    return eq;
  }
  if (a.kind() != b.kind()) return a.Equals(b);  // numeric cross-kind etc.
  switch (a.kind()) {
    case ValueKind::kTuple:
    case ValueKind::kList: {
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); i++) {
        MOOD_ASSIGN_OR_RETURN(bool eq,
                              DeepEqualsRec(a.elements()[i], b.elements()[i], visiting));
        if (!eq) return false;
      }
      return true;
    }
    case ValueKind::kSet: {
      if (a.size() != b.size()) return false;
      std::vector<bool> used(b.size(), false);
      for (const auto& ea : a.elements()) {
        bool matched = false;
        for (size_t j = 0; j < b.size(); j++) {
          if (used[j]) continue;
          MOOD_ASSIGN_OR_RETURN(bool eq, DeepEqualsRec(ea, b.elements()[j], visiting));
          if (eq) {
            used[j] = true;
            matched = true;
            break;
          }
        }
        if (!matched) return false;
      }
      return true;
    }
    default:
      return a.Equals(b);
  }
}

Status ObjectManager::UndoIndexWrites(uint64_t batch) {
  Status first;
  for (const auto& [oid, pre] : versions_->PendingOf(batch)) {
    Result<ObjectRecord> current = Read(oid);
    if (!current.ok() && !current.status().IsNotFound()) {
      if (first.ok()) first = current.status();
      continue;
    }
    if (!current.ok() && pre.absent) continue;  // created and deleted by the batch
    Result<std::string> class_name =
        ClassNameOf(current.ok() ? current.value().type_id : pre.type_id);
    if (!class_name.ok()) {
      if (first.ok()) first = class_name.status();
      continue;
    }
    Status st = MaintainIndexes(class_name.value(), oid,
                                current.ok() ? current.value().tuple.get() : nullptr,
                                pre.absent ? nullptr : pre.tuple.get());
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Status ObjectManager::MaintainIndexes(const std::string& class_name, Oid oid,
                                      const MoodValue* old_tuple,
                                      const MoodValue* new_tuple) {
  auto descs = catalog_->IndexesOn(class_name);
  if (descs.empty()) return Status::OK();
  MOOD_ASSIGN_OR_RETURN(auto attrs, catalog_->AllAttributes(class_name));
  auto attr_value = [&](const MoodValue* tuple, const std::string& attr)
      -> const MoodValue* {
    if (tuple == nullptr) return nullptr;
    for (size_t i = 0; i < attrs.size(); i++) {
      if (attrs[i].name == attr) {
        return i < tuple->size() ? &tuple->elements()[i] : nullptr;
      }
    }
    return nullptr;
  };

  for (const auto& d : descs) {
    switch (d.kind) {
      case IndexKind::kBTree: {
        MOOD_ASSIGN_OR_RETURN(BPlusTree * tree, OpenBTree(d));
        const MoodValue* ov = attr_value(old_tuple, d.attribute);
        const MoodValue* nv = attr_value(new_tuple, d.attribute);
        if (ov != nullptr && nv != nullptr && ov->Equals(*nv)) break;
        if (ov != nullptr) {
          MOOD_RETURN_IF_ERROR(tree->Delete(MakeIndexKey(*ov), oid.Pack()));
        }
        if (nv != nullptr) {
          MOOD_RETURN_IF_ERROR(tree->Insert(MakeIndexKey(*nv), oid.Pack()));
        }
        break;
      }
      case IndexKind::kHash: {
        MOOD_ASSIGN_OR_RETURN(HashIndex * hash, OpenHash(d));
        const MoodValue* ov = attr_value(old_tuple, d.attribute);
        const MoodValue* nv = attr_value(new_tuple, d.attribute);
        if (ov != nullptr && nv != nullptr && ov->Equals(*nv)) break;
        if (ov != nullptr) {
          MOOD_RETURN_IF_ERROR(hash->Delete(MakeIndexKey(*ov), oid.Pack()));
        }
        if (nv != nullptr) {
          MOOD_RETURN_IF_ERROR(hash->Insert(MakeIndexKey(*nv), oid.Pack()));
        }
        break;
      }
      case IndexKind::kBinaryJoin: {
        MOOD_ASSIGN_OR_RETURN(BinaryJoinIndex * bji, OpenJoinIndex(d));
        const MoodValue* ov = attr_value(old_tuple, d.attribute);
        const MoodValue* nv = attr_value(new_tuple, d.attribute);
        auto each_ref = [](const MoodValue* v,
                           const std::function<Status(Oid)>& cb) -> Status {
          if (v == nullptr || v->is_null()) return Status::OK();
          if (v->kind() == ValueKind::kReference) return cb(v->AsReference());
          if (v->IsCollection()) {
            for (const auto& e : v->elements()) {
              if (e.kind() == ValueKind::kReference) MOOD_RETURN_IF_ERROR(cb(e.AsReference()));
            }
          }
          return Status::OK();
        };
        if (ov != nullptr && nv != nullptr && ov->Equals(*nv)) break;
        MOOD_RETURN_IF_ERROR(
            each_ref(ov, [&](Oid target) { return bji->Remove(oid, target); }));
        MOOD_RETURN_IF_ERROR(
            each_ref(nv, [&](Oid target) { return bji->Add(oid, target); }));
        break;
      }
      case IndexKind::kRTree:
        // Spatial indexes are maintained by their builders (matching the
        // paper's standalone indexing tools).
        break;
    }
  }
  return Status::OK();
}

Status ObjectManager::CreateAttributeIndex(const std::string& index_name,
                                           const std::string& class_name,
                                           const std::string& attribute,
                                           IndexKind kind, bool unique) {
  if (kind != IndexKind::kBTree && kind != IndexKind::kHash) {
    return Status::InvalidArgument("CreateAttributeIndex supports BTree/Hash only");
  }
  MOOD_ASSIGN_OR_RETURN(AttributeLayoutPtr layout, LayoutOf(class_name));
  MOOD_ASSIGN_OR_RETURN(size_t idx, layout->Ordinal(attribute));
  IndexDesc desc;
  desc.name = index_name;
  desc.class_name = class_name;
  desc.attribute = attribute;
  desc.kind = kind;
  desc.unique = unique;
  if (kind == IndexKind::kBTree) {
    MOOD_ASSIGN_OR_RETURN(auto tree,
                          BPlusTree::Create(storage_->buffer_pool(), storage_, unique));
    desc.meta1 = tree->meta_page();
    btrees_[index_name] = std::move(tree);
  } else {
    MOOD_ASSIGN_OR_RETURN(auto hash, HashIndex::Create(storage_->buffer_pool(), storage_));
    desc.meta1 = hash->meta_page();
    hashes_[index_name] = std::move(hash);
  }
  MOOD_RETURN_IF_ERROR(catalog_->RegisterIndex(desc));
  // Bulk load existing instances (own extent only: subclass instances live in
  // their own extents and need their own indexes).
  return ScanExtent(class_name, false, {}, [&](Oid oid, const MoodValue& tuple) {
    if (idx >= tuple.size()) return Status::OK();
    const MoodValue& v = tuple.elements()[idx];
    if (kind == IndexKind::kBTree) {
      return btrees_[index_name]->Insert(MakeIndexKey(v), oid.Pack());
    }
    return hashes_[index_name]->Insert(MakeIndexKey(v), oid.Pack());
  });
}

Status ObjectManager::CreateBinaryJoinIndex(const std::string& index_name,
                                            const std::string& class_name,
                                            const std::string& attribute) {
  MOOD_ASSIGN_OR_RETURN(AttributeLayoutPtr layout, LayoutOf(class_name));
  MOOD_ASSIGN_OR_RETURN(size_t idx, layout->Ordinal(attribute));
  MOOD_ASSIGN_OR_RETURN(auto bji,
                        BinaryJoinIndex::Create(storage_->buffer_pool(), storage_));
  IndexDesc desc;
  desc.name = index_name;
  desc.class_name = class_name;
  desc.attribute = attribute;
  desc.kind = IndexKind::kBinaryJoin;
  desc.meta1 = bji->forward_meta();
  desc.meta2 = bji->backward_meta();
  BinaryJoinIndex* raw = bji.get();
  bjis_[index_name] = std::move(bji);
  MOOD_RETURN_IF_ERROR(catalog_->RegisterIndex(desc));
  return ScanExtent(class_name, false, {}, [&](Oid oid, const MoodValue& tuple) {
    if (idx >= tuple.size()) return Status::OK();
    const MoodValue& v = tuple.elements()[idx];
    if (v.kind() == ValueKind::kReference) return raw->Add(oid, v.AsReference());
    if (v.IsCollection()) {
      for (const auto& e : v.elements()) {
        if (e.kind() == ValueKind::kReference) {
          MOOD_RETURN_IF_ERROR(raw->Add(oid, e.AsReference()));
        }
      }
    }
    return Status::OK();
  });
}

Status ObjectManager::ChaseRefs(Oid from, const std::vector<std::string>& path,
                                DerefCache* cache,
                                const std::function<Status(Oid)>& fn) const {
  return ChaseFrom(from, path, 0, cache, fn);
}

Status ObjectManager::ChaseFrom(Oid oid, const std::vector<std::string>& path,
                                size_t depth, DerefCache* cache,
                                const std::function<Status(Oid)>& fn) const {
  if (depth == path.size()) return fn(oid);
  MOOD_ASSIGN_OR_RETURN(MoodValue v, GetAttribute(oid, path[depth], cache));
  auto handle = [&](const MoodValue& r) -> Status {
    if (r.is_null()) return Status::OK();
    if (r.kind() != ValueKind::kReference) {
      return Status::TypeError("reference path step '" + path[depth] +
                               "' reached a non-reference value");
    }
    return ChaseFrom(r.AsReference(), path, depth + 1, cache, fn);
  };
  if (v.IsCollection()) {
    for (const auto& e : v.elements()) MOOD_RETURN_IF_ERROR(handle(e));
    return Status::OK();
  }
  return handle(v);
}

Result<BPlusTree*> ObjectManager::OpenBTree(const IndexDesc& desc) {
  std::lock_guard<std::mutex> lock(index_cache_mu_);
  auto it = btrees_.find(desc.name);
  if (it != btrees_.end()) return it->second.get();
  MOOD_ASSIGN_OR_RETURN(auto tree,
                        BPlusTree::Open(storage_->buffer_pool(), storage_, desc.meta1));
  BPlusTree* raw = tree.get();
  btrees_[desc.name] = std::move(tree);
  return raw;
}

Result<HashIndex*> ObjectManager::OpenHash(const IndexDesc& desc) {
  std::lock_guard<std::mutex> lock(index_cache_mu_);
  auto it = hashes_.find(desc.name);
  if (it != hashes_.end()) return it->second.get();
  MOOD_ASSIGN_OR_RETURN(auto hash,
                        HashIndex::Open(storage_->buffer_pool(), storage_, desc.meta1));
  HashIndex* raw = hash.get();
  hashes_[desc.name] = std::move(hash);
  return raw;
}

Result<BinaryJoinIndex*> ObjectManager::OpenJoinIndex(const IndexDesc& desc) {
  std::lock_guard<std::mutex> lock(index_cache_mu_);
  auto it = bjis_.find(desc.name);
  if (it != bjis_.end()) return it->second.get();
  MOOD_ASSIGN_OR_RETURN(auto bji, BinaryJoinIndex::Open(storage_->buffer_pool(),
                                                        storage_, desc.meta1, desc.meta2));
  BinaryJoinIndex* raw = bji.get();
  bjis_[desc.name] = std::move(bji);
  return raw;
}

void ObjectManager::RegisterMetrics(MetricsRegistry* registry) const {
  registry->RegisterProbe(
      "objects", [this](std::vector<std::pair<std::string, double>>* out) {
        uint64_t epochs = 0;
        for (const auto& e : write_epochs_) {
          epochs += e.load(std::memory_order_relaxed);
        }
        out->emplace_back("objects.created",
                          static_cast<double>(
                              objects_created_.load(std::memory_order_relaxed)));
        out->emplace_back("objects.deleted",
                          static_cast<double>(
                              objects_deleted_.load(std::memory_order_relaxed)));
        out->emplace_back(
            "objects.deref_cache.hits",
            static_cast<double>(deref_hits_.load(std::memory_order_relaxed)));
        out->emplace_back(
            "objects.deref_cache.misses",
            static_cast<double>(deref_misses_.load(std::memory_order_relaxed)));
        out->emplace_back("objects.write_epochs", static_cast<double>(epochs));
        {
          std::lock_guard<std::mutex> lock(index_cache_mu_);
          out->emplace_back("objects.open_indexes",
                            static_cast<double>(btrees_.size() + hashes_.size() +
                                                bjis_.size()));
        }
      });
}

}  // namespace mood
