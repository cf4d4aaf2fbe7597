#include "objects/object_manager.h"

#include <algorithm>
#include <optional>
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
    if (versions_ == nullptr) return;
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
    if (versions_ == nullptr || !own_) return;
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

}  // namespace

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

bool DerefCache::Lookup(Oid oid, uint64_t epoch, Snapshot* out) {
  if (capacity_ == 0) return false;
  uint64_t key = oid.Pack();
  Stripe& stripe = StripeOf(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(key);
  if (it == stripe.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (it->second.epoch != epoch) {
    stripe.map.erase(it);  // stale: a write landed since this was cached
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  *out = it->second.snap;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void DerefCache::Insert(Oid oid, uint64_t epoch, const Snapshot& snap) {
  if (capacity_ == 0) return;
  uint64_t key = oid.Pack();
  Stripe& stripe = StripeOf(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  size_t per_stripe = capacity_ / kStripes;
  if (per_stripe == 0) per_stripe = 1;
  if (stripe.map.size() >= per_stripe && stripe.map.find(key) == stripe.map.end()) {
    // Arbitrary-entry eviction: per-query lifetime makes recency tracking not
    // worth its bookkeeping.
    stripe.map.erase(stripe.map.begin());
  }
  stripe.map[key] = Entry{epoch, snap};
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
  CommitGate::ExclusiveGuard gate(versions_ ? &versions_->gate() : nullptr);
  MOOD_ASSIGN_OR_RETURN(RecordId rid, extent->Insert(rec, wal));
  batch.NoteHeapWrite();
  Oid oid;
  oid.file = static_cast<uint16_t>(type->extent_file);
  oid.page = rid.page;
  oid.slot = rid.slot;
  if (versions_ != nullptr) {
    versions_->CapturePending(batch.batch(), oid, /*absent_before=*/true, 0, nullptr,
                              /*live_after=*/true);
  }
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

Result<DerefCache::Snapshot> ObjectManager::FetchSnapshot(Oid oid,
                                                          DerefCache* cache) const {
  if (!oid.valid()) return Status::InvalidArgument("null object identifier");
  // Epoch before the read: a write racing the read can at worst tag a fresh
  // value with a pre-write epoch, which later lookups treat as stale.
  uint64_t epoch = WriteEpochOf(oid.file);
  DerefCache::Snapshot snap;
  if (cache != nullptr && cache->Lookup(oid, epoch, &snap)) return snap;
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
        snap.type_id = v.type_id;
        snap.tuple = std::move(v.tuple);
        cache->Insert(oid, epoch, snap);
        return snap;
      }
    }
  }
  MOOD_ASSIGN_OR_RETURN(HeapFile* file, storage_->GetFile(oid.file));
  MOOD_ASSIGN_OR_RETURN(std::string rec, file->Get(RecordId{oid.page, oid.slot}));
  MOOD_ASSIGN_OR_RETURN(auto decoded, DecodeObjectRecord(rec));
  snap.type_id = decoded.first;
  snap.tuple = std::make_shared<const MoodValue>(std::move(decoded.second));
  if (cache != nullptr) cache->Insert(oid, epoch, snap);
  return snap;
}

Result<MoodValue> ObjectManager::Fetch(Oid oid, DerefCache* cache) const {
  if (cache == nullptr) {
    // Uncached fast path: skip the shared_ptr allocation.
    if (!oid.valid()) return Status::InvalidArgument("null object identifier");
    MOOD_ASSIGN_OR_RETURN(HeapFile* file, storage_->GetFile(oid.file));
    MOOD_ASSIGN_OR_RETURN(std::string rec, file->Get(RecordId{oid.page, oid.slot}));
    MOOD_ASSIGN_OR_RETURN(auto decoded, DecodeObjectRecord(rec));
    return std::move(decoded.second);
  }
  MOOD_ASSIGN_OR_RETURN(DerefCache::Snapshot snap, FetchSnapshot(oid, cache));
  return *snap.tuple;
}

Result<std::string> ObjectManager::ClassOf(Oid oid) const {
  MOOD_ASSIGN_OR_RETURN(HeapFile* file, storage_->GetFile(oid.file));
  MOOD_ASSIGN_OR_RETURN(std::string rec, file->Get(RecordId{oid.page, oid.slot}));
  if (rec.size() < 4) return Status::Corruption("short object record");
  TypeId id = DecodeFixed32(rec.data());
  std::string name = catalog_->typeName(id);
  if (name.empty()) return Status::CatalogError("object has unknown type id");
  return name;
}

Result<std::string> ObjectManager::ClassOf(Oid oid, DerefCache* cache) const {
  if (cache == nullptr) return ClassOf(oid);
  if (!oid.valid()) return Status::InvalidArgument("null object identifier");
  MOOD_ASSIGN_OR_RETURN(DerefCache::Snapshot snap, FetchSnapshot(oid, cache));
  std::string name = catalog_->typeName(snap.type_id);
  if (name.empty()) return Status::CatalogError("object has unknown type id");
  return name;
}

Status ObjectManager::UpdateObject(Oid oid, MoodValue tuple, PageWriteLogger* wal,
                                   uint64_t version_batch) {
  MOOD_ASSIGN_OR_RETURN(std::string class_name, ClassOf(oid));
  MOOD_ASSIGN_OR_RETURN(MoodValue old_tuple, Fetch(oid));
  MOOD_ASSIGN_OR_RETURN(tuple, PadToSchema(class_name, std::move(tuple)));
  MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(class_name));
  MOOD_ASSIGN_OR_RETURN(HeapFile* extent, ExtentOf(class_name));
  std::string rec;
  EncodeObjectRecord(type->id, tuple, &rec);
  BatchScope batch(versions_, wal, version_batch);
  CommitGate::ExclusiveGuard gate(versions_ ? &versions_->gate() : nullptr);
  MOOD_RETURN_IF_ERROR(extent->Update(RecordId{oid.page, oid.slot}, rec, wal));
  batch.NoteHeapWrite();
  if (versions_ != nullptr) {
    // Capture only after the page write succeeded, inside the exclusive gate
    // section — readers cannot observe the gap between write and capture.
    versions_->CapturePending(batch.batch(), oid, /*absent_before=*/false, type->id,
                              std::make_shared<const MoodValue>(old_tuple),
                              /*live_after=*/true);
  }
  Status st = MaintainIndexes(class_name, oid, &old_tuple, &tuple);
  // After the write so a concurrent reader cannot cache the old value under
  // the new epoch.
  BumpWriteEpoch(oid.file);
  if (write_observer_) write_observer_(oid.file, oid);
  return st;
}

Result<int> ObjectManager::AttrIndex(const std::string& class_name,
                                     const std::string& attr) const {
  MOOD_ASSIGN_OR_RETURN(auto attrs, catalog_->AllAttributes(class_name));
  for (size_t i = 0; i < attrs.size(); i++) {
    if (attrs[i].name == attr) return static_cast<int>(i);
  }
  return Status::NotFound("class '" + class_name + "' has no attribute '" + attr + "'");
}

Status ObjectManager::SetAttribute(Oid oid, const std::string& attr, MoodValue value,
                                   PageWriteLogger* wal, uint64_t version_batch) {
  MOOD_ASSIGN_OR_RETURN(std::string class_name, ClassOf(oid));
  MOOD_ASSIGN_OR_RETURN(int idx, AttrIndex(class_name, attr));
  MOOD_ASSIGN_OR_RETURN(MoodValue tuple, Fetch(oid));
  MOOD_ASSIGN_OR_RETURN(tuple, PadToSchema(class_name, std::move(tuple)));
  tuple.mutable_elements()[static_cast<size_t>(idx)] = std::move(value);
  return UpdateObject(oid, std::move(tuple), wal, version_batch);
}

Status ObjectManager::DeleteObject(Oid oid, PageWriteLogger* wal,
                                   uint64_t version_batch) {
  MOOD_ASSIGN_OR_RETURN(std::string class_name, ClassOf(oid));
  MOOD_ASSIGN_OR_RETURN(MoodValue old_tuple, Fetch(oid));
  MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(class_name));
  MOOD_ASSIGN_OR_RETURN(HeapFile* extent, ExtentOf(class_name));
  BatchScope batch(versions_, wal, version_batch);
  CommitGate::ExclusiveGuard gate(versions_ ? &versions_->gate() : nullptr);
  MOOD_RETURN_IF_ERROR(extent->Delete(RecordId{oid.page, oid.slot}, wal));
  batch.NoteHeapWrite();
  if (versions_ != nullptr) {
    versions_->CapturePending(batch.batch(), oid, /*absent_before=*/false, type->id,
                              std::make_shared<const MoodValue>(old_tuple),
                              /*live_after=*/false);
  }
  Status st = MaintainIndexes(class_name, oid, &old_tuple, nullptr);
  BumpWriteEpoch(oid.file);
  if (write_observer_) write_observer_(oid.file, oid);
  objects_deleted_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Result<MoodValue> ObjectManager::GetAttribute(Oid oid, const std::string& attr,
                                              DerefCache* cache) const {
  if (cache == nullptr) {
    MOOD_ASSIGN_OR_RETURN(std::string class_name, ClassOf(oid));
    MOOD_ASSIGN_OR_RETURN(int idx, AttrIndex(class_name, attr));
    MOOD_ASSIGN_OR_RETURN(MoodValue tuple, Fetch(oid));
    if (static_cast<size_t>(idx) >= tuple.size()) {
      // Object predates a schema change; the attribute takes its default.
      MOOD_ASSIGN_OR_RETURN(auto attrs, catalog_->AllAttributes(class_name));
      return attrs[static_cast<size_t>(idx)].type->DefaultValue();
    }
    MOOD_ASSIGN_OR_RETURN(const MoodValue* f, tuple.Field(static_cast<size_t>(idx)));
    return *f;
  }
  // Cached path: one snapshot serves both the class lookup and the tuple, so
  // even a cache miss costs one heap read where the uncached path needs two.
  MOOD_ASSIGN_OR_RETURN(DerefCache::Snapshot snap, FetchSnapshot(oid, cache));
  std::string class_name = catalog_->typeName(snap.type_id);
  if (class_name.empty()) return Status::CatalogError("object has unknown type id");
  MOOD_ASSIGN_OR_RETURN(int idx, AttrIndex(class_name, attr));
  if (static_cast<size_t>(idx) >= snap.tuple->size()) {
    MOOD_ASSIGN_OR_RETURN(auto attrs, catalog_->AllAttributes(class_name));
    return attrs[static_cast<size_t>(idx)].type->DefaultValue();
  }
  MOOD_ASSIGN_OR_RETURN(const MoodValue* f, snap.tuple->Field(static_cast<size_t>(idx)));
  return *f;
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
  MOOD_ASSIGN_OR_RETURN(DerefCache::Snapshot snap, FetchSnapshot(oid, cache));
  size_t idx = ordinal;
  const AttributeLayout* layout = &expected;
  AttributeLayoutPtr actual;  // keepalive when the instance is a subclass
  if (snap.type_id != expected.type_id) {
    // Subclass instance behind a statically-typed reference: its flattened
    // layout may order inherited attributes differently, so re-resolve by name.
    MOOD_ASSIGN_OR_RETURN(actual, LayoutOf(snap.type_id));
    int pos = actual->OrdinalOf(expected.attrs[ordinal].name);
    if (pos < 0) {
      return Status::NotFound("class '" + actual->class_name + "' has no attribute '" +
                              expected.attrs[ordinal].name + "'");
    }
    idx = static_cast<size_t>(pos);
    layout = actual.get();
  }
  if (idx >= snap.tuple->size()) {
    // Object predates a schema change; the attribute takes its default.
    return layout->attrs[idx].type->DefaultValue();
  }
  MOOD_ASSIGN_OR_RETURN(const MoodValue* f, snap.tuple->Field(idx));
  return *f;
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
    const std::string& class_name, PageId page,
    const std::function<Status(Oid, const MoodValue&)>& fn) const {
  return ScanExtentPage(class_name, page, nullptr, fn);
}

namespace {

/// Applies the snapshot visibility rule to one scanned record: skip it (object
/// born after the snapshot), substitute its visible pre-image, or pass the
/// heap value through. `emit` receives the value to produce, or nothing.
Status EmitVisible(const SnapshotView& snap, Oid oid, const MoodValue& heap_value,
                   const std::function<Status(Oid, const MoodValue&)>& fn) {
  if (snap.active() && snap.versions->FileHasVersions(oid.file)) {
    VersionStore::Version v;
    if (snap.versions->VisibleVersion(oid, snap.csn, &v)) {
      if (v.absent) return Status::OK();  // created after the snapshot
      return fn(oid, *v.tuple);           // updated since: serve the pre-image
    }
  }
  return fn(oid, heap_value);
}

}  // namespace

Status ObjectManager::ScanExtentPage(
    const std::string& class_name, PageId page, HeapFile::ScanCursor* cursor,
    const SnapshotView& snap,
    const std::function<Status(Oid, const MoodValue&)>& fn) const {
  MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(class_name));
  MOOD_ASSIGN_OR_RETURN(HeapFile* extent, storage_->GetFile(type->extent_file));
  return extent->ScanPage(page, cursor, [&](RecordId rid, const std::string& rec) -> Status {
    MOOD_ASSIGN_OR_RETURN(auto decoded, DecodeObjectRecord(rec));
    Oid oid;
    oid.file = static_cast<uint16_t>(type->extent_file);
    oid.page = rid.page;
    oid.slot = rid.slot;
    return EmitVisible(snap, oid, decoded.second, fn);
  });
}

Status ObjectManager::ScanExtent(
    const std::string& class_name, bool include_subclasses,
    const std::vector<std::string>& exclude, const SnapshotView& snap,
    const std::function<Status(Oid, const MoodValue&)>& fn) const {
  MOOD_ASSIGN_OR_RETURN(std::vector<std::string> classes,
                        ScanClasses(class_name, include_subclasses, exclude));
  for (const auto& cls : classes) {
    MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(cls));
    MOOD_ASSIGN_OR_RETURN(HeapFile* extent, storage_->GetFile(type->extent_file));
    auto it = extent->Begin();
    for (; it.Valid(); it.Next()) {
      MOOD_ASSIGN_OR_RETURN(auto decoded, DecodeObjectRecord(it.record()));
      Oid oid;
      oid.file = static_cast<uint16_t>(type->extent_file);
      oid.page = it.rid().page;
      oid.slot = it.rid().slot;
      MOOD_RETURN_IF_ERROR(EmitVisible(snap, oid, decoded.second, fn));
    }
    MOOD_RETURN_IF_ERROR(it.status());
    MOOD_RETURN_IF_ERROR(SnapshotLeftovers(cls, snap, fn));
  }
  return Status::OK();
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
    MOOD_ASSIGN_OR_RETURN(MoodValue va, Fetch(oa));
    MOOD_ASSIGN_OR_RETURN(MoodValue vb, Fetch(ob));
    MOOD_ASSIGN_OR_RETURN(bool eq, DeepEqualsRec(va, vb, visiting));
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
  if (versions_ == nullptr) return Status::OK();
  Status first;
  for (const auto& [oid, pre] : versions_->PendingOf(batch)) {
    std::optional<MoodValue> current;
    std::string class_name = pre.absent ? "" : catalog_->typeName(pre.type_id);
    Result<std::string> cls = ClassOf(oid);
    if (!cls.ok() && !cls.status().IsNotFound()) {
      if (first.ok()) first = cls.status();
      continue;
    }
    if (cls.ok()) {
      class_name = cls.value();
      Result<MoodValue> tuple = Fetch(oid);
      if (!tuple.ok()) {
        if (first.ok()) first = tuple.status();
        continue;
      }
      current = std::move(tuple.value());
    }
    if (class_name.empty()) continue;  // created and deleted by the batch
    Status st = MaintainIndexes(class_name, oid, current ? &*current : nullptr,
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
  MOOD_RETURN_IF_ERROR(AttrIndex(class_name, attribute).status());
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
  MOOD_ASSIGN_OR_RETURN(int idx, AttrIndex(class_name, attribute));
  return ScanExtent(class_name, false, {}, [&](Oid oid, const MoodValue& tuple) {
    if (static_cast<size_t>(idx) >= tuple.size()) return Status::OK();
    const MoodValue& v = tuple.elements()[static_cast<size_t>(idx)];
    if (kind == IndexKind::kBTree) {
      return btrees_[index_name]->Insert(MakeIndexKey(v), oid.Pack());
    }
    return hashes_[index_name]->Insert(MakeIndexKey(v), oid.Pack());
  });
}

Status ObjectManager::CreateBinaryJoinIndex(const std::string& index_name,
                                            const std::string& class_name,
                                            const std::string& attribute) {
  MOOD_ASSIGN_OR_RETURN(int idx, AttrIndex(class_name, attribute));
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
    if (static_cast<size_t>(idx) >= tuple.size()) return Status::OK();
    const MoodValue& v = tuple.elements()[static_cast<size_t>(idx)];
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

Status ObjectManager::TraversePath(
    Oid root, const std::vector<std::string>& path, DerefCache* cache,
    const std::function<Status(const MoodValue&)>& fn) const {
  std::function<Status(Oid, size_t)> step = [&](Oid oid, size_t depth) -> Status {
    MOOD_ASSIGN_OR_RETURN(MoodValue v, GetAttribute(oid, path[depth], cache));
    auto handle = [&](const MoodValue& val) -> Status {
      if (depth + 1 == path.size()) return fn(val);
      if (val.is_null()) return Status::OK();  // broken path: no terminal value
      if (val.kind() != ValueKind::kReference) {
        return Status::TypeError("path step '" + path[depth] +
                                 "' is not a reference but the path continues");
      }
      return step(val.AsReference(), depth + 1);
    };
    if (v.IsCollection()) {
      for (const auto& e : v.elements()) MOOD_RETURN_IF_ERROR(handle(e));
      return Status::OK();
    }
    return handle(v);
  };
  return step(root, 0);
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
