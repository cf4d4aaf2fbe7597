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

/// FieldOf on an encoded tuple: decodes field `idx` alone, skipping the
/// fields before it (MoodValue::Skip) and never touching those after it.
Result<MoodValue> DecodeField(Slice tuple, const AttributeLayout& layout, size_t idx) {
  if (tuple.size() < 5 || static_cast<ValueKind>(tuple[0]) != ValueKind::kTuple) {
    return Status::Corruption("object record holds no tuple");
  }
  if (idx >= DecodeFixed32(tuple.data() + 1)) return layout.attrs[idx].type->DefaultValue();
  tuple.remove_prefix(5);
  for (size_t i = 0; i < idx; i++) MOOD_RETURN_IF_ERROR(MoodValue::Skip(&tuple));
  return MoodValue::Decode(&tuple);
}

/// The snapshot visibility rule for one object, shared by scans and reads.
enum class Visibility {
  kHeap,      ///< serve the heap record
  kPreImage,  ///< updated since the snapshot: serve the version in `*v`
  kHidden,    ///< created after the snapshot: skip it
};

Visibility VisibleAt(const SnapshotView& snap, Oid oid, VersionStore::Version* v) {
  if (!snap.Versioned(oid.file) || !snap.versions->VisibleVersion(oid, snap.csn, v)) {
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

/// VisibleAt for one object read: fills `*record` with the version `snap`
/// sees when the version store decides it (NotFound for an object the
/// snapshot does not see) and leaves `record->tuple` null when the heap record
/// is the visible state. The version store answers first because it decides
/// visibility for deleted objects (a heap read would report NotFound) and
/// supplies pre-images of objects written after the snapshot. Read and
/// ReadField call it only when SnapshotView::Versioned holds, so a read on a
/// version-free file makes no call here.
Status VersionAt(const SnapshotView& snap, Oid oid, ObjectRecord* record) {
  VersionStore::Version v;
  switch (VisibleAt(snap, oid, &v)) {
    case Visibility::kHidden:
      return Status::NotFound("object " + oid.ToString() + " not visible at reader snapshot");
    case Visibility::kPreImage:
      record->type_id = v.type_id;
      record->tuple = std::move(v.tuple);
      break;
    case Visibility::kHeap:
      break;
  }
  return Status::OK();
}

/// Where one grouped read's attribute sits in instances of each type id it
/// meets, resolved once per distinct type id. An instance of exactly
/// `expected`'s class uses the bound ordinal; any other class (a subclass
/// behind a statically-typed reference has its own flattened layout, which
/// may order inherited attributes differently) re-resolves by name.
class FieldLocator {
 public:
  FieldLocator(const ObjectManager& objects, const AttributeLayout* expected,
               uint32_t ordinal, const std::string& name)
      : objects_(objects), expected_(expected), ordinal_(ordinal), name_(name) {}

  /// The field of an instance of `type_id` from its encoded tuple.
  Result<MoodValue> Decode(TypeId type_id, Slice tuple) {
    MOOD_ASSIGN_OR_RETURN(auto at, Locate(type_id));
    return DecodeField(tuple, *at.first, at.second);
  }
  /// The field of a decoded record.
  Result<MoodValue> Field(const ObjectRecord& record) {
    MOOD_ASSIGN_OR_RETURN(auto at, Locate(record.type_id));
    return FieldOf(record, *at.first, at.second);
  }

 private:
  /// One resolved type id: its layout and the attribute's position in it
  /// (null layout: LayoutOf failed; negative pos: the class lacks `name_`).
  struct Entry {
    TypeId type_id = kInvalidTypeId;
    AttributeLayoutPtr layout;
    int pos = -1;
  };

  Result<std::pair<const AttributeLayout*, size_t>> Locate(TypeId type_id) {
    if (expected_ != nullptr && type_id == expected_->type_id) {
      return std::make_pair(expected_, size_t{ordinal_});
    }
    const Entry& e = Find(type_id);
    // The failures are rare: their statuses are rebuilt rather than kept.
    if (e.layout == nullptr) return objects_.LayoutOf(type_id).status();
    if (e.pos < 0) return e.layout->Ordinal(name_).status();
    return std::make_pair(e.layout.get(), static_cast<size_t>(e.pos));
  }

  /// The entry of `type_id`, resolved through LayoutOf on first use. The
  /// first lives inline, so a one-item read allocates nothing.
  const Entry& Find(TypeId type_id) {
    if (count_ > 0 && first_.type_id == type_id) return first_;
    for (const Entry& e : more_) {
      if (e.type_id == type_id) return e;
    }
    Entry& e = count_++ == 0 ? first_ : more_.emplace_back();
    e.type_id = type_id;
    Result<AttributeLayoutPtr> layout = objects_.LayoutOf(type_id);
    if (layout.ok()) {
      e.layout = std::move(layout).value();
      e.pos = e.layout->OrdinalOf(name_);
    }
    return e;
  }

  const ObjectManager& objects_;
  const AttributeLayout* expected_;
  uint32_t ordinal_;
  const std::string& name_;
  Entry first_;
  std::vector<Entry> more_;  // distinct type ids after the first
  size_t count_ = 0;
};

}  // namespace

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

Result<ObjectRecord> ObjectManager::Read(Oid oid, const SnapshotView& snap) const {
  if (!oid.valid()) return Status::InvalidArgument("null object identifier");
  ObjectRecord record;
  if (snap.Versioned(oid.file)) {
    MOOD_RETURN_IF_ERROR(VersionAt(snap, oid, &record));
  }
  if (record.tuple != nullptr) return record;
  MOOD_ASSIGN_OR_RETURN(HeapFile* file, storage_->GetFile(oid.file));
  MOOD_RETURN_IF_ERROR(file->Visit(RecordId{oid.page, oid.slot}, [&](Slice rec) {
    MOOD_ASSIGN_OR_RETURN(auto decoded, DecodeObjectRecord(rec));
    record.type_id = decoded.first;
    record.tuple = std::make_shared<const MoodValue>(std::move(decoded.second));
    return Status::OK();
  }));
  return record;
}

Result<MoodValue> ObjectManager::Fetch(Oid oid, const SnapshotView& snap) const {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord record, Read(oid, snap));
  return *record.tuple;
}

Result<std::string> ObjectManager::ClassNameOf(TypeId type_id) const {
  std::string name = catalog_->typeName(type_id);
  if (name.empty()) return Status::CatalogError("object has unknown type id");
  return name;
}

Result<std::string> ObjectManager::ClassOf(Oid oid, const SnapshotView& snap) const {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord record, Read(oid, snap));
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
                                              const SnapshotView& snap) const {
  return ReadField(oid, nullptr, 0, attr, snap);
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
                                                       const SnapshotView& snap) const {
  return ReadField(oid, &expected, ordinal, expected.attrs[ordinal].name, snap);
}

Result<MoodValue> ObjectManager::ReadField(Oid oid, const AttributeLayout* expected,
                                           uint32_t ordinal, const std::string& name,
                                           const SnapshotView& snap) const {
  FieldRead item{oid, 0};
  MoodValue value;
  Status st;
  ReadFields({&item, 1}, expected, ordinal, name, snap, &value, &st);
  if (!st.ok()) return st;
  return value;
}

void ObjectManager::ReadFields(std::span<FieldRead> items, const AttributeLayout* expected,
                               uint32_t ordinal, const std::string& name,
                               const SnapshotView& snap, MoodValue* values,
                               Status* errors) const {
  // Null identifiers fail up front; the rest are read in (file, page, slot)
  // order.
  size_t n = 0;
  for (const FieldRead& item : items) {
    if (item.oid.valid()) {
      items[n++] = item;
    } else {
      errors[item.row] = Status::InvalidArgument("null object identifier");
    }
  }
  items = items.first(n);
  if (n > 1) {
    std::sort(items.begin(), items.end(), [](const FieldRead& a, const FieldRead& b) {
      return a.oid.Pack() < b.oid.Pack();
    });
  }
  FieldLocator locator(*this, expected, ordinal, name);
  auto put = [&](uint32_t row, Result<MoodValue>&& field) {
    if (field.ok()) {
      values[row] = std::move(field).value();
      if (!errors[row].ok()) errors[row] = Status::OK();
    } else {
      errors[row] = field.status();
    }
  };
  while (!items.empty()) {
    const uint16_t file_id = items.front().oid.file;
    size_t len = 1;
    while (len < items.size() && items[len].oid.file == file_id) len++;
    std::span<FieldRead> run = items.first(len);
    items = items.subspan(len);
    // The version store answers first where it decides what `snap` sees;
    // the items it leaves to the heap stay in order at the front of `run`.
    if (snap.Versioned(file_id)) {
      size_t heap = 0;
      for (const FieldRead& item : run) {
        ObjectRecord version;
        Status st = VersionAt(snap, item.oid, &version);
        if (!st.ok()) {
          errors[item.row] = std::move(st);
        } else if (version.tuple != nullptr) {
          put(item.row, locator.Field(version));
        } else {
          run[heap++] = item;
        }
      }
      run = run.first(heap);
    }
    Result<HeapFile*> file = storage_->GetFile(file_id);
    if (!file.ok()) {
      for (const FieldRead& item : run) errors[item.row] = file.status();
      continue;
    }
    (*file)->VisitSorted(
        run.size(), [&](size_t j) { return RecordId{run[j].oid.page, run[j].oid.slot}; },
        [&](size_t j, const Result<Slice>& rec) {
          const uint32_t row = run[j].row;
          if (!rec.ok()) {
            errors[row] = rec.status();
          } else if (rec->size() < 4) {
            errors[row] = Status::Corruption("short object record");
          } else {
            put(row, locator.Decode(DecodeFixed32(rec->data()),
                                    Slice(rec->data() + 4, rec->size() - 4)));
          }
        });
  }
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
    const std::string& class_name, PageId page, const SnapshotView& snap,
    const std::function<Status(Oid, const MoodValue&)>& fn) const {
  MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(class_name));
  MOOD_ASSIGN_OR_RETURN(HeapFile* extent, storage_->GetFile(type->extent_file));
  return extent
      ->ScanPage(page,
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
        MOOD_RETURN_IF_ERROR(extent->ScanIds(
            [&](RecordId rid) { return EmitVisibleOid(file, snap, rid, fn); }));
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

Status ObjectManager::ChaseRefs(const std::vector<Oid>& from,
                                const std::vector<std::string>& path,
                                const SnapshotView& snap,
                                const std::function<Status(size_t, Oid)>& fn) const {
  // One hop's frontier in depth-first order: (index into `from`, object).
  // `first_error` is the earliest failure in that order found so far; the
  // frontier keeps only the nodes before it, which is all a depth-first
  // chase would visit before failing.
  struct Node {
    size_t from;
    Oid oid;
  };
  std::vector<Node> frontier(from.size());
  for (size_t i = 0; i < from.size(); i++) frontier[i] = {i, from[i]};
  Status first_error;
  std::vector<Node> next;
  std::vector<FieldRead> items;
  std::vector<MoodValue> values;
  std::vector<Status> errors;
  for (const std::string& step : path) {
    if (frontier.empty()) break;
    const size_t n = frontier.size();
    items.resize(n);
    for (size_t j = 0; j < n; j++) items[j] = {frontier[j].oid, static_cast<uint32_t>(j)};
    values.resize(n);
    errors.resize(n);
    ReadFields(items, nullptr, 0, step, snap, values.data(), errors.data());
    next.clear();
    auto follow = [&](size_t j, const MoodValue& r) -> Status {
      if (r.is_null()) return Status::OK();
      if (r.kind() != ValueKind::kReference) {
        return Status::TypeError("reference path step '" + step +
                                 "' reached a non-reference value");
      }
      next.push_back({frontier[j].from, r.AsReference()});
      return Status::OK();
    };
    for (size_t j = 0; j < n; j++) {
      Status st = std::move(errors[j]);
      if (st.ok() && values[j].IsCollection()) {
        for (const MoodValue& e : values[j].elements()) {
          st = follow(j, e);
          if (!st.ok()) break;
        }
      } else if (st.ok()) {
        st = follow(j, values[j]);
      }
      if (!st.ok()) {
        first_error = std::move(st);
        break;
      }
    }
    frontier.swap(next);
  }
  for (const Node& node : frontier) MOOD_RETURN_IF_ERROR(fn(node.from, node.oid));
  return first_error;
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
