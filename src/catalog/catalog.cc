#include "catalog/catalog.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/coding.h"

namespace mood {

namespace {

/// Catalog records live in heap file id 1 (the first file ever created in a
/// database). Record tags:
constexpr char kTagType = 'T';
constexpr char kTagIndexes = 'X';
constexpr char kTagNames = 'N';
constexpr char kTagViews = 'V';
constexpr FileId kCatalogFileId = 1;
/// IndexKind value of the removed path index (kept out of the enum).
constexpr uint32_t kRemovedPathKind = 3;

}  // namespace

std::string_view IndexKindName(IndexKind k) {
  switch (k) {
    case IndexKind::kBTree: return "BTree";
    case IndexKind::kHash: return "Hash";
    case IndexKind::kRTree: return "RTree";
    case IndexKind::kBinaryJoin: return "BinaryJoin";
  }
  return "?";
}

std::string MoodsFunction::Signature(const std::string& class_name) const {
  std::string sig = class_name + "::" + name + "(";
  for (size_t i = 0; i < params.size(); i++) {
    if (i > 0) sig += ",";
    sig += params[i].type->ToString();
  }
  sig += ")";
  return sig;
}

const MoodsFunction* MoodsType::FindFunction(const std::string& fname) const {
  for (const auto& f : functions) {
    if (f.name == fname) return &f;
  }
  return nullptr;
}

void Catalog::EncodeType(const MoodsType& t, std::string* dst) {
  dst->push_back(kTagType);
  PutFixed32(dst, t.id);
  dst->push_back(t.is_class ? 1 : 0);
  PutLengthPrefixedSlice(dst, t.name);
  PutFixed32(dst, static_cast<uint32_t>(t.supers.size()));
  for (const auto& s : t.supers) PutLengthPrefixedSlice(dst, s);
  PutFixed32(dst, static_cast<uint32_t>(t.own_attributes.size()));
  for (const auto& a : t.own_attributes) {
    PutLengthPrefixedSlice(dst, a.name);
    a.type->EncodeTo(dst);
  }
  PutFixed32(dst, static_cast<uint32_t>(t.functions.size()));
  for (const auto& f : t.functions) {
    PutLengthPrefixedSlice(dst, f.name);
    f.return_type->EncodeTo(dst);
    PutFixed32(dst, static_cast<uint32_t>(f.params.size()));
    for (const auto& p : f.params) {
      PutLengthPrefixedSlice(dst, p.name);
      p.type->EncodeTo(dst);
    }
    PutLengthPrefixedSlice(dst, f.body_source);
  }
  PutFixed32(dst, t.extent_file);
}

Result<MoodsType> Catalog::DecodeType(Slice in) {
  if (in.empty() || in[0] != kTagType) return Status::Corruption("not a type record");
  in.remove_prefix(1);
  MoodsType t;
  Decoder dec(in);
  uint32_t n = 0;
  MOOD_RETURN_IF_ERROR(dec.GetFixed32(&t.id));
  {
    Slice rest = dec.rest();
    if (rest.empty()) return Status::Corruption("truncated type record");
    t.is_class = rest[0] != 0;
    dec = Decoder(Slice(rest.data() + 1, rest.size() - 1));
  }
  MOOD_RETURN_IF_ERROR(dec.GetString(&t.name));
  MOOD_RETURN_IF_ERROR(dec.GetFixed32(&n));
  for (uint32_t i = 0; i < n; i++) {
    std::string s;
    MOOD_RETURN_IF_ERROR(dec.GetString(&s));
    t.supers.push_back(std::move(s));
  }
  MOOD_RETURN_IF_ERROR(dec.GetFixed32(&n));
  for (uint32_t i = 0; i < n; i++) {
    MoodsAttribute a;
    MOOD_RETURN_IF_ERROR(dec.GetString(&a.name));
    Slice rest = dec.rest();
    MOOD_ASSIGN_OR_RETURN(a.type, TypeDesc::Decode(&rest));
    dec = Decoder(rest);
    t.own_attributes.push_back(std::move(a));
  }
  MOOD_RETURN_IF_ERROR(dec.GetFixed32(&n));
  for (uint32_t i = 0; i < n; i++) {
    MoodsFunction f;
    MOOD_RETURN_IF_ERROR(dec.GetString(&f.name));
    Slice rest = dec.rest();
    MOOD_ASSIGN_OR_RETURN(f.return_type, TypeDesc::Decode(&rest));
    dec = Decoder(rest);
    uint32_t np = 0;
    MOOD_RETURN_IF_ERROR(dec.GetFixed32(&np));
    for (uint32_t j = 0; j < np; j++) {
      MoodsAttribute p;
      MOOD_RETURN_IF_ERROR(dec.GetString(&p.name));
      Slice prest = dec.rest();
      MOOD_ASSIGN_OR_RETURN(p.type, TypeDesc::Decode(&prest));
      dec = Decoder(prest);
      f.params.push_back(std::move(p));
    }
    MOOD_RETURN_IF_ERROR(dec.GetString(&f.body_source));
    t.functions.push_back(std::move(f));
  }
  MOOD_RETURN_IF_ERROR(dec.GetFixed32(&t.extent_file));
  return t;
}

Status Catalog::Open(StorageManager* storage) {
  storage_ = storage;
  if (!storage_->HasFile(kCatalogFileId)) {
    MOOD_ASSIGN_OR_RETURN(FileId id, storage_->CreateFile());
    if (id != kCatalogFileId) {
      return Status::Internal("catalog file must be the first file created");
    }
  }
  MOOD_ASSIGN_OR_RETURN(file_, storage_->GetFile(kCatalogFileId));
  return LoadAll();
}

Status Catalog::LoadAll() {
  by_name_.clear();
  by_id_.clear();
  indexes_.clear();
  named_objects_.clear();
  views_.clear();
  index_record_rid_ = RecordId{};
  names_record_rid_ = RecordId{};
  views_record_rid_ = RecordId{};
  next_type_id_ = kFirstUserTypeId;

  // One chain walk; any read error fails the open rather than leaving a
  // partial catalog behind.
  return file_->Scan([&](RecordId rid, const std::string& rec) -> Status {
    if (rec.empty()) return Status::OK();
    switch (rec[0]) {
      case kTagType: {
        MOOD_ASSIGN_OR_RETURN(MoodsType t, DecodeType(rec));
        auto st = std::make_unique<StoredType>();
        st->type = std::move(t);
        st->rid = rid;
        if (st->type.id >= next_type_id_) next_type_id_ = st->type.id + 1;
        by_id_[st->type.id] = st.get();
        by_name_[st->type.name] = std::move(st);
        break;
      }
      case kTagIndexes: {
        index_record_rid_ = rid;
        Decoder dec(Slice(rec.data() + 1, rec.size() - 1));
        uint32_t n = 0;
        MOOD_RETURN_IF_ERROR(dec.GetFixed32(&n));
        for (uint32_t i = 0; i < n; i++) {
          IndexDesc d;
          MOOD_RETURN_IF_ERROR(dec.GetString(&d.name));
          MOOD_RETURN_IF_ERROR(dec.GetString(&d.class_name));
          MOOD_RETURN_IF_ERROR(dec.GetString(&d.attribute));
          uint32_t kind = 0, uniq = 0;
          MOOD_RETURN_IF_ERROR(dec.GetFixed32(&kind));
          MOOD_RETURN_IF_ERROR(dec.GetFixed32(&uniq));
          MOOD_RETURN_IF_ERROR(dec.GetFixed32(&d.meta1));
          MOOD_RETURN_IF_ERROR(dec.GetFixed32(&d.meta2));
          if (kind == kRemovedPathKind) {
            return Status::NotSupported(
                "catalog holds path index '" + d.name +
                "'; path indexes are not supported (store path results with "
                "CREATE MATERIALIZED VIEW)");
          }
          d.kind = static_cast<IndexKind>(kind);
          d.unique = uniq != 0;
          indexes_[d.name] = std::move(d);
        }
        break;
      }
      case kTagNames: {
        names_record_rid_ = rid;
        Decoder dec(Slice(rec.data() + 1, rec.size() - 1));
        uint32_t n = 0;
        MOOD_RETURN_IF_ERROR(dec.GetFixed32(&n));
        for (uint32_t i = 0; i < n; i++) {
          std::string name;
          uint64_t packed = 0;
          MOOD_RETURN_IF_ERROR(dec.GetString(&name));
          MOOD_RETURN_IF_ERROR(dec.GetFixed64(&packed));
          named_objects_[name] = Oid::Unpack(packed);
        }
        break;
      }
      case kTagViews: {
        views_record_rid_ = rid;
        Decoder dec(Slice(rec.data() + 1, rec.size() - 1));
        uint32_t n = 0;
        MOOD_RETURN_IF_ERROR(dec.GetFixed32(&n));
        for (uint32_t i = 0; i < n; i++) {
          MatViewDef d;
          MOOD_RETURN_IF_ERROR(dec.GetString(&d.name));
          MOOD_RETURN_IF_ERROR(dec.GetString(&d.select_sql));
          views_[d.name] = std::move(d);
        }
        break;
      }
      default:
        return Status::Corruption("unknown catalog record tag");
    }
    return Status::OK();
  });
}

Status Catalog::PersistType(StoredType* st) {
  // Every schema mutation (Define + the MoodView class-designer operations)
  // lands here; derived layout caches revalidate against the epoch.
  BumpSchemaEpoch();
  std::string rec;
  EncodeType(st->type, &rec);
  if (st->rid.valid()) {
    return file_->Update(st->rid, rec);
  }
  MOOD_ASSIGN_OR_RETURN(st->rid, file_->Insert(rec));
  return Status::OK();
}

Status Catalog::PersistIndexes() {
  std::string rec(1, kTagIndexes);
  PutFixed32(&rec, static_cast<uint32_t>(indexes_.size()));
  for (const auto& [name, d] : indexes_) {
    PutLengthPrefixedSlice(&rec, d.name);
    PutLengthPrefixedSlice(&rec, d.class_name);
    PutLengthPrefixedSlice(&rec, d.attribute);
    PutFixed32(&rec, static_cast<uint32_t>(d.kind));
    PutFixed32(&rec, d.unique ? 1 : 0);
    PutFixed32(&rec, d.meta1);
    PutFixed32(&rec, d.meta2);
  }
  if (index_record_rid_.valid()) return file_->Update(index_record_rid_, rec);
  MOOD_ASSIGN_OR_RETURN(index_record_rid_, file_->Insert(rec));
  return Status::OK();
}

Status Catalog::PersistNames() {
  std::string rec(1, kTagNames);
  PutFixed32(&rec, static_cast<uint32_t>(named_objects_.size()));
  for (const auto& [name, oid] : named_objects_) {
    PutLengthPrefixedSlice(&rec, name);
    PutFixed64(&rec, oid.Pack());
  }
  if (names_record_rid_.valid()) return file_->Update(names_record_rid_, rec);
  MOOD_ASSIGN_OR_RETURN(names_record_rid_, file_->Insert(rec));
  return Status::OK();
}

Status Catalog::PersistViews() {
  std::string rec(1, kTagViews);
  PutFixed32(&rec, static_cast<uint32_t>(views_.size()));
  for (const auto& [name, d] : views_) {
    PutLengthPrefixedSlice(&rec, d.name);
    PutLengthPrefixedSlice(&rec, d.select_sql);
  }
  if (views_record_rid_.valid()) return file_->Update(views_record_rid_, rec);
  MOOD_ASSIGN_OR_RETURN(views_record_rid_, file_->Insert(rec));
  return Status::OK();
}

Status Catalog::RegisterView(const MatViewDef& def) {
  if (def.name.empty()) return Status::InvalidArgument("empty view name");
  if (views_.count(def.name) > 0) {
    return Status::AlreadyExists("materialized view '" + def.name +
                                 "' already defined");
  }
  if (Exists(def.name)) {
    return Status::AlreadyExists("'" + def.name + "' already names a class or type");
  }
  views_[def.name] = def;
  Status s = PersistViews();
  if (!s.ok()) {
    views_.erase(def.name);
    return s;
  }
  BumpSchemaEpoch();
  return Status::OK();
}

Status Catalog::UnregisterView(const std::string& view_name) {
  auto it = views_.find(view_name);
  if (it == views_.end()) {
    return Status::NotFound("no materialized view '" + view_name + "'");
  }
  MatViewDef saved = it->second;
  views_.erase(it);
  Status s = PersistViews();
  if (!s.ok()) {
    views_[view_name] = std::move(saved);
    return s;
  }
  BumpSchemaEpoch();
  return Status::OK();
}

std::vector<MatViewDef> Catalog::AllViews() const {
  std::vector<MatViewDef> out;
  out.reserve(views_.size());
  for (const auto& [name, d] : views_) out.push_back(d);
  return out;
}

std::optional<MatViewDef> Catalog::FindView(const std::string& view_name) const {
  auto it = views_.find(view_name);
  if (it == views_.end()) return std::nullopt;
  return it->second;
}

Status Catalog::ValidateDef(const ClassDef& def) const {
  if (def.name.empty()) return Status::InvalidArgument("empty class name");
  if (Exists(def.name)) {
    return Status::AlreadyExists("type '" + def.name + "' already defined");
  }
  std::set<std::string> seen;
  for (const auto& s : def.supers) {
    auto it = by_name_.find(s);
    if (it == by_name_.end()) {
      return Status::CatalogError("unknown superclass '" + s + "'");
    }
    if (!it->second->type.is_class) {
      return Status::CatalogError("cannot inherit from value type '" + s + "'");
    }
    MOOD_ASSIGN_OR_RETURN(auto inherited, AllAttributes(s));
    for (const auto& a : inherited) {
      if (!seen.insert(a.name).second) {
        return Status::CatalogError("attribute '" + a.name +
                                    "' inherited from multiple superclasses");
      }
    }
  }
  for (const auto& a : def.attributes) {
    if (!seen.insert(a.name).second) {
      return Status::CatalogError("duplicate attribute '" + a.name + "'");
    }
  }
  return Status::OK();
}

Result<TypeId> Catalog::Define(const ClassDef& def) {
  MOOD_RETURN_IF_ERROR(ValidateDef(def));
  auto st = std::make_unique<StoredType>();
  st->type.id = next_type_id_++;
  st->type.name = def.name;
  st->type.is_class = def.is_class;
  st->type.supers = def.supers;
  st->type.own_attributes = def.attributes;
  st->type.functions = def.methods;
  if (def.is_class) {
    MOOD_ASSIGN_OR_RETURN(st->type.extent_file, storage_->CreateFile());
  }
  MOOD_RETURN_IF_ERROR(PersistType(st.get()));
  TypeId id = st->type.id;
  by_id_[id] = st.get();
  by_name_[def.name] = std::move(st);
  return id;
}

Status Catalog::Drop(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return Status::NotFound("no type '" + name + "'");
  // Refuse when subclasses exist.
  for (const auto& [other, st] : by_name_) {
    for (const auto& s : st->type.supers) {
      if (s == name) {
        return Status::CatalogError("class '" + name + "' has subclass '" + other + "'");
      }
    }
  }
  MOOD_RETURN_IF_ERROR(file_->Delete(it->second->rid));
  by_id_.erase(it->second->type.id);
  by_name_.erase(it);
  BumpSchemaEpoch();  // Drop bypasses PersistType; invalidate layouts here too.
  return Status::OK();
}

Result<const MoodsType*> Catalog::Lookup(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no class or type named '" + name + "'");
  }
  return &it->second->type;
}

Result<const MoodsType*> Catalog::Lookup(TypeId id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("no type with id " + std::to_string(id));
  }
  return &it->second->type;
}

TypeId Catalog::typeId(const std::string& type_name) const {
  // Basic types have reserved ids 1..6.
  for (int b = 0; b < 6; b++) {
    if (type_name == BasicTypeName(static_cast<BasicType>(b))) {
      return static_cast<TypeId>(b + 1);
    }
  }
  auto it = by_name_.find(type_name);
  return it == by_name_.end() ? kInvalidTypeId : it->second->type.id;
}

std::string Catalog::typeName(TypeId id) const {
  if (id >= 1 && id <= 6) {
    return std::string(BasicTypeName(static_cast<BasicType>(id - 1)));
  }
  auto it = by_id_.find(id);
  return it == by_id_.end() ? std::string() : it->second->type.name;
}

std::vector<const MoodsType*> Catalog::AllTypes() const {
  std::vector<const MoodsType*> out;
  out.reserve(by_name_.size());
  for (const auto& [name, st] : by_name_) out.push_back(&st->type);
  std::sort(out.begin(), out.end(),
            [](const MoodsType* a, const MoodsType* b) { return a->id < b->id; });
  return out;
}

Result<std::vector<MoodsAttribute>> Catalog::AllAttributes(
    const std::string& name) const {
  MOOD_ASSIGN_OR_RETURN(const MoodsType* t, Lookup(name));
  std::vector<MoodsAttribute> out;
  std::set<std::string> seen;
  std::function<Status(const MoodsType*)> visit =
      [&](const MoodsType* type) -> Status {
    for (const auto& s : type->supers) {
      MOOD_ASSIGN_OR_RETURN(const MoodsType* super, Lookup(s));
      MOOD_RETURN_IF_ERROR(visit(super));
    }
    for (const auto& a : type->own_attributes) {
      if (seen.insert(a.name).second) out.push_back(a);
    }
    return Status::OK();
  };
  MOOD_RETURN_IF_ERROR(visit(t));
  return out;
}

Result<std::vector<MoodsFunction>> Catalog::AllFunctions(
    const std::string& name) const {
  MOOD_ASSIGN_OR_RETURN(const MoodsType* t, Lookup(name));
  std::vector<MoodsFunction> out;
  std::set<std::string> seen;
  // Own functions first (they override), then supers depth-first.
  std::function<Status(const MoodsType*)> visit =
      [&](const MoodsType* type) -> Status {
    for (const auto& f : type->functions) {
      if (seen.insert(f.name).second) out.push_back(f);
    }
    for (const auto& s : type->supers) {
      MOOD_ASSIGN_OR_RETURN(const MoodsType* super, Lookup(s));
      MOOD_RETURN_IF_ERROR(visit(super));
    }
    return Status::OK();
  };
  MOOD_RETURN_IF_ERROR(visit(t));
  return out;
}

Result<std::pair<std::string, const MoodsFunction*>> Catalog::ResolveFunction(
    const std::string& class_name, const std::string& fname) const {
  MOOD_ASSIGN_OR_RETURN(const MoodsType* t, Lookup(class_name));
  if (const MoodsFunction* f = t->FindFunction(fname)) {
    return std::make_pair(class_name, f);
  }
  for (const auto& s : t->supers) {
    auto res = ResolveFunction(s, fname);
    if (res.ok()) return res;
  }
  return Status::NotFound("no method '" + fname + "' on class '" + class_name + "'");
}

Result<std::vector<std::string>> Catalog::Subclasses(const std::string& name) const {
  MOOD_RETURN_IF_ERROR(Lookup(name).status());
  std::vector<std::string> out;
  for (const auto& [other, st] : by_name_) {
    for (const auto& s : st->type.supers) {
      if (s == name) {
        out.push_back(other);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<std::string>> Catalog::SubtreeClasses(const std::string& name) const {
  MOOD_RETURN_IF_ERROR(Lookup(name).status());
  std::vector<std::string> out{name};
  std::set<std::string> seen{name};
  for (size_t i = 0; i < out.size(); i++) {
    MOOD_ASSIGN_OR_RETURN(auto subs, Subclasses(out[i]));
    for (auto& s : subs) {
      if (seen.insert(s).second) out.push_back(std::move(s));
    }
  }
  return out;
}

bool Catalog::IsSubclassOf(const std::string& sub, const std::string& super) const {
  if (sub == super) return true;
  auto it = by_name_.find(sub);
  if (it == by_name_.end()) return false;
  for (const auto& s : it->second->type.supers) {
    if (IsSubclassOf(s, super)) return true;
  }
  return false;
}

Status Catalog::AddAttribute(const std::string& class_name, MoodsAttribute attr) {
  auto it = by_name_.find(class_name);
  if (it == by_name_.end()) return Status::NotFound("no class '" + class_name + "'");
  MOOD_ASSIGN_OR_RETURN(auto all, AllAttributes(class_name));
  for (const auto& a : all) {
    if (a.name == attr.name) {
      return Status::AlreadyExists("attribute '" + attr.name + "' already exists");
    }
  }
  it->second->type.own_attributes.push_back(std::move(attr));
  return PersistType(it->second.get());
}

Status Catalog::DropAttribute(const std::string& class_name, const std::string& attr) {
  auto it = by_name_.find(class_name);
  if (it == by_name_.end()) return Status::NotFound("no class '" + class_name + "'");
  auto& attrs = it->second->type.own_attributes;
  auto pos = std::find_if(attrs.begin(), attrs.end(),
                          [&](const MoodsAttribute& a) { return a.name == attr; });
  if (pos == attrs.end()) {
    return Status::NotFound("class '" + class_name + "' has no own attribute '" +
                            attr + "'");
  }
  attrs.erase(pos);
  return PersistType(it->second.get());
}

Status Catalog::RenameAttribute(const std::string& class_name, const std::string& from,
                                const std::string& to) {
  auto it = by_name_.find(class_name);
  if (it == by_name_.end()) return Status::NotFound("no class '" + class_name + "'");
  for (auto& a : it->second->type.own_attributes) {
    if (a.name == from) {
      a.name = to;
      return PersistType(it->second.get());
    }
  }
  return Status::NotFound("no own attribute '" + from + "'");
}

Status Catalog::AddFunction(const std::string& class_name, MoodsFunction fn) {
  auto it = by_name_.find(class_name);
  if (it == by_name_.end()) return Status::NotFound("no class '" + class_name + "'");
  if (it->second->type.FindFunction(fn.name) != nullptr) {
    return Status::AlreadyExists("method '" + fn.name + "' already defined");
  }
  it->second->type.functions.push_back(std::move(fn));
  return PersistType(it->second.get());
}

Status Catalog::DropFunction(const std::string& class_name, const std::string& fname) {
  auto it = by_name_.find(class_name);
  if (it == by_name_.end()) return Status::NotFound("no class '" + class_name + "'");
  auto& fns = it->second->type.functions;
  auto pos = std::find_if(fns.begin(), fns.end(),
                          [&](const MoodsFunction& f) { return f.name == fname; });
  if (pos == fns.end()) return Status::NotFound("no method '" + fname + "'");
  fns.erase(pos);
  return PersistType(it->second.get());
}

Status Catalog::UpdateFunctionBody(const std::string& class_name,
                                   const std::string& fname, std::string body) {
  auto it = by_name_.find(class_name);
  if (it == by_name_.end()) return Status::NotFound("no class '" + class_name + "'");
  for (auto& f : it->second->type.functions) {
    if (f.name == fname) {
      f.body_source = std::move(body);
      return PersistType(it->second.get());
    }
  }
  return Status::NotFound("no method '" + fname + "'");
}

Status Catalog::RegisterIndex(const IndexDesc& desc) {
  if (indexes_.count(desc.name)) {
    return Status::AlreadyExists("index '" + desc.name + "' already exists");
  }
  MOOD_RETURN_IF_ERROR(Lookup(desc.class_name).status());
  indexes_[desc.name] = desc;
  // A new index changes which plans are possible; epoch-stamped caches
  // (layouts, feedback, cached plans) must re-derive.
  BumpSchemaEpoch();
  return PersistIndexes();
}

Status Catalog::UnregisterIndex(const std::string& index_name) {
  if (indexes_.erase(index_name) == 0) {
    return Status::NotFound("no index '" + index_name + "'");
  }
  BumpSchemaEpoch();
  return PersistIndexes();
}

std::vector<IndexDesc> Catalog::IndexesOn(const std::string& class_name) const {
  std::vector<IndexDesc> out;
  for (const auto& [name, d] : indexes_) {
    if (d.class_name == class_name) out.push_back(d);
  }
  return out;
}

std::optional<IndexDesc> Catalog::FindIndex(const std::string& class_name,
                                            const std::string& attribute,
                                            IndexKind kind) const {
  for (const auto& [name, d] : indexes_) {
    if (d.class_name == class_name && d.attribute == attribute && d.kind == kind) {
      return d;
    }
  }
  return std::nullopt;
}

std::optional<IndexDesc> Catalog::FindIndexByName(const std::string& index_name) const {
  auto it = indexes_.find(index_name);
  if (it == indexes_.end()) return std::nullopt;
  return it->second;
}

Status Catalog::BindName(const std::string& name, Oid oid) {
  named_objects_[name] = oid;
  return PersistNames();
}

Status Catalog::UnbindName(const std::string& name) {
  if (named_objects_.erase(name) == 0) {
    return Status::NotFound("no named object '" + name + "'");
  }
  return PersistNames();
}

Result<Oid> Catalog::LookupName(const std::string& name) const {
  auto it = named_objects_.find(name);
  if (it == named_objects_.end()) {
    return Status::NotFound("no named object '" + name + "'");
  }
  return it->second;
}

std::vector<std::pair<std::string, Oid>> Catalog::AllNamedObjects() const {
  return {named_objects_.begin(), named_objects_.end()};
}

}  // namespace mood
