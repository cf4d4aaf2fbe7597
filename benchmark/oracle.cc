#include "benchmark/oracle.h"

#include <algorithm>
#include <map>

namespace moodbench {

using mood::MoodValue;
using mood::Oid;
using mood::Result;
using mood::Status;
using mood::ValueKind;

namespace {

/// Typed attribute access to stored tuples through the classes' layouts.
class Reader {
 public:
  static Result<Reader> Make(mood::ObjectManager* om) {
    Reader r;
    r.om_ = om;
    MOOD_ASSIGN_OR_RETURN(r.vehicle_, om->LayoutOf("Vehicle"));
    MOOD_ASSIGN_OR_RETURN(r.drivetrain_, om->LayoutOf("VehicleDriveTrain"));
    MOOD_ASSIGN_OR_RETURN(r.engine_, om->LayoutOf("VehicleEngine"));
    MOOD_ASSIGN_OR_RETURN(r.company_, om->LayoutOf("Company"));
    return r;
  }

  Result<MoodValue> Get(const MoodValue& tuple, const mood::AttributeLayout& layout,
                        const char* attr, ValueKind kind) const {
    const int ord = layout.OrdinalOf(attr);
    if (ord < 0 || static_cast<size_t>(ord) >= tuple.size()) {
      return Status::NotFound(layout.class_name + "." + attr + " missing");
    }
    const MoodValue& v = tuple.elements()[static_cast<size_t>(ord)];
    if (v.kind() != kind) {
      return Status::Corruption(layout.class_name + "." + attr + " has kind " +
                                std::string(mood::ValueKindName(v.kind())));
    }
    return v;
  }

  Result<int32_t> Int(const MoodValue& tuple, const mood::AttributeLayout& layout,
                      const char* attr) const {
    MOOD_ASSIGN_OR_RETURN(MoodValue v, Get(tuple, layout, attr, ValueKind::kInteger));
    return v.AsInteger();
  }

  /// Fetches the object `attr` of `tuple` refers to.
  Result<MoodValue> Deref(const MoodValue& tuple, const mood::AttributeLayout& layout,
                          const char* attr) const {
    MOOD_ASSIGN_OR_RETURN(MoodValue ref, Get(tuple, layout, attr, ValueKind::kReference));
    return om_->Fetch(ref.AsReference());
  }

  const mood::AttributeLayout& vehicle() const { return *vehicle_; }

  /// v.drivetrain.transmission, v.drivetrain.engine.{cylinders,size}
  Status Drivetrain(const MoodValue& vehicle, bool* automatic, int32_t* cylinders,
                    int32_t* size) const {
    MOOD_ASSIGN_OR_RETURN(MoodValue dt, Deref(vehicle, *vehicle_, "drivetrain"));
    MOOD_ASSIGN_OR_RETURN(MoodValue trans,
                          Get(dt, *drivetrain_, "transmission", ValueKind::kString));
    *automatic = trans.AsString() == "AUTOMATIC";
    MOOD_ASSIGN_OR_RETURN(MoodValue engine, Deref(dt, *drivetrain_, "engine"));
    MOOD_ASSIGN_OR_RETURN(*cylinders, Int(engine, *engine_, "cylinders"));
    MOOD_ASSIGN_OR_RETURN(*size, Int(engine, *engine_, "size"));
    return Status::OK();
  }

  Result<std::string> CompanyName(const MoodValue& vehicle) const {
    MOOD_ASSIGN_OR_RETURN(MoodValue company, Deref(vehicle, *vehicle_, "company"));
    MOOD_ASSIGN_OR_RETURN(MoodValue name,
                          Get(company, *company_, "name", ValueKind::kString));
    return name.AsString();
  }

 private:
  mood::ObjectManager* om_ = nullptr;
  mood::AttributeLayoutPtr vehicle_, drivetrain_, engine_, company_;
};

using Extent = std::vector<std::pair<Oid, MoodValue>>;

Result<Extent> ScanAll(mood::ObjectManager* om, const std::string& cls, bool every,
                       const std::vector<std::string>& exclude) {
  Extent out;
  MOOD_RETURN_IF_ERROR(
      om->ScanExtent(cls, every, exclude, [&](Oid oid, const MoodValue& tuple) {
        out.emplace_back(oid, tuple);
        return Status::OK();
      }));
  return out;
}

bool IsInt(const MoodValue& v, int32_t x) {
  return v.kind() == ValueKind::kInteger && v.AsInteger() == x;
}

bool Fail(std::string* why, std::string msg) {
  *why = std::move(msg);
  return false;
}

std::string Show(const Rows& rows) {
  std::string out;
  for (size_t i = 0; i < rows.size() && i < 4; i++) {
    out += " (";
    for (const MoodValue& v : rows[i]) out += v.ToString() + " ";
    out += ")";
  }
  return out + (rows.size() > 4 ? " ..." : "");
}

}  // namespace

Result<Reference> Reference::Read(mood::Database* db) {
  mood::ObjectManager* om = db->objects();
  MOOD_ASSIGN_OR_RETURN(Reader reader, Reader::Make(om));
  Reference ref;
  // Fetches run after each scan has finished, never inside its callback.
  MOOD_ASSIGN_OR_RETURN(Extent vehicles, ScanAll(om, "Vehicle", false, {}));
  for (const auto& [oid, tuple] : vehicles) {
    Vehicle v;
    v.oid = oid;
    bool automatic = false;
    MOOD_ASSIGN_OR_RETURN(v.id, reader.Int(tuple, reader.vehicle(), "id"));
    MOOD_ASSIGN_OR_RETURN(v.weight, reader.Int(tuple, reader.vehicle(), "weight"));
    MOOD_ASSIGN_OR_RETURN(v.company, reader.CompanyName(tuple));
    MOOD_RETURN_IF_ERROR(reader.Drivetrain(tuple, &automatic, &v.cylinders, &v.size));
    ref.by_id_[v.id] = ref.vehicles_.size();
    ref.vehicles_.push_back(std::move(v));
  }
  MOOD_ASSIGN_OR_RETURN(Extent autos, ScanAll(om, "Automobile", true, {"JapaneseAuto"}));
  for (const auto& [oid, tuple] : autos) {
    Automobile a;
    a.oid = oid;
    MOOD_RETURN_IF_ERROR(reader.Drivetrain(tuple, &a.automatic, &a.cylinders, &a.size));
    ref.automobiles_.push_back(a);
  }
  return ref;
}

const Reference::Vehicle* Reference::Find(int32_t id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &vehicles_[it->second];
}

std::vector<std::string> Reference::Expected(const Request& r) const {
  Rows rows;
  auto ref_row = [&](Oid oid) { rows.push_back({MoodValue::Reference(oid)}); };
  if (r.tmpl == 2) {
    for (const Automobile& a : automobiles_) {
      if (a.automatic && a.cylinders > r.a && a.size < r.b) ref_row(a.oid);
    }
    return Canonical(rows);
  }
  for (const Vehicle& v : vehicles_) {
    switch (r.tmpl) {
      case 0:
        if (v.company == r.name && v.cylinders == r.a) ref_row(v.oid);
        break;
      case 1:
        if (v.cylinders == r.a && v.weight > r.b) ref_row(v.oid);
        break;
      default:
        if (v.size > r.a && v.size < r.b) rows.push_back({MoodValue::Integer(v.id)});
        break;
    }
  }
  return Canonical(rows);
}

std::vector<std::string> Canonical(const Rows& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::string enc;
    for (const MoodValue& v : row) v.EncodeTo(&enc);
    out.push_back(std::move(enc));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------

Ledger::Ledger(const Reference& ref, int client) {
  for (const Reference::Vehicle& v : ref.vehicles()) {
    if (OwnerOf(v.id) != client) continue;
    unknown_[v.id];
    acked_[v.id] = v.weight;
  }
}

void Ledger::Acked(const Request& write) {
  acked_[write.key] = write.weight;
  unknown_[write.key].clear();
  logs_acked_++;
}

void Ledger::Unknown(const Request& write) {
  unknown_[write.key].push_back(write.weight);
  logs_unknown_++;
}

bool Ledger::Allows(int32_t id, int32_t weight) const {
  auto it = acked_.find(id);
  if (it == acked_.end()) return false;
  if (it->second == weight) return true;
  const std::vector<int32_t>& maybe = unknown_.at(id);
  return std::find(maybe.begin(), maybe.end(), weight) != maybe.end();
}

bool Ledger::Exact(int32_t id, int32_t* weight) const {
  auto it = acked_.find(id);
  if (it == acked_.end() || !unknown_.at(id).empty()) return false;
  *weight = it->second;
  return true;
}

bool CheckResponse(Workload w, const Reference& ref, const Ledger* own,
                   const Request& r, const Rows& rows, std::string* why) {
  if (r.kind == OpKind::kQuery || r.kind == OpKind::kWrite) return true;
  // Built only for a failure: this runs on every response of the timed loop.
  auto what = [&] {
    return std::string(OpName(r.kind)) + " " +
           (r.kind == OpKind::kLookup ? std::to_string(r.key) : r.sql);
  };
  if (r.kind == OpKind::kLookup) {
    const Reference::Vehicle* v = ref.Find(r.key);
    if (v == nullptr) return Fail(why, what() + ": key not in the reference");
    if (rows.size() != 1 || rows[0].size() != 3) {
      return Fail(why, what() + ": expected one 3-column row, got" + Show(rows));
    }
    const auto& row = rows[0];
    if (!IsInt(row[0], v->id) || row[2].kind() != ValueKind::kString ||
        row[2].AsString() != v->company || row[1].kind() != ValueKind::kInteger) {
      return Fail(why, what() + ": wrong row" + Show(rows));
    }
    const int32_t weight = row[1].AsInteger();
    bool ok = false;
    if (w == Workload::kLookupHot) {
      ok = weight == v->weight;
    } else if (own->Owns(r.key)) {
      ok = own->Allows(r.key, weight);
    } else {
      ok = weight >= kMinWeight && weight < kMaxWeight;
    }
    return ok ? true : Fail(why, what() + ": stale or wrong weight" + Show(rows));
  }
  // The `heavy` report: every row is a Vehicle above the threshold, and this
  // connection's own keys appear exactly when their known weight qualifies.
  std::map<int32_t, int32_t> seen;
  for (const auto& row : rows) {
    if (row.size() != 2 || row[0].kind() != ValueKind::kInteger ||
        row[1].kind() != ValueKind::kInteger || ref.Find(row[0].AsInteger()) == nullptr ||
        row[1].AsInteger() <= kHeavyWeight || row[1].AsInteger() >= kMaxWeight ||
        !seen.emplace(row[0].AsInteger(), row[1].AsInteger()).second) {
      return Fail(why, what() + ": bad row" + Show({row}));
    }
  }
  for (const auto& [id, acked] : own->acked()) {
    int32_t exact = 0;
    if (!own->Exact(id, &exact)) continue;
    auto it = seen.find(id);
    const bool expect = exact > kHeavyWeight;
    if (expect != (it != seen.end()) || (expect && it->second != exact)) {
      return Fail(why, what() + ": key " + std::to_string(id) + " with weight " +
                           std::to_string(exact) + " is wrong in the report");
    }
  }
  return true;
}

namespace {

Result<std::map<int32_t, int32_t>> StoredWeights(mood::Database* db) {
  mood::ObjectManager* om = db->objects();
  MOOD_ASSIGN_OR_RETURN(Reader reader, Reader::Make(om));
  MOOD_ASSIGN_OR_RETURN(Extent vehicles, ScanAll(om, "Vehicle", false, {}));
  std::map<int32_t, int32_t> out;
  for (const auto& [oid, tuple] : vehicles) {
    MOOD_ASSIGN_OR_RETURN(int32_t id, reader.Int(tuple, reader.vehicle(), "id"));
    MOOD_ASSIGN_OR_RETURN(out[id], reader.Int(tuple, reader.vehicle(), "weight"));
  }
  return out;
}

}  // namespace

bool CheckStoredState(mood::Database* db, const std::vector<Ledger>& ledgers,
                      std::string* why) {
  auto weights = StoredWeights(db);
  if (!weights.ok()) return Fail(why, "reading weights: " + weights.status().ToString());
  uint64_t keys = 0;
  uint64_t acked = 0;
  uint64_t unknown = 0;
  for (const Ledger& ledger : ledgers) {
    keys += ledger.acked().size();
    acked += ledger.logs_acked();
    unknown += ledger.logs_unknown();
  }
  if (weights->size() != keys) {
    return Fail(why, "Vehicle extent holds " + std::to_string(weights->size()) +
                         " objects, expected " + std::to_string(keys));
  }
  for (const auto& [id, weight] : *weights) {
    const Ledger& owner = ledgers[static_cast<size_t>(OwnerOf(id))];
    if (!owner.Allows(id, weight)) {
      return Fail(why, "vehicle " + std::to_string(id) + " stores weight " +
                           std::to_string(weight) + ", not its last acknowledged write");
    }
  }
  auto logs = db->objects()->ExtentCount("ServiceLog", false);
  if (!logs.ok()) return Fail(why, "counting ServiceLog: " + logs.status().ToString());
  if (*logs < acked || *logs > acked + unknown) {
    return Fail(why, "ServiceLog holds " + std::to_string(*logs) + " objects, expected " +
                         std::to_string(acked) + " (+ up to " + std::to_string(unknown) +
                         " unacknowledged)");
  }
  return true;
}

bool CheckReport(mood::Database* db, bool require_view, std::string* why) {
  auto weights = StoredWeights(db);
  if (!weights.ok()) return Fail(why, "reading weights: " + weights.status().ToString());
  Rows expected;
  for (const auto& [id, weight] : *weights) {
    if (weight > kHeavyWeight) {
      expected.push_back({MoodValue::Integer(id), MoodValue::Integer(weight)});
    }
  }
  mood::MetricCounter* mv_hits = db->metrics()->Counter("mv.hits");
  const uint64_t hits_before = mv_hits->value();
  auto session = db->CreateSession();
  auto res = session->Execute(kReportSql);
  if (!res.ok()) return Fail(why, "report: " + res.status().ToString());
  if (require_view && mv_hits->value() == hits_before) {
    return Fail(why, "report was not served by the materialized view");
  }
  if (Canonical(res->query.rows) != Canonical(expected)) {
    return Fail(why, "report returned " + std::to_string(res->query.rows.size()) +
                         " rows, stored weights give " + std::to_string(expected.size()));
  }
  return true;
}

}  // namespace moodbench
