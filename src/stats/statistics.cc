#include "stats/statistics.h"

#include <algorithm>
#include <unordered_set>

#include "obs/query_profile.h"
#include "sql/evaluator.h"
#include "stats/sketch.h"

namespace mood {

bool StatisticsManager::ProbeCalibration(const std::string& cls) {
  auto count = objects_->ExtentCount(cls, false);
  if (!count.ok() || count.value() == 0 || !calibration_.ClaimProbe()) return false;
  auto pages = objects_->ExtentPageIds(cls);
  if (!pages.ok()) return false;
  struct Row {
    Oid oid;
    MoodValue first;  ///< the object's first attribute (Null when it has none)
  };
  std::vector<Row> rows;
  const size_t npages = std::min(kCalibrationPages, pages.value().size());
  for (size_t i = 0; i < npages; i++) {
    const uint64_t start = ProfileNowNs();
    Status st = objects_->ScanExtentPage(
        cls, pages.value()[i], SnapshotView{},
        [&](Oid oid, const MoodValue& tuple) {
          rows.push_back(Row{oid, tuple.size() > 0 ? tuple.elements()[0] : MoodValue()});
          return Status::OK();
        });
    if (!st.ok()) break;
    calibration_.AddPage(static_cast<double>(ProfileNowNs() - start) / 1e6);
  }
  if (!rows.empty()) {
    const uint64_t start = ProfileNowNs();
    for (const Row& r : rows) {
      (void)Evaluator::Compare(BinaryOp::kEq, r.first, rows[0].first);
    }
    calibration_.AddPredicate(static_cast<double>(ProfileNowNs() - start) / 1e6 /
                              static_cast<double>(rows.size()));
    const size_t nderefs = std::min(kCalibrationDerefs, rows.size());
    const uint64_t deref_start = ProfileNowNs();
    size_t fetched = 0;
    for (size_t i = 0; i < nderefs; i++) fetched += objects_->Fetch(rows[i].oid).ok() ? 1 : 0;
    if (fetched > 0) {
      calibration_.AddDeref(static_cast<double>(ProfileNowNs() - deref_start) / 1e6 /
                            static_cast<double>(fetched));
    }
  }
  BumpPlansVersion();
  return true;
}

Status StatisticsManager::Collect(const std::string& class_name) {
  Catalog* catalog = objects_->catalog();
  MOOD_ASSIGN_OR_RETURN(auto attrs, catalog->AllAttributes(class_name));

  ClassStats cls;
  MOOD_ASSIGN_OR_RETURN(cls.cardinality, objects_->ExtentCount(class_name, false));
  MOOD_ASSIGN_OR_RETURN(cls.nbpages, objects_->ExtentPages(class_name));

  struct AttrAcc {
    uint64_t notnull = 0;
    DistinctSketch distinct;  // over encoded values
    std::vector<double> values;  // numeric values, feed the histogram
    double max_val = -1e308;
    double min_val = 1e308;
    bool numeric = true;
    bool is_atomic = false;
  };
  struct RefAcc {
    uint64_t links = 0;              // total references
    uint64_t notnull = 0;
    std::unordered_set<uint64_t> targets;  // distinct referenced oids
    std::string target_class;
  };
  std::vector<AttrAcc> attr_acc(attrs.size());
  std::vector<RefAcc> ref_acc(attrs.size());
  for (size_t i = 0; i < attrs.size(); i++) {
    auto k = attrs[i].type->kind();
    attr_acc[i].is_atomic = (k == ConstructorKind::kBasic);
    if (k == ConstructorKind::kReference) {
      ref_acc[i].target_class = attrs[i].type->referenced_class();
    } else if ((k == ConstructorKind::kSet || k == ConstructorKind::kList) &&
               attrs[i].type->element()->kind() == ConstructorKind::kReference) {
      ref_acc[i].target_class = attrs[i].type->element()->referenced_class();
    }
  }

  uint64_t count = 0;
  uint64_t total_bytes = 0;
  MOOD_RETURN_IF_ERROR(objects_->ScanExtent(
      class_name, false, {}, [&](Oid, const MoodValue& tuple) {
        count++;
        std::string enc;
        tuple.EncodeTo(&enc);
        total_bytes += enc.size();
        for (size_t i = 0; i < attrs.size() && i < tuple.size(); i++) {
          const MoodValue& v = tuple.elements()[i];
          if (v.is_null()) continue;
          if (attr_acc[i].is_atomic) {
            attr_acc[i].notnull++;
            std::string venc;
            v.EncodeTo(&venc);
            attr_acc[i].distinct.Add(venc);
            auto d = v.ToDouble();
            if (d.ok()) {
              attr_acc[i].max_val = std::max(attr_acc[i].max_val, d.value());
              attr_acc[i].min_val = std::min(attr_acc[i].min_val, d.value());
              attr_acc[i].values.push_back(d.value());
            } else {
              attr_acc[i].numeric = false;
            }
          } else if (!ref_acc[i].target_class.empty()) {
            auto note = [&](const MoodValue& r) {
              if (r.kind() == ValueKind::kReference && r.AsReference().valid()) {
                ref_acc[i].links++;
                ref_acc[i].targets.insert(r.AsReference().Pack());
              }
            };
            if (v.kind() == ValueKind::kReference) {
              ref_acc[i].notnull++;
              note(v);
            } else if (v.IsCollection()) {
              ref_acc[i].notnull++;
              for (const auto& e : v.elements()) note(e);
            }
          }
        }
        return Status::OK();
      }));

  cls.size = count == 0 ? 0 : static_cast<uint32_t>(total_bytes / count);
  classes_[class_name] = cls;

  for (size_t i = 0; i < attrs.size(); i++) {
    if (attr_acc[i].is_atomic) {
      AttributeStats s;
      s.notnull = count == 0 ? 1.0
                             : static_cast<double>(attr_acc[i].notnull) /
                                   static_cast<double>(count);
      s.dist = attr_acc[i].distinct.Estimate();
      s.has_range = attr_acc[i].numeric && attr_acc[i].notnull > 0;
      if (s.has_range) {
        s.max_val = attr_acc[i].max_val;
        s.min_val = attr_acc[i].min_val;
        if (!attr_acc[i].values.empty()) {
          s.histogram = std::make_shared<const EquiDepthHistogram>(
              EquiDepthHistogram::Build(std::move(attr_acc[i].values),
                                        kHistogramBuckets));
        }
      }
      attributes_[{class_name, attrs[i].name}] = s;
    } else if (!ref_acc[i].target_class.empty()) {
      ReferenceStats s;
      s.target_class = ref_acc[i].target_class;
      s.fan = count == 0 ? 0.0
                         : static_cast<double>(ref_acc[i].links) /
                               static_cast<double>(count);
      s.totref = ref_acc[i].targets.size();
      references_[{class_name, attrs[i].name}] = s;
    }
  }

  CollectEpochs ep;
  ep.schema_epoch = catalog->schema_epoch();
  if (ExtentEpoch(class_name, &ep.extent)) {
    collected_[class_name] = ep;
  }
  BumpPlansVersion();
  return Status::OK();
}

void StatisticsManager::Configure(uint64_t refresh_epoch_delta) {
  refresh_epoch_delta_ = refresh_epoch_delta;
  feedback_.Configure(refresh_epoch_delta);
}

bool StatisticsManager::ExtentEpoch(const std::string& cls,
                                    TouchedExtent* extent) const {
  auto type = objects_->catalog()->Lookup(cls);
  if (!type.ok()) return false;
  extent->file = static_cast<uint16_t>(type.value()->extent_file);
  extent->write_epoch = objects_->WriteEpochOf(extent->file);
  return true;
}

void StatisticsManager::RecordFeedback(const std::string& sig,
                                       double selectivity,
                                       const std::string& cls) {
  TouchedExtent extent;
  if (!ExtentEpoch(cls, &extent)) return;
  feedback_.Record(sig, selectivity, objects_->catalog()->schema_epoch(),
                   extent.file, extent.write_epoch);
  if (feedback_writes_) feedback_writes_->Add();
  BumpPlansVersion();
}

bool StatisticsManager::LookupFeedback(const std::string& sig,
                                       const std::string& cls,
                                       double* selectivity) {
  TouchedExtent extent;
  if (!ExtentEpoch(cls, &extent)) return false;
  const uint64_t before = feedback_.invalidations();
  const bool hit = feedback_.Lookup(sig, objects_->catalog()->schema_epoch(),
                                    extent.file, extent.write_epoch, selectivity);
  const uint64_t dropped = feedback_.invalidations() - before;
  if (dropped > 0 && feedback_invalidations_) feedback_invalidations_->Add(dropped);
  if (hit && feedback_hits_) feedback_hits_->Add();
  return hit;
}

void StatisticsManager::MaybeAutoRefresh(const std::string& cls) {
  auto it = collected_.find(cls);
  if (it == collected_.end()) return;  // injected stats: never auto-refresh
  const CollectEpochs& stamp = it->second;
  if (StampHolds(stamp.schema_epoch, objects_->catalog()->schema_epoch(),
                 {&stamp.extent, 1},
                 [this](uint16_t file) { return objects_->WriteEpochOf(file); },
                 refresh_epoch_delta_)) {
    return;
  }
  if (Collect(cls).ok() && refreshes_) refreshes_->Add();
}

Result<ClassStats> StatisticsManager::Class(const std::string& cls) const {
  auto it = classes_.find(cls);
  if (it == classes_.end()) {
    return Status::NotFound("no statistics for class '" + cls + "'");
  }
  return it->second;
}

Result<AttributeStats> StatisticsManager::Attribute(const std::string& cls,
                                                    const std::string& attr) const {
  auto it = attributes_.find({cls, attr});
  if (it == attributes_.end()) {
    return Status::NotFound("no statistics for " + cls + "." + attr);
  }
  return it->second;
}

Result<ReferenceStats> StatisticsManager::Reference(const std::string& cls,
                                                    const std::string& attr) const {
  auto it = references_.find({cls, attr});
  if (it == references_.end()) {
    return Status::NotFound("no reference statistics for " + cls + "." + attr);
  }
  return it->second;
}

Result<double> StatisticsManager::TotLinks(const std::string& cls,
                                           const std::string& attr) const {
  MOOD_ASSIGN_OR_RETURN(ReferenceStats ref, Reference(cls, attr));
  MOOD_ASSIGN_OR_RETURN(ClassStats c, Class(cls));
  return ref.fan * static_cast<double>(c.cardinality);
}

Result<double> StatisticsManager::HitPrb(const std::string& cls,
                                         const std::string& attr) const {
  MOOD_ASSIGN_OR_RETURN(ReferenceStats ref, Reference(cls, attr));
  MOOD_ASSIGN_OR_RETURN(ClassStats d, Class(ref.target_class));
  if (d.cardinality == 0) return 0.0;
  return static_cast<double>(ref.totref) / static_cast<double>(d.cardinality);
}

std::vector<std::string> StatisticsManager::Classes() const {
  std::vector<std::string> out;
  for (const auto& [name, s] : classes_) out.push_back(name);
  return out;
}

std::vector<std::pair<std::string, std::string>>
StatisticsManager::ReferenceAttributes() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, s] : references_) out.push_back(key);
  return out;
}

std::vector<std::pair<std::string, std::string>>
StatisticsManager::AtomicAttributes() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, s] : attributes_) out.push_back(key);
  return out;
}

}  // namespace mood
