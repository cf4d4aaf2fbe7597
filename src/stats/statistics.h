#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "objects/object_manager.h"
#include "stats/feedback.h"
#include "stats/histogram.h"

namespace mood {

/// Per-class statistics (paper Table 8, class-level rows).
struct ClassStats {
  uint64_t cardinality = 0;  ///< |C|
  uint32_t nbpages = 0;      ///< nbpages(C)
  uint32_t size = 0;         ///< size(C), bytes per instance
};

/// Per-atomic-attribute statistics (Table 8): notnull, dist, max, min.
/// max/min are kept as doubles (numeric attributes); for strings only dist and
/// notnull are meaningful.
struct AttributeStats {
  double notnull = 1.0;
  uint64_t dist = 0;
  double max_val = 0;
  double min_val = 0;
  bool has_range = false;  ///< max/min meaningful (numeric attribute)
  /// Equi-depth histogram over the attribute's numeric values. Only present
  /// after Collect() on a numeric attribute; injected (modeled-mode) stats
  /// never carry one, so paper-mode selectivity formulas stay byte-exact.
  std::shared_ptr<const EquiDepthHistogram> histogram;
};

/// Per-reference-attribute statistics for A: C -> D (Table 8): fan, totref.
/// totlinks and hitprb are derived:
///   totlinks(A,C,D) = fan(A,C,D) * |C|
///   hitprb(A,C,D)   = totref(A,C,D) / |D|
struct ReferenceStats {
  std::string target_class;  ///< D
  double fan = 1.0;          ///< fan(A,C,D)
  uint64_t totref = 0;       ///< totref(A,C,D)
};

/// Holds and computes the cost-model parameters of Section 4. Statistics can be
/// *collected* by scanning extents (measured mode) or *injected* directly
/// (modeled mode — how bench_example81 reproduces the paper's Tables 13–15
/// without materializing 260k objects).
class StatisticsManager {
 public:
  explicit StatisticsManager(ObjectManager* objects) : objects_(objects) {}

  /// Scans the class extent and recomputes class, attribute and reference stats.
  Status Collect(const std::string& class_name);

  /// Equi-depth histogram buckets Collect builds per numeric attribute.
  static constexpr size_t kHistogramBuckets = 32;

  /// Write-epoch churn past which feedback entries are dropped and collected
  /// statistics auto-refresh; set once at Open.
  void Configure(uint64_t refresh_epoch_delta);
  /// Metrics hookup (nullptrs allowed; detach with nullptrs before registry
  /// teardown, matching the executor's pattern).
  void SetMetrics(MetricCounter* feedback_hits, MetricCounter* feedback_writes,
                  MetricCounter* feedback_invalidations,
                  MetricCounter* refreshes) {
    feedback_hits_ = feedback_hits;
    feedback_writes_ = feedback_writes;
    feedback_invalidations_ = feedback_invalidations;
    refreshes_ = refreshes;
  }

  FeedbackStore& feedback() { return feedback_; }
  CostCalibration& calibration() { return calibration_; }

  /// Seeds the cost calibration from one bounded pass over `cls`'s extent
  /// through the buffer pool: it times at most kCalibrationPages extent pages
  /// (no readahead), one comparison per object read, and at most
  /// kCalibrationDerefs object fetches, then bumps plans_version. Runs at
  /// most once per calibration lifetime, on the first non-empty extent it is
  /// asked about; returns true when it ran. The caller holds the commit gate
  /// shared (the pass reads heap pages).
  static constexpr size_t kCalibrationPages = 4;
  static constexpr size_t kCalibrationDerefs = 32;
  bool ProbeCalibration(const std::string& cls);

  /// Monotone counter bumped whenever anything that shapes plans changes:
  /// collected/injected statistics, a recorded feedback selectivity, or the
  /// measured cost calibration. Cached plans stamp it and re-optimize on
  /// mismatch, so the feedback loop keeps improving hot queries instead of
  /// freezing their first plan.
  uint64_t plans_version() const {
    return plans_version_.load(std::memory_order_acquire);
  }
  void BumpPlansVersion() {
    plans_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Records one measured selectivity under `sig`, stamped with the current
  /// schema epoch and the extent file's write epoch.
  void RecordFeedback(const std::string& sig, double selectivity,
                      const std::string& cls);
  /// Looks up a still-valid measured selectivity for `sig` on class `cls`.
  bool LookupFeedback(const std::string& sig, const std::string& cls,
                      double* selectivity);

  /// Re-collects stats for `cls` when its extent file's write epoch moved more
  /// than the refresh threshold since the last Collect. No-op for classes
  /// whose stats were injected rather than collected.
  void MaybeAutoRefresh(const std::string& cls);

  // Injection (modeled mode).
  void SetClassStats(const std::string& cls, ClassStats s) {
    classes_[cls] = s;
    BumpPlansVersion();
  }
  void SetAttributeStats(const std::string& cls, const std::string& attr,
                         AttributeStats s) {
    attributes_[{cls, attr}] = s;
    BumpPlansVersion();
  }
  void SetReferenceStats(const std::string& cls, const std::string& attr,
                         ReferenceStats s) {
    references_[{cls, attr}] = s;
    BumpPlansVersion();
  }

  Result<ClassStats> Class(const std::string& cls) const;
  Result<AttributeStats> Attribute(const std::string& cls,
                                   const std::string& attr) const;
  Result<ReferenceStats> Reference(const std::string& cls,
                                   const std::string& attr) const;

  /// Derived parameters.
  Result<double> TotLinks(const std::string& cls, const std::string& attr) const;
  Result<double> HitPrb(const std::string& cls, const std::string& attr) const;

  bool HasClass(const std::string& cls) const { return classes_.count(cls) > 0; }

  /// All classes with stats (for the Table 13–15 printers).
  std::vector<std::string> Classes() const;
  std::vector<std::pair<std::string, std::string>> ReferenceAttributes() const;
  std::vector<std::pair<std::string, std::string>> AtomicAttributes() const;

 private:
  struct CollectEpochs {
    uint64_t schema_epoch = 0;
    TouchedExtent extent;
  };

  /// Extent file + current write epoch for `cls`; false when unknown.
  bool ExtentEpoch(const std::string& cls, TouchedExtent* extent) const;

  ObjectManager* objects_;
  std::map<std::string, ClassStats> classes_;
  std::map<std::pair<std::string, std::string>, AttributeStats> attributes_;
  std::map<std::pair<std::string, std::string>, ReferenceStats> references_;
  /// Epochs at the time of the last Collect(), only for collected classes.
  std::map<std::string, CollectEpochs> collected_;
  uint64_t refresh_epoch_delta_ = 256;
  FeedbackStore feedback_;
  CostCalibration calibration_;
  MetricCounter* feedback_hits_ = nullptr;
  MetricCounter* feedback_writes_ = nullptr;
  MetricCounter* feedback_invalidations_ = nullptr;
  MetricCounter* refreshes_ = nullptr;
  std::atomic<uint64_t> plans_version_{0};
};

}  // namespace mood
