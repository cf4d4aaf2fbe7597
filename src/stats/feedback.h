#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "common/lru_cache.h"
#include "objects/read_view.h"

namespace mood {

/// Running means of measured per-operation costs (ms per extent page, per
/// dereference, per predicate evaluation). The first samples come from one
/// bounded probe (StatisticsManager::ProbeCalibration), and profiled
/// executions keep refining them (BIND wall-time / pages, join wall-time /
/// derefs, filter wall-time / predicate evaluations). Once Valid(), the
/// optimizer swaps the paper's 1994 disk parameters for these — which is what
/// lets it see that a one-row index probe beats a full scan, and that a
/// residual filter over an already-bound extent is cheaper than expanding a
/// pointer-join chain on modern hardware.
class CostCalibration {
 public:
  void AddPage(double ms_per_page);
  void AddDeref(double ms_per_deref);
  void AddPredicate(double ms_per_predicate);

  /// Page and deref samples both present — enough to price plans coherently.
  bool Valid() const;
  double MsPerPage() const;
  double MsPerDeref() const;
  double MsPerPredicate() const;
  /// True exactly once per calibration lifetime (until Reset): the caller
  /// that gets true runs the calibration probe.
  bool ClaimProbe();
  void Reset();

 private:
  mutable std::mutex mu_;
  double page_ms_ = 0, deref_ms_ = 0, pred_ms_ = 0;  ///< running means
  uint64_t pages_ = 0, derefs_ = 0, preds_ = 0;      ///< sample counts
  bool probed_ = false;
};

/// Bounded LRU of measured selectivities keyed by normalized predicate
/// signature (e.g. "Company.name = 'BMW'" or "Vehicle.manufacturer.name: =
/// 'BMW'"). Entries remember the catalog schema epoch and the extent file's
/// write epoch at record time; Lookup drops entries that fail StampHolds
/// (schema epoch moved, or the file churned past refresh_epoch_delta writes),
/// so stale measurements cannot steer the optimizer after DDL or heavy update
/// traffic.
class FeedbackStore {
 public:
  /// Entries the store holds at most.
  static constexpr size_t kEntries = 256;

  struct Entry {
    double selectivity = 0;
    uint64_t schema_epoch = 0;
    TouchedExtent extent;  ///< the predicate's extent file at record time
  };

  FeedbackStore() { lru_.SetCapacity(kEntries); }

  /// Write-epoch churn an entry tolerates before Lookup drops it.
  void Configure(uint64_t refresh_epoch_delta);

  void Record(const std::string& sig, double selectivity, uint64_t schema_epoch,
              uint16_t file, uint64_t write_epoch);

  /// Returns true and fills *selectivity when a still-valid entry exists.
  /// Invalid entries are erased and counted in invalidations().
  bool Lookup(const std::string& sig, uint64_t cur_schema_epoch, uint16_t file,
              uint64_t cur_write_epoch, double* selectivity);

  size_t size() const;
  uint64_t invalidations() const;

 private:
  mutable std::mutex mu_;
  uint64_t refresh_epoch_delta_ = 256;
  LruCache<Entry> lru_;
};

}  // namespace mood
