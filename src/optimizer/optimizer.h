#pragma once

#include <mutex>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cost/join_costs.h"
#include "objects/object_manager.h"
#include "optimizer/dictionaries.h"
#include "optimizer/plan.h"
#include "sql/binder.h"
#include "stats/selectivity.h"
#include "stats/statistics.h"

namespace mood {

struct OptimizerOptions {
  DiskParameters disk = PaperCalibratedDiskParameters();
  /// k0 used when ranking path expressions (the calibration behind Table 16
  /// implies the paper evaluated F with 10 root objects; see DESIGN.md).
  double path_rank_root_objects = 10;
  /// Default selectivity for predicates the model cannot estimate (methods,
  /// complex predicates in OtherSelInfo).
  double default_selectivity = 1.0 / 3.0;
};

/// The MOOD query optimizer (Sections 7-8): classifies predicates into the
/// ImmSelInfo / PathSelInfo / OtherSelInfo dictionaries, chooses index usage by
/// the Section 8.1 inequality, orders residual predicates by ascending
/// selectivity, orders path expressions by F/(1-s) (Algorithm 8.1), orders
/// implicit joins greedily by jc/(1-js) (Algorithm 8.2), and combines AND-term
/// subplans with UNION (Section 7).
class QueryOptimizer {
 public:
  QueryOptimizer(Catalog* catalog, ObjectManager* objects, StatisticsManager* stats,
                 OptimizerOptions options = {});

  struct Optimized {
    BoundQuery bound;
    PlanPtr plan;
    std::vector<AndTermInfo> terms;
    /// StatisticsManager::plans_version() read once the cost constants were
    /// fixed and stale statistics refreshed (after any calibration probe or
    /// auto-refresh this call ran): the version a plan cache stamps, so
    /// neither invalidates the plan it priced.
    uint64_t plans_version = 0;

    std::string Explain() const;
  };

  /// `use_feedback` gates the measured-selectivity store, the calibrated cost
  /// model, and auto stats refresh — off reproduces the paper's plans exactly
  /// (bench_example81 and the golden-plan tests rely on that).
  Result<Optimized> Optimize(const SelectStmt& stmt, bool use_feedback = true);

  /// Algorithm 8.1 as a pure function: the permutation of indexes sorted by
  /// ascending F_i / (1 - s_i).
  static std::vector<size_t> OrderByRank(const std::vector<double>& cost,
                                         const std::vector<double>& selectivity);

  /// The Appendix objective: f = F_{i1} + s_{i1} F_{i2} + s_{i1} s_{i2} F_{i3} + ...
  static double OrderingObjective(const std::vector<double>& cost,
                                  const std::vector<double>& selectivity,
                                  const std::vector<size_t>& perm);

  const OptimizerOptions& options() const { return options_; }
  SelectivityEstimator& estimator() { return estimator_; }

 private:
  /// Class statistics with live-extent fallback when no stats were collected.
  Result<ClassStats> ClassStatsOrLive(const std::string& cls) const;
  Result<double> AtomicSelectivityOrDefault(const std::string& cls,
                                            const std::string& attr, BinaryOp op,
                                            const MoodValue& constant) const;

  struct Classified {
    std::vector<ImmSelEntry> imm;
    std::vector<PathSelEntry> paths;
    std::vector<OtherSelEntry> other;
    std::vector<JoinPredEntry> joins;
  };
  Result<Classified> Classify(const BoundQuery& query, const AndTerm& term) const;

  /// Section 8.1: per-variable leaf plan (index choice + ordered residuals);
  /// updates the entries' cost columns. Returns the plan and the estimated
  /// candidate count.
  struct VarPlan {
    PlanPtr plan;
    double k = 0;        ///< estimated candidates
    bool accessed = false;  ///< a selection/scan already touched the objects
  };
  Result<VarPlan> BuildVarLeaf(const BoundQuery& query, const std::string& var,
                               std::vector<ImmSelEntry*> imm,
                               std::vector<OtherSelEntry*> other) const;

  /// Section 8.2 + Algorithm 8.2: expands one ordered path-selection predicate
  /// into a chain of implicit joins grafted onto the variable's current plan.
  Result<VarPlan> ExpandPathSelection(const BoundQuery& query, VarPlan current,
                                      const PathSelEntry& entry) const;

  /// Cost/selectivity of one implicit join hop under the four strategies;
  /// returns the cheapest.
  struct HopCost {
    JoinMethod method = JoinMethod::kForwardTraversal;
    double jc = 0;
    double js = 0;
    double Rank() const {
      double denom = 1.0 - js;
      if (denom <= 1e-12) return 1e308;
      return jc / denom;
    }
  };
  Result<HopCost> BestJoinStrategy(const std::string& c_class, const std::string& attr,
                                   const std::string& d_class, double k_c, double k_d,
                                   bool c_accessed, bool d_accessed) const;

  Catalog* catalog_;
  ObjectManager* objects_;
  StatisticsManager* stats_;
  OptimizerOptions options_;
  SelectivityEstimator estimator_;
  Binder binder_;
  /// Serializes Optimize: the members below are per-call scratch, and with
  /// sessions running statements concurrently two optimizations can otherwise
  /// overlap. Contention is limited to plan-cache misses — hits never enter.
  mutable std::mutex optimize_mu_;
  mutable int temp_var_counter_ = 0;
  // Per-Optimize state (guarded by optimize_mu_). active_disk_ is
  // options_.disk, or the measured CostCalibration once enough profiled
  // samples exist and feedback is on.
  mutable bool use_feedback_ = false;
  mutable bool calibrated_ = false;  ///< active_disk_ came from measurements
  mutable DiskParameters active_disk_;
};

}  // namespace mood
