#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mood {

/// Buffer-pool activity attributed to one profiled operator: the difference of
/// two aggregate BufferPool stats samples taken around the operator's
/// execution (inclusive of its children — operators execute depth-first, so a
/// parent's delta contains its subtree's).
struct PoolDelta {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t prefetches = 0;

  PoolDelta& operator+=(const PoolDelta& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    prefetches += o.prefetches;
    return *this;
  }
};

/// Per-operator execution profile: one node per physical plan operator (plus
/// one node per Finish stage — GROUP BY / ORDER BY / PROJECT / DISTINCT — and
/// a RESULT root). The tree mirrors the plan, so EXPLAIN ANALYZE renders
/// estimated and actual columns side by side.
///
/// Determinism contract: every field except `wall_ns` and `pool` is a pure
/// function of the query and the data — morsel workers accumulate into
/// per-morsel partials that the executor folds in morsel order, so
/// `rows_in`/`rows_out`/`morsels`/`batches` are identical at any thread count.
/// Render(timing=false) emits only the deterministic fields (what the
/// golden-shape tests compare across exec_threads ∈ {1,2,8}).
struct QueryProfile {
  /// One-line operator description (PlanNode::Describe or a stage name).
  std::string label;

  // Optimizer estimates copied from the plan node (0 for Finish stages).
  double est_rows = 0;
  double est_cost = 0;
  bool has_estimates = false;

  // Actuals.
  uint64_t rows_in = 0;    ///< rows consumed from children (0 for leaves)
  uint64_t rows_out = 0;   ///< rows produced
  uint64_t morsels = 0;    ///< parallel work units dispatched (0 = inline)
  uint64_t batches = 0;    ///< RowBatches produced (0: Finish stage or empty)
  uint64_t wall_ns = 0;    ///< inclusive wall time on the coordinating thread
  PoolDelta pool;          ///< inclusive buffer-pool delta

  std::vector<std::unique_ptr<QueryProfile>> children;

  QueryProfile* AddChild(std::string label);

  /// Sum of wall_ns over direct children (for exclusive-time rendering).
  uint64_t ChildWallNs() const;

  struct RenderOptions {
    bool timing = true;   ///< include wall times (volatile across runs)
    bool buffer = true;   ///< include buffer-pool deltas (volatile: cache state)
    int indent = 0;
  };

  /// Indented tree rendering:
  ///   SELECT v.company.name = 'BMW'  (est rows=12.0 cost=1.402) (actual rows=10 in=800 morsels=4) [q=1.20] [time=0.41ms] [pool hits=52 misses=3]
  /// `q` is the cardinality q-error max(est/actual, actual/est) when both are
  /// positive — the estimated-vs-actual check stats_cost_test-style assertions
  /// read.
  std::string Render(const RenderOptions& options) const;
  std::string Render() const { return Render(RenderOptions{}); }

  /// JSON object mirroring Render()'s fields (children nested under
  /// "children"). The timing/buffer flags gate the volatile fields exactly as
  /// in the text rendering.
  std::string ToJson(const RenderOptions& options) const;
  std::string ToJson() const { return ToJson(RenderOptions{}); }
};

/// Steady-clock nanosecond stamp for profile timing.
inline uint64_t ProfileNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace mood
