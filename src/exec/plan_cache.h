#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "exec/executor.h"
#include "exec/expr_compile.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "sql/binder.h"

namespace mood {

/// Canonical cache-key form of one statement's SQL text: the token stream
/// re-rendered with single spaces, upper-cased keywords, requoted strings and
/// no trailing ';', with any leading EXPLAIN/ANALYZE/VERBOSE prefix stripped —
/// so `select  X.a from C x;` and `SELECT x.a FROM C x` share one entry, and
/// EXPLAIN can probe for the plan its SELECT would use. Returns "" for text
/// that does not lex (such statements simply bypass the caches).
std::string NormalizeSql(const std::string& sql);

/// Parameter-type signature of one execution's bound values, e.g.
/// "Integer,Float". Part of the plan-cache key: a plan is reused only across
/// executions whose parameters carry the same value kinds, so an `?`-probe
/// optimized under integer comparison semantics never serves float bindings.
std::string ParamTypeSignature(const std::vector<MoodValue>& params);

/// One cached optimized plan plus everything needed to re-execute it without
/// parse/optimize/compile work: the bound query, the physical plan, and the
/// memo of compiled expression programs populated by the first execution.
struct CachedPlan {
  QueryOptimizer::Optimized optimized;
  /// Compiled ExprPrograms keyed by the plan's Expr nodes; shared by every
  /// execution of this entry, so steady-state runs skip expression lowering.
  ProgramMemoPtr programs;
  uint32_t param_count = 0;
  /// Catalog schema epoch and statistics plans-version at build time; a
  /// mismatch at lookup invalidates the entry (DDL or feedback-driven change).
  uint64_t schema_epoch = 0;
  uint64_t plans_version = 0;
  /// Extent files the plan reads, stamped with build-time write epochs.
  /// Plan validity tolerates churn up to the configured delta (stale stats
  /// cost optimality, not correctness); the result cache requires exactness.
  std::vector<TouchedExtent> extents;
  /// True when the statement is read-only and method-free, i.e. its output is
  /// a pure function of the touched extents and the bound parameters — the
  /// precondition for serving it from the result cache.
  bool result_cacheable = false;
};
using CachedPlanPtr = std::shared_ptr<const CachedPlan>;

/// The hit/miss/eviction/invalidation counters a cache reports (each may be
/// null; detach before registry teardown).
struct CacheCounters {
  MetricCounter* hits = nullptr;
  MetricCounter* misses = nullptr;
  MetricCounter* evictions = nullptr;
  MetricCounter* invalidations = nullptr;

  /// Records one probe: a hit, or a miss that was `stale` when it dropped an
  /// invalid entry.
  void Probe(bool hit, bool stale) const {
    Add(hit ? hits : misses, 1);
    if (stale) Add(invalidations, 1);
  }
  void Evicted(size_t n) const { Add(evictions, n); }

 private:
  static void Add(MetricCounter* c, uint64_t n) {
    if (c != nullptr && n > 0) c->Add(n);
  }
};

/// Bounded LRU of optimized plans keyed by normalized SQL + parameter-type
/// signature (+ the feedback flag, which changes what the optimizer may use).
/// Entries are validated lazily at lookup against the statistics
/// plans-version and StampHolds (schema epoch, extent churn within the
/// configured delta); invalid entries are dropped and counted, so DDL and
/// heavy writes cannot pin stale plans.
class PlanCache {
 public:
  /// `max_entries` = 0 disables the cache (Lookup always misses, Insert drops).
  /// `churn_delta`: write-epoch movement on any touched extent beyond which a
  /// plan re-optimizes (mirrors FeedbackOptions::refresh_epoch_delta).
  void Configure(size_t max_entries, uint64_t churn_delta);
  /// Counter hookup (nullptrs allowed; detach before registry teardown).
  void SetMetrics(MetricCounter* hits, MetricCounter* misses,
                  MetricCounter* evictions, MetricCounter* invalidations) {
    counters_ = {hits, misses, evictions, invalidations};
  }

  /// Returns the cached plan for `key`, or nullptr on miss. A present entry
  /// whose schema epoch / plans-version moved, or whose extents churned past
  /// the configured delta, is erased (counted as invalidation + miss).
  CachedPlanPtr Lookup(const std::string& key, uint64_t cur_schema_epoch,
                       uint64_t cur_plans_version, const WriteEpochFn& epoch_of);

  void Insert(const std::string& key, CachedPlanPtr plan);

  /// True when any entry exists for this normalized SQL text, regardless of
  /// parameter signature. Read-only (no LRU touch, no validation): EXPLAIN
  /// uses it to annotate `[plan: cached]` without perturbing the cache.
  bool ContainsSql(const std::string& normalized_sql) const;

  size_t size() const;
  size_t capacity() const;

 private:
  mutable std::mutex mu_;
  uint64_t churn_delta_ = 0;
  LruCache<CachedPlanPtr> lru_;
  CacheCounters counters_;
};

/// Byte-bounded LRU of query results for read-only, method-free statements,
/// keyed by plan-cache key + the exact bound parameter values. An entry is
/// served only while StampHolds with zero churn: the schema epoch and every
/// touched extent's write epoch still equal the values captured before the
/// caching execution began — any intervening write (even one racing that
/// execution; see Insert) makes the next lookup recompute, so a cached result
/// is never stale.
class ResultCache {
 public:
  /// `max_bytes` = 0 disables the cache. A single result larger than
  /// max_bytes is never admitted.
  void Configure(size_t max_bytes);
  void SetMetrics(MetricCounter* hits, MetricCounter* misses,
                  MetricCounter* evictions, MetricCounter* invalidations) {
    counters_ = {hits, misses, evictions, invalidations};
  }

  bool Lookup(const std::string& key, uint64_t cur_schema_epoch,
              const WriteEpochFn& epoch_of, QueryResult* out);

  /// Admits a result stamped with the epochs captured BEFORE its execution
  /// started. Re-reads each extent's current epoch through `epoch_of` first:
  /// if anything moved while the query ran, the result may reflect a torn
  /// read and is silently dropped instead of cached.
  void Insert(const std::string& key, const QueryResult& result,
              uint64_t schema_epoch, const std::vector<TouchedExtent>& extents,
              const WriteEpochFn& epoch_of);

  size_t capacity_bytes() const;

 private:
  struct Entry {
    QueryResult result;
    uint64_t schema_epoch = 0;
    std::vector<TouchedExtent> extents;
  };

  mutable std::mutex mu_;
  LruCache<Entry> lru_;  ///< cost = approximate bytes
  CacheCounters counters_;
};

/// Approximate in-memory footprint of a result, for the byte budget.
size_t ApproxResultBytes(const QueryResult& result);

/// Serialized bound-parameter values for the result-cache key (binary
/// encoding, so 2 and 2.0 key differently even though they compare equal).
std::string ParamValueKey(const std::vector<MoodValue>& params);

/// Computes the extent files a bound query can read — every FROM class (with
/// its subclass subtree: EVERY scans and references both reach subclass
/// extents) plus every class traversed by a path expression — each stamped
/// with its current write epoch. Sets *method_free to false when any path
/// step resolves to a method (whose body the epoch machinery cannot see).
Status CollectTouchedExtents(Catalog* catalog, ObjectManager* objects,
                             const BoundQuery& bound,
                             std::vector<TouchedExtent>* extents,
                             bool* method_free);

}  // namespace mood
