#pragma once

#include <map>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "exec/expr_compile.h"
#include "exec/parallel.h"
#include "exec/row_batch.h"
#include "objects/object_manager.h"
#include "optimizer/optimizer.h"
#include "sql/evaluator.h"

namespace mood {

struct QueryProfile;
class MetricCounter;

/// Final query result: named columns of values.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<MoodValue>> rows;

  /// Aligned-table rendering (at most `limit` rows; 0 = all).
  std::string ToString(size_t limit = 0) const;
};

/// Per-call execution options. Every field defaults to "inherit the executor
/// default", so `ExecOptions{}` reproduces the configured behavior exactly;
/// callers override individual knobs per query without mutating shared state
/// (the Executor itself stays const and therefore safe for concurrent callers).
struct ExecOptions {
  /// Sentinel: use the executor's configured batch size.
  static constexpr size_t kInheritBatch = static_cast<size_t>(-1);

  /// Worker threads for this call; 0 = the executor default.
  size_t threads = 0;
  /// Rows per execution batch; kInheritBatch = the executor default. 0 is
  /// treated as 1 and values above kMaxBatchRows are clamped.
  size_t batch_size = kInheritBatch;
  /// When non-null, per-operator actuals (rows in/out, morsels, wall time,
  /// buffer-pool deltas) are recorded as children of this node. Null (the
  /// default) skips every profiling hook behind a single inlined pointer test,
  /// so disabled profiling costs nothing measurable.
  QueryProfile* profile = nullptr;
  /// Bound values for `?` positional parameters, in placeholder order (owned
  /// by the caller for the duration of the call; null = none bound).
  const std::vector<MoodValue>* params = nullptr;
  /// Cross-execution memo of compiled programs, owned by a cached plan.
  /// Null (the default) compiles fresh per call.
  ProgramMemo* program_memo = nullptr;
  /// Reader snapshot for multi-version reads: when active, scans, fetches and
  /// index probes reconstruct the state as of `snapshot.csn` (see
  /// VersionStore). Inactive (default) reads latest — the embedded behavior.
  SnapshotView snapshot;
  /// MV delta maintenance: when set, the kBindClass leaf for `*bind_var`
  /// emits exactly `*bind_oids` (in the given order) instead of scanning its
  /// extent — re-deriving a view's output rows for just the delta objects.
  const std::string* bind_var = nullptr;
  const std::vector<Oid>* bind_oids = nullptr;
};

/// Executes physical plans produced by the optimizer, then applies the clause
/// pipeline of Figure 7.1: FROM -> WHERE -> GROUP BY -> HAVING -> SELECT
/// (projection) -> ORDER BY.
///
/// Operators run batch-at-a-time: they exchange fixed-size RowBatches
/// (column-major Oid slots plus a selection vector), expressions evaluate
/// through ExprProgram::EvalBatch's columnar loops, and the morsel scheduler
/// hands workers whole batches. Batch geometry never shows in the result: any
/// batch size and thread count returns the rows and error status of
/// batch_size = 1 at one thread (the geometry reference), and
/// tests/naive_oracle.h checks results against a plan-free row-by-row
/// evaluator (tests/batch_exec_test.cc, tests/parallel_exec_test.cc).
///
/// With threads > 1 the operators use morsel-driven intra-query parallelism:
/// extent scans partition into extent pages, filters and join probe sides into
/// whole batches, and index selections into per-probe tasks. Partial results
/// are merged in morsel order, so the produced BatchSet holds the rows of
/// serial execution in the same order (the determinism property
/// parallel_exec_test asserts).
/// Only read paths run concurrently; the kernel structures underneath
/// (BufferPool, HeapFile/BpTree reads, FunctionManager invocation) are
/// concurrent-read safe, while Catalog/ObjectManager schema state must not be
/// mutated during a query (see DESIGN.md "Parallel query execution").
class Executor {
 public:
  /// `threads` (0 is treated as 1) and `batch_size` (0 is treated as 1) are
  /// the defaults for calls that do not override them through ExecOptions.
  /// One Deref cache of DerefCache::kCapacity entries lives for the duration
  /// of each ExecutePlan / ExecuteSelect call, carries the call's reader
  /// snapshot, and is shared by all of that query's morsel workers.
  Executor(ObjectManager* objects, Evaluator* evaluator, MoodAlgebra* algebra,
           size_t threads, size_t batch_size)
      : objects_(objects),
        evaluator_(evaluator),
        algebra_(algebra),
        threads_(threads == 0 ? 1 : threads),
        batch_size_(ClampBatchSize(batch_size)) {}

  size_t threads() const { return threads_; }
  size_t batch_size() const { return batch_size_; }

  Result<BatchSet> ExecutePlan(const PlanPtr& plan) const;
  Result<BatchSet> ExecutePlan(const PlanPtr& plan, const ExecOptions& options) const;

  Result<QueryResult> ExecuteSelect(const QueryOptimizer::Optimized& optimized) const;
  Result<QueryResult> ExecuteSelect(const QueryOptimizer::Optimized& optimized,
                                    const ExecOptions& options) const;

  /// Evaluates the clause pipeline over an already-computed plan result (the
  /// materialized-view manager finishes its maintenance plans through this).
  Result<QueryResult> FinishSelect(const SelectStmt& stmt, BatchSet rows) const;

  /// Wires the exec.expr.* counters (registered by Database::Open): programs
  /// compiled and constant subtrees folded.
  void SetExprMetrics(MetricCounter* compiled, MetricCounter* folded) {
    expr_compiled_ = compiled;
    expr_folded_ = folded;
  }

  /// Wires the exec.batch.* counters (registered by Database::Open): RowBatches
  /// produced by plan operators and the live rows they carried.
  void SetBatchMetrics(MetricCounter* batches, MetricCounter* rows) {
    batch_batches_ = batches;
    batch_rows_ = rows;
  }

 private:
  /// Per-call state threaded through the operator tree: resolved options plus
  /// the profile node operator children attach under (null = profiling off).
  struct Ctx {
    size_t threads = 1;
    size_t batch = kDefaultBatchRows;  ///< rows per batch (>= 1)
    DerefCache* cache = nullptr;
    QueryProfile* profile = nullptr;
    BufferPool* pool = nullptr;  ///< sampled for per-operator deltas when profiling
    /// Range-variable declarations for plan-time slot/class binding (owned by
    /// the caller; null: every path step goes through Evaluator::Step).
    const std::map<std::string, FromEntry>* range_vars = nullptr;
    /// Bound `?` parameter values for this call (null = none bound).
    const std::vector<MoodValue>* params = nullptr;
    /// Compiled-program memo of the (cached) plan being executed; null
    /// compiles fresh per call.
    ProgramMemo* program_memo = nullptr;
    /// Reader snapshot threaded down from ExecOptions (also attached to the
    /// per-query DerefCache so every cached deref is snapshot-aware).
    SnapshotView snapshot;
    /// MV delta restriction threaded down from ExecOptions (see bind_var).
    const std::string* bind_var = nullptr;
    const std::vector<Oid>* bind_oids = nullptr;
  };

  Result<BatchSet> Exec(const PlanPtr& plan, Ctx& ctx) const;
  Result<BatchSet> Dispatch(const PlanNode& node, Ctx& ctx) const;
  Result<BatchSet> ExecBind(const PlanNode& node, Ctx& ctx) const;
  Result<BatchSet> ExecIndexSelect(const PlanNode& node, Ctx& ctx) const;
  Result<BatchSet> ExecFilter(const PlanNode& node, Ctx& ctx) const;
  Result<BatchSet> ExecPointerJoin(const PlanNode& node, Ctx& ctx) const;
  Result<BatchSet> ExecNestedLoop(const PlanNode& node, Ctx& ctx) const;
  Result<BatchSet> ExecUnion(const PlanNode& node, Ctx& ctx) const;

  Result<QueryResult> Finish(const SelectStmt& stmt, BatchSet rows, Ctx& ctx) const;

  /// Applies one predicate chain to a batch, rewriting its selection vector in
  /// place. Reproduces row-by-row evaluation exactly: predicates run in order
  /// with short-circuit, and the returned status is the error of the smallest
  /// row index that fails (rows at or past it are dropped from the selection —
  /// row-by-row evaluation never reaches them).
  Status FilterBatch(const std::vector<ExprProgramPtr>& programs, RowBatch* batch,
                     Ctx& ctx) const;

  /// Evaluates one clause expression for every live row of `bs` (row order),
  /// appending into `out`. Rows at or past `limit` are skipped (a smaller-row
  /// error in an earlier column already decided the query). On a row error,
  /// records its row index and status instead of filling the value.
  void EvalColumn(const ExprProgram& prog, const BatchSet& bs, size_t limit, Ctx& ctx,
                  ExprProgram::BatchScratch* scratch, std::vector<MoodValue>* out,
                  size_t* err_row, Status* err) const;

  /// Column-wise evaluation of a clause's expression list with the serial
  /// loop's error ordering: the surfaced error is the candidate with the
  /// smallest (row, expression-index) — exactly what the row-outer,
  /// expression-inner serial loop hits first.
  Status EvalColumns(const std::vector<ExprProgramPtr>& progs, const BatchSet& bs,
                     Ctx& ctx, std::vector<std::vector<MoodValue>>* cols) const;

  /// Resolves ExecOptions inherit-sentinels (threads, profiling pool handle)
  /// against the executor defaults. The Deref cache lives on the call sites'
  /// stack; they attach it.
  Ctx MakeCtx(const ExecOptions& options) const;

  /// Slot/class bindings for compiling expressions over rows shaped `vars`.
  /// Uses the ACTUAL BatchSet var order for slot indices (PlanNode::BoundVars is
  /// sorted and may disagree with runtime row layout).
  ExprCompileEnv CompileEnvOf(const std::vector<std::string>& vars,
                              const std::map<std::string, FromEntry>* range_vars) const;

  /// Compiles one expression against `vars` (through the plan's memo when it
  /// has one), bumping the exec.expr.* counters. Null only for a null `expr`.
  ExprProgramPtr CompileExpr(const ExprPtr& expr, const std::vector<std::string>& vars,
                             const Ctx& ctx) const;

  /// Probe/intersect step of kIndexSelect. Under a reader snapshot the
  /// index hits are compensated with the scanned files' version chains, so
  /// the answer is the snapshot's at the cost of the probe plus the chains.
  Result<std::vector<Oid>> RunIndexProbes(const PlanNode& node, Ctx& ctx) const;

  /// True when any extent file a scan over `from` visits currently has live
  /// version chains — the trigger for the binary join index's snapshot
  /// fallback (the index maps the latest references, not the snapshot's).
  Result<bool> SnapshotScanHasVersions(const FromEntry& from,
                                       const SnapshotView& snap) const;

  ObjectManager* objects_;
  Evaluator* evaluator_;
  MoodAlgebra* algebra_;
  const size_t threads_;
  const size_t batch_size_;
  MetricCounter* expr_compiled_ = nullptr;
  MetricCounter* expr_folded_ = nullptr;
  MetricCounter* batch_batches_ = nullptr;
  MetricCounter* batch_rows_ = nullptr;
};

}  // namespace mood
