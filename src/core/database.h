#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "catalog/catalog.h"
#include "exec/executor.h"
#include "exec/plan_cache.h"
#include "funcman/function_manager.h"
#include "moodview/object_browser.h"
#include "mv/matview.h"
#include "moodview/query_manager.h"
#include "moodview/schema_browser.h"
#include "objects/object_manager.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "stats/statistics.h"
#include "storage/storage_manager.h"
#include "txn/transaction.h"

namespace mood {

struct DatabaseOptions {
  size_t pool_pages = 1024;
  /// Buffer-pool shard count. 0 = auto (max(4, hardware threads), capped so
  /// each shard keeps a useful number of frames); rounded down to a power of
  /// two. Shards cut lock contention between parallel morsel workers.
  size_t pool_shards = 0;
  /// Sequential-scan readahead depth in pages (0 disables). Full scans detect
  /// monotone page access and prefetch this many chain pages ahead.
  size_t readahead_pages = 4;
  /// Write-ahead logging + crash recovery (the ESM "backup and recovery"
  /// function). When off, no log file is kept and transactions are unavailable.
  bool enable_wal = true;
  /// Commit durability policy: kAlways = one fsync per commit, kGroup = a
  /// background flusher batches concurrent committers into shared fsyncs,
  /// kOff = no forcing (durability only at checkpoint/close). Ignored when
  /// enable_wal is false.
  WalFsync wal_fsync = WalFsync::kAlways;
  /// Group-commit collection window in microseconds (see WalOptions); only
  /// meaningful with wal_fsync = kGroup.
  uint32_t group_commit_window_us = 100;
  /// Worker threads for intra-query parallelism. 0 = hardware_concurrency,
  /// 1 = serial execution (the exact pre-parallelism behavior). This is the
  /// default; individual calls override it with QueryOptions::exec_threads.
  size_t exec_threads = 0;
  /// Rows per RowBatch in the batch-at-a-time executor (0 is treated as 1;
  /// values above kMaxBatchRows clamp). Results never depend on it.
  /// Individual calls override with QueryOptions::batch_size.
  size_t batch_size = 1024;
  /// SELECT statements slower than this (wall milliseconds) land in the
  /// slow-query ring buffer (Database::SlowQueries). <= 0 disables recording.
  double slow_query_ms = 250;
  /// Capacity of the slow-query ring buffer; older entries fall out first.
  size_t slow_query_log_size = 64;
  /// Write-epoch churn on a class's extent file beyond which feedback entries
  /// are invalidated and collected statistics auto-refresh.
  uint64_t stats_refresh_epoch_delta = 256;
  /// Capacity of the plan cache: optimized plans (with their compiled
  /// expression programs) keyed by normalized SQL + parameter-type signature,
  /// so hot queries skip parse/optimize/compile. 0 disables. Entries are
  /// validated lazily against the schema epoch, the statistics plans-version
  /// and extent write-epoch churn (stats_refresh_epoch_delta).
  size_t plan_cache_entries = 128;
  /// Byte budget of the result cache for read-only, method-free SELECTs keyed
  /// by plan-cache key + bound parameter values. A cached result is served
  /// only while every touched extent's write epoch is unchanged — never
  /// stale. 0 disables.
  size_t result_cache_bytes = 4u << 20;
  OptimizerOptions optimizer;
};

/// Per-call query options. Every field is an override-or-inherit optional: an
/// unset field falls back to the session defaults installed with
/// Database::SetDefaultQueryOptions, then to the behavior configured by the
/// DatabaseOptions the database was opened with — so `QueryOptions{}`
/// reproduces the plain Execute/Query behavior exactly.
struct QueryOptions {
  /// Worker threads for this call. 0 (and unset everywhere) = the database
  /// default (DatabaseOptions::exec_threads).
  std::optional<size_t> exec_threads;
  /// RowBatch capacity for this call (0 is treated as 1).
  std::optional<size_t> batch_size;
  /// Record a per-operator QueryProfile into ExecResult::profile. Off by
  /// default: the disabled path costs one pointer test per operator.
  std::optional<bool> collect_profile;
  /// Let the optimizer use measured selectivities/costs written back from
  /// profiled executions, and write this execution's profile back when
  /// collect_profile is on. Off reproduces the paper's pure-model plans.
  std::optional<bool> feedback;
  /// Consult and populate the plan/result caches for this call. Off forces a
  /// fresh parse-optimize-compile (the uncached oracle).
  std::optional<bool> use_cache;
};

/// QueryOptions with every inherit chain resolved — what the execution layers
/// consume. Produced by Database::Resolve.
struct ResolvedQueryOptions {
  size_t exec_threads = 0;  ///< 0 = the executor's configured default
  size_t batch_size = ExecOptions::kInheritBatch;
  bool collect_profile = false;
  bool feedback = true;
  bool use_cache = true;
};

/// Options for the consolidated Database::Explain entry point.
struct ExplainOptions {
  enum class Format { kText, kJson };

  /// Execute the query and annotate each operator with actual rows, wall time
  /// and buffer-pool deltas (EXPLAIN ANALYZE).
  bool analyze = false;
  /// Include the optimizer's selectivity/cost dictionaries (ImmSelInfo,
  /// PathSelInfo, per-AND-term plans) ahead of the plan.
  bool verbose = false;
  Format format = Format::kText;
  /// Per-call execution knobs for the ANALYZE run.
  QueryOptions query;
};

/// Structured result of Database::Explain. Render() produces the human-readable
/// (or JSON) form; callers wanting the raw plan or actuals read the fields.
struct ExplainResult {
  QueryOptimizer::Optimized optimized;
  /// Per-operator actuals; null unless analyze was requested.
  std::shared_ptr<QueryProfile> profile;
  /// Query output of the ANALYZE run (empty otherwise).
  QueryResult result;
  bool analyzed = false;
  ExplainOptions options;

  std::string Render() const;
};

class Database;
class Session;
class VersionStore;
struct ExecResult;

/// Move-only RAII handle for one transaction, returned by Session::Begin()
/// (Database::Begin() delegates to the implicit session). Commit() or Abort()
/// finish the transaction explicitly; a handle destroyed while still active
/// aborts it (so an early `return` on error can never leak an open transaction
/// holding locks). A handle outliving its Session (whose destruction aborted
/// the transaction), or a Close() that already aborted it, is inert: the
/// handle watches the session's liveness through a shared flag, so its
/// destructor does nothing and explicit Commit/Abort report InvalidArgument —
/// never a dangling dereference.
class TxnHandle {
 public:
  TxnHandle() = default;
  TxnHandle(TxnHandle&& other) noexcept { *this = std::move(other); }
  TxnHandle& operator=(TxnHandle&& other) noexcept;
  TxnHandle(const TxnHandle&) = delete;
  TxnHandle& operator=(const TxnHandle&) = delete;
  /// Aborts the transaction if still active (best effort; errors are dropped —
  /// finish explicitly when you need the status).
  ~TxnHandle();

  Status Commit();
  Status Abort();

  bool active() const { return txn_ != nullptr; }
  /// The underlying transaction, for lock calls or log inspection; null once
  /// finished. Ownership stays with the TransactionManager.
  Transaction* txn() const { return txn_; }

 private:
  friend class Database;
  friend class Session;
  TxnHandle(Session* session, Transaction* txn,
            std::shared_ptr<const bool> session_alive)
      : session_(session), txn_(txn), session_alive_(std::move(session_alive)) {}

  /// True while session_ is safe to dereference (the Session still exists).
  bool SessionAlive() const { return session_alive_ != nullptr && *session_alive_; }
  void Reset() {
    session_ = nullptr;
    txn_ = nullptr;
    session_alive_.reset();
  }

  Session* session_ = nullptr;
  Transaction* txn_ = nullptr;
  /// Set to false by ~Session; keeps stale handles from touching freed memory.
  std::shared_ptr<const bool> session_alive_;
};

/// A SELECT parsed and normalized once, executable many times with positional
/// `?` parameters bound per call. Obtained from Database::Prepare; move-only
/// in the TxnHandle style. Execution goes through the same plan/result caches
/// as Execute(sql), but skips re-parsing and normalizing the text. A handle
/// outliving its Database is inert: Execute reports InvalidArgument instead of
/// dereferencing freed memory.
class PreparedStatement {
 public:
  PreparedStatement() = default;
  PreparedStatement(PreparedStatement&& other) noexcept { *this = std::move(other); }
  PreparedStatement& operator=(PreparedStatement&& other) noexcept;
  PreparedStatement(const PreparedStatement&) = delete;
  PreparedStatement& operator=(const PreparedStatement&) = delete;

  /// Executes with `params` bound to `?1..?N` in order. params.size() must
  /// equal param_count().
  Result<ExecResult> Execute(const std::vector<MoodValue>& params = {},
                             const QueryOptions& options = {}) const;
  /// Convenience: Execute() unwrapped to the query result.
  Result<QueryResult> Query(const std::vector<MoodValue>& params = {},
                            const QueryOptions& options = {}) const;

  /// Number of `?` placeholders in the statement.
  uint32_t param_count() const { return param_count_; }
  /// The normalized statement text (also the plan-cache key base).
  const std::string& sql() const { return normalized_sql_; }
  bool valid() const { return stmt_ != nullptr; }

 private:
  friend class Database;
  friend class Session;
  PreparedStatement(Database* db, std::shared_ptr<const bool> db_alive,
                    std::shared_ptr<const SelectStmt> stmt,
                    std::string normalized_sql, uint32_t param_count)
      : db_(db),
        db_alive_(std::move(db_alive)),
        stmt_(std::move(stmt)),
        normalized_sql_(std::move(normalized_sql)),
        param_count_(param_count) {}

  /// True while db_ is safe to dereference (the Database object still exists).
  bool DbAlive() const { return db_alive_ != nullptr && *db_alive_; }

  Database* db_ = nullptr;
  /// Set to false by ~Database; keeps stale handles from touching freed memory.
  std::shared_ptr<const bool> db_alive_;
  std::shared_ptr<const SelectStmt> stmt_;
  std::string normalized_sql_;
  uint32_t param_count_ = 0;
};

/// One slow-query ring-buffer entry (see DatabaseOptions::slow_query_ms).
struct SlowQueryRecord {
  std::string sql;
  double elapsed_ms = 0;
  size_t rows = 0;
  size_t threads = 0;
};

/// Result of executing one MOODSQL statement. Which fields are meaningful is
/// determined by `kind`:
///   kQuery   -> query (and profile when QueryOptions::collect_profile is set)
///   kDdl     -> message
///   kDml     -> message, affected; created_oid is engaged for NEW statements
///   kExplain -> message holds the rendered plan (and actuals under ANALYZE)
struct ExecResult {
  enum class Kind { kQuery, kDdl, kDml, kExplain };
  Kind kind = Kind::kDdl;
  QueryResult query;                  ///< kQuery
  std::string message;                ///< DDL/DML summary, EXPLAIN rendering
  std::optional<Oid> created_oid;     ///< engaged only for NEW statements
  size_t affected = 0;                ///< UPDATE/DELETE row counts
  /// Per-operator actuals; non-null only when profiling was requested.
  std::shared_ptr<QueryProfile> profile;
  /// Catalog schema epoch after the statement ran; set for DDL (CREATE/DROP
  /// CLASS, CREATE INDEX, ANALYZE) so callers can observe the epoch the
  /// statement produced — the value that invalidates epoch-stamped caches.
  uint64_t schema_epoch = 0;
};

/// The MOOD database facade (Figure 2.1): the MOODSQL interpreter on top of the
/// kernel — catalog management, dynamic function linking, optimization and
/// interpretation of SQL statements — over the local storage substrate that
/// replaces the Exodus Storage Manager.
class Database {
 public:
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Opens (creating if needed) a database. `path` is a file-name prefix: the
  /// data file is `<path>.mood`, the WAL `<path>.wal`. Runs crash recovery when
  /// the log is non-empty.
  Status Open(const std::string& path, const DatabaseOptions& options = {});
  Status Close();
  bool is_open() const { return storage_ != nullptr && storage_->is_open(); }

  // --- Sessions ------------------------------------------------------------------

  /// Mints a new Session: its own default QueryOptions, its own transaction /
  /// snapshot scope. Concurrent statements must come from distinct sessions
  /// (the wire server gives each connection one). The Database must outlive
  /// uses of the returned session; destroying the session aborts its open
  /// transaction and releases its pinned snapshot.
  std::unique_ptr<Session> CreateSession();

  /// The implicit session behind Database::Execute/Query (tests and embedders
  /// that want Session semantics without minting one).
  Session* session() { return implicit_.get(); }

  // --- SQL surface ---------------------------------------------------------------
  // These delegate to an implicit built-in session, preserving the historical
  // single-connection behavior exactly (see Session for the multi-client API).

  /// Parses and executes one MOODSQL statement.
  Result<ExecResult> Execute(const std::string& sql);
  /// Same, with per-call options (threads, profiling).
  Result<ExecResult> Execute(const std::string& sql, const QueryOptions& options);
  /// Executes a ';'-separated script; returns the last statement's result.
  Result<ExecResult> ExecuteScript(const std::string& sql);
  /// Convenience: SELECT statements only.
  Result<QueryResult> Query(const std::string& sql);
  Result<QueryResult> Query(const std::string& sql, const QueryOptions& options);

  /// Parses and normalizes a SELECT once, returning a handle that executes it
  /// repeatedly with positional `?` parameters (SELECT-only: other statements
  /// have no plan worth caching). The handle shares the database-wide plan and
  /// result caches with Execute(sql) — preparing is a convenience plus one
  /// saved parse, not a separate caching domain.
  Result<PreparedStatement> Prepare(const std::string& sql);

  /// Installs the implicit session's QueryOptions defaults. Deprecated in
  /// favor of Session::SetDefaultQueryOptions — defaults are a per-session
  /// property now; this only affects statements issued through the Database
  /// facade itself, never through explicitly created sessions.
  void SetDefaultQueryOptions(const QueryOptions& options);
  const QueryOptions& default_query_options() const;
  /// Resolves one call's options through the implicit session's inherit chain
  /// (call -> session defaults -> Open-time configuration).
  ResolvedQueryOptions Resolve(const QueryOptions& options) const;

  /// The consolidated EXPLAIN entry point: optimizes `sql` (a SELECT, or an
  /// EXPLAIN statement whose flags merge with `options`) and, when
  /// options.analyze is set, executes it recording per-operator actuals.
  /// Plan-only callers read `.optimized`; the historical "dictionaries +
  /// plan" text is Explain(sql, {.verbose = true}).Render().
  Result<ExplainResult> Explain(const std::string& sql, const ExplainOptions& options);

  /// Engine-wide metrics registry (buffer pool, heap files, object manager,
  /// function manager, lock manager, execution counters). Snapshot() is safe
  /// while queries run. Null before Open.
  MetricsRegistry* metrics() { return metrics_.get(); }

  /// Slow-query ring-buffer contents, oldest first (see
  /// DatabaseOptions::slow_query_ms).
  std::vector<SlowQueryRecord> SlowQueries() const;

  // --- Methods (Function Manager) --------------------------------------------------

  /// Registers a compiled method body; declares the method if absent.
  Status RegisterMethod(const std::string& class_name, const MoodsFunction& decl,
                        NativeFunction body);

  // --- Transactions ----------------------------------------------------------------

  /// Begins a transaction on the implicit session and returns its RAII
  /// handle. While the handle is active, DML through Execute() is logged and
  /// can be rolled back; the handle commits/aborts explicitly and auto-aborts
  /// on destruction. (One active transaction per session.)
  Result<TxnHandle> Begin();
  bool in_transaction() const;

  /// Flushes all pages and truncates the log.
  Status Checkpoint();

  // --- Statistics -------------------------------------------------------------------

  /// Scans a class extent and refreshes the optimizer statistics (Table 8).
  Status CollectStatistics(const std::string& class_name);
  Status CollectAllStatistics();

  // --- Component access ---------------------------------------------------------------

  Catalog* catalog() { return catalog_.get(); }
  ObjectManager* objects() { return objects_.get(); }
  FunctionManager* functions() { return functions_.get(); }
  StatisticsManager* stats() { return stats_.get(); }
  StorageManager* storage() { return storage_.get(); }
  Evaluator* evaluator() { return evaluator_.get(); }
  MoodAlgebra* algebra() { return algebra_.get(); }
  Executor* executor() { return executor_.get(); }
  QueryOptimizer* optimizer() { return optimizer_.get(); }
  SchemaBrowser* schema_browser() { return schema_browser_.get(); }
  ObjectBrowser* object_browser() { return object_browser_.get(); }
  PlanCache* plan_cache() { return plan_cache_.get(); }
  ResultCache* result_cache() { return result_cache_.get(); }
  /// Materialized-extent registry and maintenance engine (null before Open).
  MvManager* matviews() { return matviews_.get(); }
  LogManager* log() { return log_.get(); }
  TransactionManager* txn_manager() { return txn_manager_.get(); }
  /// The MVCC version store backing snapshot reads (null before Open).
  VersionStore* versions() { return versions_.get(); }

  /// MoodView-style query session bound to this database.
  std::unique_ptr<QueryManager> MakeQuerySession();

 private:
  friend class TxnHandle;
  friend class PreparedStatement;
  friend class Session;

  /// Resolves options against one session's defaults (Resolve() is the
  /// implicit-session shorthand).
  ResolvedQueryOptions ResolveFor(const Session& s, const QueryOptions& options) const;

  /// `cache_sql` is the normalized statement text for cache keying; "" means
  /// this call path (scripts, internal queries) bypasses the caches. `s` is
  /// the issuing session: its transaction scopes writes, its pinned snapshot
  /// (if any) scopes reads.
  Result<ExecResult> ExecuteStatement(Session& s, const Statement& stmt,
                                      const QueryOptions& options = {},
                                      const std::string& cache_sql = {});
  Result<ExecResult> ExecSelect(Session& s, const SelectStmt& stmt,
                                const QueryOptions& options,
                                const std::string& cache_sql = {});
  /// The view a snapshot read answers to: the session's pinned view, or a
  /// statement view pinned into `*statement_view` (the caller holds the
  /// shared gate). Null when `snapshot_read` is false (a write transaction
  /// reads latest).
  const ReadView* ReaderView(const Session& s, bool snapshot_read,
                             std::optional<ReadView>* statement_view) const;
  /// The caching SELECT core shared by Execute and PreparedStatement::Execute:
  /// materialized-view probe, plan-cache probe (optimize + compile-memo build
  /// on miss), result-cache probe for read-only method-free statements, then
  /// execution with `params` bound. Outside a write transaction all of it runs
  /// in one shared-gate section against one ReadView; inside one it reads
  /// latest so the transaction sees its own writes.
  Result<ExecResult> ExecSelectCached(Session& s, const SelectStmt& stmt,
                                      const ResolvedQueryOptions& r,
                                      const std::vector<MoodValue>& params,
                                      const std::string& cache_sql);
  /// The plan-cache probe shared by SELECT and DML row selection: the valid
  /// cached plan for `key`, or a freshly optimized one inserted under it.
  Result<CachedPlanPtr> CachedPlanFor(const std::string& key, const SelectStmt& stmt,
                                      bool feedback, uint64_t schema_epoch);
  /// PreparedStatement's entry point (adds statement accounting + slow log).
  Result<ExecResult> ExecPrepared(Session& s, const SelectStmt& stmt,
                                  const std::string& normalized_sql,
                                  const std::vector<MoodValue>& params,
                                  const QueryOptions& options);
  Result<ExecResult> ExecExplain(Session& s, const ExplainStmt& stmt,
                                 const QueryOptions& options,
                                 const std::string& cache_sql = {});
  /// Shared core of Explain()/EXPLAIN statements over an already-parsed SELECT.
  Result<ExplainResult> ExplainSelect(Session& s, const SelectStmt& stmt,
                                      const ExplainOptions& options,
                                      const std::string& cache_sql = {});
  /// Records a finished SELECT into the slow-query ring buffer.
  void NoteQuery(const std::string& sql, double elapsed_ms, size_t rows,
                 size_t threads);
  Result<ExecResult> ExecCreateClass(const CreateClassStmt& stmt);
  Result<ExecResult> ExecNew(Session& s, const NewObjectStmt& stmt);
  Result<ExecResult> ExecUpdate(Session& s, const UpdateStmt& stmt);
  Result<ExecResult> ExecDelete(Session& s, const DeleteStmt& stmt);
  Result<ExecResult> ExecCreateIndex(const CreateIndexStmt& stmt);
  Result<ExecResult> ExecDropClass(const DropClassStmt& stmt);
  Result<ExecResult> ExecAnalyze(const AnalyzeStmt& stmt);
  Result<ExecResult> ExecCreateMatView(const CreateMatViewStmt& stmt);
  Result<ExecResult> ExecDropMatView(const DropMatViewStmt& stmt);

  /// Evaluates the rows a WHERE clause selects for UPDATE/DELETE, planned
  /// through the plan cache.
  Result<std::vector<Oid>> MatchingObjects(const std::string& class_name,
                                           const std::string& var, const ExprPtr& where);

  /// The interpreted fallback: evaluates `return <expr>;` method bodies with
  /// identifiers bound to receiver attributes and parameters.
  Result<MoodValue> InterpretMethodBody(const std::string& class_name,
                                        const MoodsFunction& decl,
                                        const MethodContext& ctx,
                                        const std::vector<MoodValue>& args);

  DatabaseOptions options_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<TransactionManager> txn_manager_;
  /// MVCC pre-image version store + commit gate (always created by Open:
  /// snapshot reads do not require the WAL, only autocommit version batches).
  std::unique_ptr<VersionStore> versions_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<ObjectManager> objects_;
  std::unique_ptr<FunctionManager> functions_;
  std::unique_ptr<Evaluator> evaluator_;
  std::unique_ptr<MoodAlgebra> algebra_;
  std::unique_ptr<StatisticsManager> stats_;
  std::unique_ptr<QueryOptimizer> optimizer_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<SchemaBrowser> schema_browser_;
  std::unique_ptr<ObjectBrowser> object_browser_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<ResultCache> result_cache_;
  /// Materialized extents: registry, dependency graph, delta maintenance.
  /// Holds executor/optimizer/catalog/objects pointers — destroyed first.
  std::unique_ptr<MvManager> matviews_;
  /// Liveness flag shared with sessions and prepared statements; flipped to
  /// false by the destructor so anything outliving the Database stays inert.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// The built-in session behind the Database facade's own SQL surface.
  std::unique_ptr<Session> implicit_;
  /// Every live session (including implicit_), so Close() can abort open
  /// transactions and release pinned snapshots. Guarded by sessions_mu_.
  std::vector<Session*> sessions_;
  mutable std::mutex sessions_mu_;

  /// Engine metrics. Destroyed before the components its probes point into.
  std::unique_ptr<MetricsRegistry> metrics_;
  MetricCounter* statements_counter_ = nullptr;  ///< exec.statements
  MetricCounter* queries_counter_ = nullptr;     ///< exec.queries
  MetricCounter* explains_counter_ = nullptr;    ///< exec.explains
  MetricCounter* slow_counter_ = nullptr;        ///< exec.slow_queries
  MetricHistogram* query_us_hist_ = nullptr;     ///< exec.query_us (microseconds)
  MetricCounter* feedback_absorbed_counter_ = nullptr;  ///< stats.feedback_absorbed

  mutable std::mutex slow_mu_;
  std::deque<SlowQueryRecord> slow_queries_;
};

}  // namespace mood
