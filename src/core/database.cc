#include "core/database.h"

#include <algorithm>

#include "core/session.h"
#include "exec/parallel.h"
#include "optimizer/feedback.h"
#include "txn/version_store.h"
#include "types/operand.h"

namespace mood {

Database::Database() {
  // The implicit session exists for the Database's whole lifetime (it backs
  // the facade's own SQL surface even before Open / after Close).
  implicit_ = std::unique_ptr<Session>(new Session(this, alive_));
  sessions_.push_back(implicit_.get());
}

Database::~Database() {
  // Outstanding TxnHandles and sessions check this flag before dereferencing
  // their back pointer; flip it first so anything destroyed after us is a
  // no-op.
  *alive_ = false;
  if (is_open()) Close();
}

std::unique_ptr<Session> Database::CreateSession() {
  auto session = std::unique_ptr<Session>(new Session(this, alive_));
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.push_back(session.get());
  return session;
}

Status Database::Open(const std::string& path, const DatabaseOptions& options) {
  if (is_open()) return Status::InvalidArgument("database already open");
  options_ = options;
  storage_ = std::make_unique<StorageManager>();
  StorageOptions sopts;
  sopts.pool_pages = options.pool_pages;
  sopts.pool_shards = options.pool_shards;
  sopts.readahead_pages = options.readahead_pages;
  // With a WAL, torn data pages are healed from logged full images, so the
  // directory load may tolerate them; without one they stay hard errors.
  sopts.tolerate_torn_pages = options.enable_wal;
  MOOD_RETURN_IF_ERROR(storage_->Open(path + ".mood", sopts));

  // MVCC version store: always present, WAL or not. Transactions stamp their
  // batches at durable commit; autocommit writes use self-committing
  // mini-batches inside ObjectManager.
  versions_ = std::make_unique<VersionStore>();
  if (options.enable_wal) {
    log_ = std::make_unique<LogManager>();
    WalOptions wopts;
    wopts.fsync_mode = options.wal_fsync;
    wopts.group_commit_window_us = options.group_commit_window_us;
    MOOD_RETURN_IF_ERROR(log_->Open(path + ".wal", wopts));
    locks_ = std::make_unique<LockManager>();
    txn_manager_ = std::make_unique<TransactionManager>(
        storage_->buffer_pool(), log_.get(), locks_.get(), versions_.get());
    // Crash recovery: replay any log left by an unclean shutdown.
    RecoveryManager recovery(storage_->buffer_pool(), log_.get());
    MOOD_ASSIGN_OR_RETURN(auto report, recovery.Recover());
    (void)report;
    // The directory was read before replay; re-read it from recovered pages.
    MOOD_RETURN_IF_ERROR(storage_->ReloadDirectory());
  }

  catalog_ = std::make_unique<Catalog>();
  MOOD_RETURN_IF_ERROR(catalog_->Open(storage_.get()));
  objects_ = std::make_unique<ObjectManager>(storage_.get(), catalog_.get(), versions_.get());
  if (txn_manager_ != nullptr) {
    txn_manager_->SetRollbackHook(
        [objects = objects_.get()](uint64_t batch) { return objects->UndoIndexWrites(batch); });
  }
  functions_ = std::make_unique<FunctionManager>(catalog_.get());
  evaluator_ = std::make_unique<Evaluator>(objects_.get(), functions_.get());
  algebra_ = std::make_unique<MoodAlgebra>(objects_.get(), evaluator_.get());
  stats_ = std::make_unique<StatisticsManager>(objects_.get());
  FeedbackOptions fopts;
  fopts.max_entries = options.feedback_entries;
  fopts.refresh_epoch_delta = options.stats_refresh_epoch_delta;
  stats_->Configure(options.stats_histogram_buckets, fopts);
  optimizer_ = std::make_unique<QueryOptimizer>(catalog_.get(), objects_.get(),
                                                stats_.get(), options.optimizer);
  executor_ = std::make_unique<Executor>(
      objects_.get(), evaluator_.get(), algebra_.get(),
      options.exec_threads == 0 ? DefaultExecThreads() : options.exec_threads,
      options.batch_size);
  schema_browser_ = std::make_unique<SchemaBrowser>(catalog_.get());
  object_browser_ = std::make_unique<ObjectBrowser>(objects_.get());
  plan_cache_ = std::make_unique<PlanCache>();
  plan_cache_->Configure(options.plan_cache_entries, options.stats_refresh_epoch_delta);
  result_cache_ = std::make_unique<ResultCache>();
  result_cache_->Configure(options.result_cache_bytes);
  matviews_ = std::make_unique<MvManager>(catalog_.get(), objects_.get(),
                                          optimizer_.get(), executor_.get());
  MOOD_RETURN_IF_ERROR(matviews_->Load(catalog_->AllViews()));
  // Delta capture: every object write (inside the exclusive gate, after the
  // write-epoch bump) routes through the view dependency graph.
  objects_->SetWriteObserver(
      [this](uint16_t file, Oid oid) { matviews_->OnWrite(file, oid); });
  implicit_->SetDefaultQueryOptions(QueryOptions{});

  // Engine metrics: every kernel component registers its probe; the facade
  // owns the execution counters. Probes hold component pointers, so Close()
  // tears the registry down first.
  metrics_ = std::make_unique<MetricsRegistry>();
  storage_->RegisterMetrics(metrics_.get());
  objects_->RegisterMetrics(metrics_.get());
  versions_->RegisterMetrics(metrics_.get());
  functions_->RegisterMetrics(metrics_.get());
  if (locks_ != nullptr) locks_->RegisterMetrics(metrics_.get());
  if (log_ != nullptr) log_->RegisterMetrics(metrics_.get());
  statements_counter_ = metrics_->Counter("exec.statements");
  queries_counter_ = metrics_->Counter("exec.queries");
  explains_counter_ = metrics_->Counter("exec.explains");
  slow_counter_ = metrics_->Counter("exec.slow_queries");
  query_us_hist_ = metrics_->Histogram("exec.query_us");
  executor_->SetExprMetrics(metrics_->Counter("exec.expr.compiled"),
                            metrics_->Counter("exec.expr.const_folded"));
  executor_->SetBatchMetrics(metrics_->Counter("exec.batch.batches"),
                             metrics_->Counter("exec.batch.rows"));
  stats_->SetMetrics(metrics_->Counter("stats.feedback_hits"),
                     metrics_->Counter("stats.feedback_writes"),
                     metrics_->Counter("stats.feedback_invalidations"),
                     metrics_->Counter("stats.refreshes"));
  feedback_absorbed_counter_ = metrics_->Counter("stats.feedback_absorbed");
  plan_cache_->SetMetrics(metrics_->Counter("cache.plan.hits"),
                          metrics_->Counter("cache.plan.misses"),
                          metrics_->Counter("cache.plan.evictions"),
                          metrics_->Counter("cache.plan.invalidations"));
  result_cache_->SetMetrics(metrics_->Counter("cache.result.hits"),
                            metrics_->Counter("cache.result.misses"),
                            metrics_->Counter("cache.result.evictions"),
                            metrics_->Counter("cache.result.invalidations"));
  matviews_->SetMetrics(metrics_->Counter("mv.hits"),
                        metrics_->Counter("mv.maintenance_rows"),
                        metrics_->Counter("mv.full_refreshes"),
                        metrics_->Counter("mv.rebuilds"));

  // "The power of object oriented applications lies in the interpretation":
  // methods without a registered compiled body fall back to interpreting simple
  // `return <expr>;` bodies.
  functions_->SetInterpretedFallback(
      [this](const std::string& cls, const MoodsFunction& decl, const MethodContext& ctx,
             const std::vector<MoodValue>& args) {
        return InterpretMethodBody(cls, decl, ctx, args);
      });
  return Status::OK();
}

Status Database::Close() {
  if (!is_open()) return Status::OK();
  {
    // Abort every session's open transaction and release pinned snapshots.
    // Any TxnHandle still out there becomes inert: Session::FinishTxn rejects
    // it once the session's txn_ is cleared.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (Session* s : sessions_) {
      if (s->txn_ != nullptr && txn_manager_ != nullptr) {
        MOOD_RETURN_IF_ERROR(txn_manager_->Abort(s->txn_));
        s->txn_ = nullptr;
      }
      s->view_.reset();
    }
  }
  if (txn_manager_ != nullptr) txn_manager_->PruneCompleted();
  MOOD_RETURN_IF_ERROR(Checkpoint());
  // Executor holds raw counter pointers into the registry; detach them first.
  executor_->SetExprMetrics(nullptr, nullptr);
  executor_->SetBatchMetrics(nullptr, nullptr);
  stats_->SetMetrics(nullptr, nullptr, nullptr, nullptr);
  plan_cache_->SetMetrics(nullptr, nullptr, nullptr, nullptr);
  result_cache_->SetMetrics(nullptr, nullptr, nullptr, nullptr);
  objects_->SetWriteObserver(nullptr);
  matviews_->SetMetrics(nullptr, nullptr, nullptr, nullptr);
  metrics_.reset();
  statements_counter_ = queries_counter_ = explains_counter_ = slow_counter_ = nullptr;
  query_us_hist_ = nullptr;
  feedback_absorbed_counter_ = nullptr;
  schema_browser_.reset();
  object_browser_.reset();
  plan_cache_.reset();
  result_cache_.reset();
  matviews_.reset();
  executor_.reset();
  optimizer_.reset();
  stats_.reset();
  algebra_.reset();
  evaluator_.reset();
  functions_.reset();
  objects_.reset();
  catalog_.reset();
  txn_manager_.reset();
  locks_.reset();
  versions_.reset();
  if (log_) {
    MOOD_RETURN_IF_ERROR(log_->Close());
    log_.reset();
  }
  MOOD_RETURN_IF_ERROR(storage_->Close());
  storage_.reset();
  return Status::OK();
}

Result<TxnHandle> Database::Begin() { return implicit_->Begin(); }

bool Database::in_transaction() const { return implicit_->in_transaction(); }

TxnHandle& TxnHandle::operator=(TxnHandle&& other) noexcept {
  if (this == &other) return *this;
  if (txn_ != nullptr && SessionAlive()) {
    (void)session_->FinishTxn(txn_, /*commit=*/false);
  }
  session_ = other.session_;
  txn_ = other.txn_;
  session_alive_ = std::move(other.session_alive_);
  other.session_ = nullptr;
  other.txn_ = nullptr;
  return *this;
}

TxnHandle::~TxnHandle() {
  if (txn_ != nullptr && SessionAlive()) {
    (void)session_->FinishTxn(txn_, /*commit=*/false);
  }
}

Status TxnHandle::Commit() {
  if (txn_ == nullptr) return Status::InvalidArgument("transaction handle is empty");
  if (!SessionAlive()) {
    Reset();
    return Status::InvalidArgument("session no longer exists");
  }
  Status st = session_->FinishTxn(txn_, /*commit=*/true);
  Reset();
  return st;
}

Status TxnHandle::Abort() {
  if (txn_ == nullptr) return Status::InvalidArgument("transaction handle is empty");
  if (!SessionAlive()) {
    Reset();
    return Status::InvalidArgument("session no longer exists");
  }
  Status st = session_->FinishTxn(txn_, /*commit=*/false);
  Reset();
  return st;
}

Status Database::Checkpoint() {
  // Exclusive gate: page flushing must not observe a writer mid-mutation.
  CommitGate::ExclusiveGuard gate(&versions_->gate());
  MOOD_RETURN_IF_ERROR(storage_->Checkpoint());
  if (log_ && (txn_manager_ == nullptr || !txn_manager_->HasActive())) {
    MOOD_RETURN_IF_ERROR(log_->Truncate());
  }
  return Status::OK();
}

Status Database::CollectStatistics(const std::string& class_name) {
  // Shared gate: the collection scan reads heap pages that concurrent writers
  // mutate only inside the gate's exclusive sections.
  CommitGate::SharedGuard gate(&versions_->gate());
  return stats_->Collect(class_name);
}

Status Database::CollectAllStatistics() {
  for (const MoodsType* t : catalog_->AllTypes()) {
    if (t->is_class) MOOD_RETURN_IF_ERROR(CollectStatistics(t->name));
  }
  return Status::OK();
}

Status Database::RegisterMethod(const std::string& class_name,
                                const MoodsFunction& decl, NativeFunction body) {
  return functions_->Register(class_name, decl, std::move(body));
}

Result<ExecResult> Database::Execute(const std::string& sql) {
  return implicit_->Execute(sql, QueryOptions{});
}

ResolvedQueryOptions Database::ResolveFor(const Session& s,
                                          const QueryOptions& options) const {
  auto pick = [](const auto& call, const auto& session, auto fallback) {
    return call.has_value() ? *call
                            : (session.has_value() ? *session : fallback);
  };
  const QueryOptions& d = s.defaults_;
  ResolvedQueryOptions r;
  r.exec_threads = pick(options.exec_threads, d.exec_threads, size_t{0});
  r.batch_size = pick(options.batch_size, d.batch_size, ExecOptions::kInheritBatch);
  r.collect_profile = pick(options.collect_profile, d.collect_profile, false);
  r.feedback = pick(options.feedback, d.feedback, true);
  r.use_cache = pick(options.use_cache, d.use_cache, true);
  return r;
}

ResolvedQueryOptions Database::Resolve(const QueryOptions& options) const {
  return ResolveFor(*implicit_, options);
}

void Database::SetDefaultQueryOptions(const QueryOptions& options) {
  implicit_->SetDefaultQueryOptions(options);
}

const QueryOptions& Database::default_query_options() const {
  return implicit_->default_query_options();
}

Result<ExecResult> Database::Execute(const std::string& sql,
                                     const QueryOptions& options) {
  return implicit_->Execute(sql, options);
}

Result<PreparedStatement> Database::Prepare(const std::string& sql) {
  if (!is_open()) return Status::InvalidArgument("database is not open");
  MOOD_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  auto* select = std::get_if<SelectStmt>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument("Prepare supports SELECT statements only");
  }
  auto shared = std::make_shared<const SelectStmt>(std::move(*select));
  const uint32_t params = ParamCount(*shared);
  return PreparedStatement(this, alive_, std::move(shared), NormalizeSql(sql),
                           params);
}

PreparedStatement& PreparedStatement::operator=(PreparedStatement&& other) noexcept {
  if (this == &other) return *this;
  db_ = other.db_;
  db_alive_ = std::move(other.db_alive_);
  stmt_ = std::move(other.stmt_);
  normalized_sql_ = std::move(other.normalized_sql_);
  param_count_ = other.param_count_;
  other.db_ = nullptr;
  other.param_count_ = 0;
  return *this;
}

Result<ExecResult> PreparedStatement::Execute(const std::vector<MoodValue>& params,
                                              const QueryOptions& options) const {
  if (stmt_ == nullptr) return Status::InvalidArgument("prepared statement is empty");
  if (!DbAlive()) return Status::InvalidArgument("database no longer exists");
  if (params.size() != param_count_) {
    return Status::InvalidArgument(
        "statement expects " + std::to_string(param_count_) + " parameter(s), got " +
        std::to_string(params.size()));
  }
  return db_->ExecPrepared(*db_->implicit_, *stmt_, normalized_sql_, params, options);
}

Result<QueryResult> PreparedStatement::Query(const std::vector<MoodValue>& params,
                                             const QueryOptions& options) const {
  MOOD_ASSIGN_OR_RETURN(ExecResult res, Execute(params, options));
  return std::move(res.query);
}

Result<ExecResult> Database::ExecPrepared(Session& s, const SelectStmt& stmt,
                                          const std::string& normalized_sql,
                                          const std::vector<MoodValue>& params,
                                          const QueryOptions& options) {
  if (!is_open()) return Status::InvalidArgument("database is not open");
  if (statements_counter_ != nullptr) statements_counter_->Add(1);
  uint64_t start = ProfileNowNs();
  Result<ExecResult> res =
      ExecSelectCached(s, stmt, ResolveFor(s, options), params, normalized_sql);
  if (res.ok()) {
    double elapsed_ms = static_cast<double>(ProfileNowNs() - start) / 1e6;
    size_t threads = ResolveFor(s, options).exec_threads;
    if (threads == 0) threads = executor_->threads();
    NoteQuery(normalized_sql, elapsed_ms, res.value().query.rows.size(), threads);
  }
  return res;
}

Result<ExecResult> Database::ExecuteScript(const std::string& sql) {
  return implicit_->ExecuteScript(sql);
}

Result<QueryResult> Database::Query(const std::string& sql) {
  return implicit_->Query(sql, QueryOptions{});
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    const QueryOptions& options) {
  return implicit_->Query(sql, options);
}

Result<ExplainResult> Database::Explain(const std::string& sql,
                                        const ExplainOptions& options) {
  MOOD_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  if (const auto* ex = std::get_if<ExplainStmt>(&stmt)) {
    // `EXPLAIN [ANALYZE] SELECT ...` text passed through the API: statement
    // flags merge with (never cancel) the caller's options.
    ExplainOptions merged = options;
    merged.analyze = options.analyze || ex->analyze;
    merged.verbose = options.verbose || ex->verbose;
    return ExplainSelect(*implicit_, ex->select, merged, NormalizeSql(sql));
  }
  const auto* select = std::get_if<SelectStmt>(&stmt);
  if (select == nullptr) return Status::InvalidArgument("EXPLAIN requires SELECT");
  return ExplainSelect(*implicit_, *select, options, NormalizeSql(sql));
}

Result<ExplainResult> Database::ExplainSelect(Session& s, const SelectStmt& stmt,
                                              const ExplainOptions& options,
                                              const std::string& cache_sql) {
  if (explains_counter_ != nullptr) explains_counter_->Add(1);
  const ResolvedQueryOptions r = ResolveFor(s, options.query);
  ExplainResult out;
  out.options = options;
  // Same read physics as ExecSelectCached: outside a write transaction
  // optimizing (which may read extent pages: calibration, stats refresh) and
  // the ANALYZE run read under the shared gate, the latter at a snapshot.
  const bool snapshot_read = s.txn_ == nullptr;
  CommitGate::SharedGuard gate(snapshot_read ? &versions_->gate() : nullptr);
  // EXPLAIN always re-optimizes: its plan copy is annotated (notes below) and
  // must never alias a shared cached plan. The cache is only *probed* to
  // report whether execution would hit it.
  MOOD_ASSIGN_OR_RETURN(out.optimized, optimizer_->Optimize(stmt, r.feedback));
  if (options.verbose && plan_cache_ != nullptr && !cache_sql.empty()) {
    out.optimized.plan->note =
        plan_cache_->ContainsSql(cache_sql) ? "plan: cached" : "plan: fresh";
  }
  if (options.verbose && matviews_ != nullptr && !cache_sql.empty() &&
      s.txn_ == nullptr && matviews_->WouldServe(cache_sql)) {
    // Execution would serve this statement from a materialized extent instead
    // of the plan below (freshness permitting). "] [" keeps each annotation
    // its own bracket group in the rendered plan line.
    std::string& note = out.optimized.plan->note;
    note = note.empty() ? std::string("mv: rewritten")
                        : note + "] [" + "mv: rewritten";
  }
  if (options.analyze) {
    out.analyzed = true;
    out.profile = std::make_shared<QueryProfile>();
    out.profile->label = "RESULT";
    ExecOptions exec;
    exec.threads = r.exec_threads;
    exec.batch_size = r.batch_size;
    exec.profile = out.profile.get();
    std::optional<ReadView> statement_view;
    if (const ReadView* view = ReaderView(s, snapshot_read, &statement_view)) {
      exec.snapshot = view->snapshot();
    }
    uint64_t start = ProfileNowNs();
    MOOD_ASSIGN_OR_RETURN(out.result, executor_->ExecuteSelect(out.optimized, exec));
    out.profile->wall_ns = ProfileNowNs() - start;
    out.profile->rows_out = out.result.rows.size();
    if (!out.profile->children.empty()) {
      out.profile->rows_in = out.profile->children.front()->rows_out;
    }
    if (r.feedback) {
      size_t n = AbsorbProfile(out.optimized, *out.profile, stats_.get());
      if (n > 0 && feedback_absorbed_counter_ != nullptr) {
        feedback_absorbed_counter_->Add(n);
      }
    }
    if (queries_counter_ != nullptr) queries_counter_->Add(1);
  }
  return out;
}

namespace {
/// Mirrors a plan subtree into an unexecuted profile skeleton (estimates only),
/// so plan-only EXPLAIN shares the profile renderings.
void MirrorPlan(const PlanPtr& plan, QueryProfile* parent) {
  QueryProfile* p = parent->AddChild(plan->Describe());
  p->est_rows = plan->est_rows;
  p->est_cost = plan->est_cost;
  p->has_estimates = true;
  if (plan->child) MirrorPlan(plan->child, p);
  if (plan->left) MirrorPlan(plan->left, p);
  if (plan->right) MirrorPlan(plan->right, p);
  for (const auto& c : plan->children) MirrorPlan(c, p);
}
}  // namespace

std::string ExplainResult::Render() const {
  QueryProfile::RenderOptions render;
  if (options.format == ExplainOptions::Format::kJson) {
    if (analyzed && profile != nullptr) return profile->ToJson(render);
    QueryProfile skeleton;
    skeleton.label = "PLAN";
    MirrorPlan(optimized.plan, &skeleton);
    render.timing = false;
    render.buffer = false;
    return skeleton.ToJson(render);
  }
  std::string out;
  if (options.verbose) out += optimized.Explain();
  if (analyzed && profile != nullptr) {
    if (!out.empty()) out += "\n";
    out += "EXPLAIN ANALYZE:\n";
    out += profile->Render(render);
  } else if (!options.verbose) {
    out += "Plan:\n" + optimized.plan->Explain(1);
  }
  return out;
}

Result<ExecResult> Database::ExecuteStatement(Session& s, const Statement& stmt,
                                              const QueryOptions& options,
                                              const std::string& cache_sql) {
  if (statements_counter_ != nullptr) statements_counter_->Add(1);
  if (s.view_ && !std::holds_alternative<SelectStmt>(stmt) &&
      !std::holds_alternative<ExplainStmt>(stmt)) {
    // A pinned snapshot makes the session read-only by construction: its own
    // writes could never become visible at the pinned CSN.
    return Status::InvalidArgument(
        "session has a pinned snapshot (read-only); EndSnapshot() before DML/DDL");
  }
  return std::visit(
      [this, &s, &options, &cache_sql](const auto& st) -> Result<ExecResult> {
        using T = std::decay_t<decltype(st)>;
        if constexpr (std::is_same_v<T, SelectStmt>) return ExecSelect(s, st, options, cache_sql);
        else if constexpr (std::is_same_v<T, ExplainStmt>) return ExecExplain(s, st, options, cache_sql);
        else if constexpr (std::is_same_v<T, CreateClassStmt>) return ExecCreateClass(st);
        else if constexpr (std::is_same_v<T, NewObjectStmt>) return ExecNew(s, st);
        else if constexpr (std::is_same_v<T, UpdateStmt>) return ExecUpdate(s, st);
        else if constexpr (std::is_same_v<T, DeleteStmt>) return ExecDelete(s, st);
        else if constexpr (std::is_same_v<T, CreateIndexStmt>) return ExecCreateIndex(st);
        else if constexpr (std::is_same_v<T, AnalyzeStmt>) return ExecAnalyze(st);
        else if constexpr (std::is_same_v<T, CreateMatViewStmt>) return ExecCreateMatView(st);
        else if constexpr (std::is_same_v<T, DropMatViewStmt>) return ExecDropMatView(st);
        else return ExecDropClass(st);
      },
      stmt);
}

Result<ExecResult> Database::ExecSelect(Session& s, const SelectStmt& stmt,
                                        const QueryOptions& options,
                                        const std::string& cache_sql) {
  return ExecSelectCached(s, stmt, ResolveFor(s, options), {}, cache_sql);
}

const ReadView* Database::ReaderView(const Session& s, bool snapshot_read,
                                     std::optional<ReadView>* statement_view) const {
  if (!snapshot_read) return nullptr;
  if (s.view_) return &*s.view_;
  statement_view->emplace(objects_->PinReadView());
  return &**statement_view;
}

Result<ExecResult> Database::ExecSelectCached(Session& s, const SelectStmt& stmt,
                                              const ResolvedQueryOptions& r,
                                              const std::vector<MoodValue>& params,
                                              const std::string& cache_sql) {
  if (queries_counter_ != nullptr) queries_counter_->Add(1);

  // --- Snapshot + gate scope ----------------------------------------------
  // Outside a write transaction a SELECT runs at a consistent snapshot under
  // the commit gate's shared side, held from here to the end of execution:
  // writers' heap mutations never physically race the scan, and logically the
  // statement sees exactly the commits with CSN <= its view's pin (the
  // session's long pin, or a fresh statement pin). The view probe, plan
  // cache, result cache and executor below all answer to that one view.
  // Inside a write transaction the statement reads latest — its own writes
  // included — with 2PL providing its isolation, and no cache that could
  // hide those writes is consulted.
  const bool snapshot_read = s.txn_ == nullptr;
  CommitGate::SharedGuard gate(snapshot_read ? &versions_->gate() : nullptr);
  std::optional<ReadView> statement_view;
  const ReadView* view = ReaderView(s, snapshot_read, &statement_view);

  // --- Materialized-view rewrite -------------------------------------------
  // Probed before the plan cache: a registered view whose normalized SQL
  // matches answers from its materialized extent (after catching up on
  // pending deltas) without optimizing or executing anything. The extent
  // holds the latest state of its dependencies, so it may serve only a reader
  // for whom that latest state is exactly what it sees: view.Current for every
  // dependency file. use_cache=false bypasses — the differential oracle.
  if (r.use_cache && !cache_sql.empty() && matviews_ != nullptr && view != nullptr) {
    auto current = [view](const std::vector<uint16_t>& deps) {
      return std::all_of(deps.begin(), deps.end(),
                         [view](uint16_t f) { return view->Current(f); });
    };
    ExecResult hit;
    hit.kind = ExecResult::Kind::kQuery;
    MOOD_ASSIGN_OR_RETURN(MvManager::Outcome oc,
                          matviews_->TryServe(cache_sql, current, &hit.query));
    if (oc == MvManager::Outcome::kServed) return hit;
  }

  const bool caching = r.use_cache && !cache_sql.empty() &&
                       plan_cache_ != nullptr && plan_cache_->capacity() > 0;

  // --- Plan-cache probe ---------------------------------------------------
  // Plans tolerate churn (stale statistics cost optimality, not
  // correctness), so they validate against live epochs.
  CachedPlanPtr entry;
  std::string key;
  uint64_t schema_epoch = 0;
  if (caching) {
    key = cache_sql;
    key += '\x1f';
    key += ParamTypeSignature(params);
    key += '\x1f';
    key += r.feedback ? 'F' : '-';
    schema_epoch = catalog_->schema_epoch();
    MOOD_ASSIGN_OR_RETURN(entry, CachedPlanFor(key, stmt, r.feedback, schema_epoch));
  }

  const QueryOptimizer::Optimized* optimized;
  QueryOptimizer::Optimized fresh;
  if (entry != nullptr) {
    optimized = &entry->optimized;
  } else {
    MOOD_ASSIGN_OR_RETURN(fresh, optimizer_->Optimize(stmt, r.feedback));
    optimized = &fresh;
  }

  // --- Result-cache probe -------------------------------------------------
  // The entry key bakes in the view's epoch of every touched extent, so an
  // entry is only ever found by a reader whose visible state is exactly the
  // state the entry was computed from. Reader cohorts pinned on either side
  // of a commit therefore coexist as separate epoch-stamped variants instead
  // of thrash-overwriting a single slot; superseded variants simply age out
  // of the LRU. ResultCache::Insert still re-validates the stamp after
  // execution as a belt-and-braces staleness check.
  //
  // An epoch identifies visible content only if the extent had no PENDING
  // (uncommitted) mutation at the reader's pin: a pending write has already
  // advanced heap and epoch while the reader still sees the pre-image. So
  // the cache is bypassed (probe and fill) unless view.Identifies every
  // touched extent. Checking "pending now" instead would race a commit
  // landing after the pin: the epoch would then name the committed state
  // while this reader still sees the pre-image.
  std::string result_key;
  std::vector<TouchedExtent> captured;
  bool fill_result = false;
  WriteEpochFn view_epoch_of;
  if (entry != nullptr && entry->result_cacheable && !r.collect_profile &&
      view != nullptr && result_cache_ != nullptr &&
      result_cache_->capacity_bytes() > 0 &&
      std::all_of(entry->extents.begin(), entry->extents.end(),
                  [view](const TouchedExtent& te) { return view->Identifies(te.file); })) {
    view_epoch_of = [view](uint16_t file) { return view->EpochOf(file); };
    captured.reserve(entry->extents.size());
    result_key = key;
    result_key += '\x1e';
    result_key += ParamValueKey(params);
    result_key += '\x1d';
    for (const TouchedExtent& te : entry->extents) {
      const uint64_t epoch = view->EpochOf(te.file);
      captured.push_back(TouchedExtent{te.file, epoch});
      result_key.append(reinterpret_cast<const char*>(&te.file), sizeof(te.file));
      result_key.append(reinterpret_cast<const char*>(&epoch), sizeof(epoch));
    }
    ExecResult hit;
    hit.kind = ExecResult::Kind::kQuery;
    if (result_cache_->Lookup(result_key, schema_epoch, view_epoch_of, &hit.query)) {
      return hit;
    }
    // Filling is safe for pinned sessions too: the rows are the state at the
    // session's view, and the key above stamps exactly that view, so only
    // readers seeing the same state can ever find the entry.
    fill_result = true;
  }

  // --- Execution ----------------------------------------------------------
  ExecResult res;
  res.kind = ExecResult::Kind::kQuery;
  ExecOptions exec;
  exec.threads = r.exec_threads;
  exec.batch_size = r.batch_size;
  if (view != nullptr) exec.snapshot = view->snapshot();
  if (!params.empty()) exec.params = &params;
  if (entry != nullptr) exec.program_memo = entry->programs.get();
  if (r.collect_profile) {
    res.profile = std::make_shared<QueryProfile>();
    res.profile->label = "RESULT";
    exec.profile = res.profile.get();
  }
  uint64_t start = exec.profile != nullptr ? ProfileNowNs() : 0;
  MOOD_ASSIGN_OR_RETURN(QueryResult qr, executor_->ExecuteSelect(*optimized, exec));
  if (exec.profile != nullptr) {
    res.profile->wall_ns = ProfileNowNs() - start;
    res.profile->rows_out = qr.rows.size();
    if (!res.profile->children.empty()) {
      res.profile->rows_in = res.profile->children.front()->rows_out;
    }
    if (r.feedback) {
      // Close the loop: write observed cardinalities and measured operator
      // costs back into the statistics manager for the next optimization.
      // This bumps the statistics plans-version, so the entry this execution
      // used re-optimizes on its next lookup — profiled warmups keep
      // improving the plan while unprofiled hot loops stay cached.
      size_t n = AbsorbProfile(*optimized, *res.profile, stats_.get());
      if (n > 0 && feedback_absorbed_counter_ != nullptr) {
        feedback_absorbed_counter_->Add(n);
      }
    }
  }
  if (fill_result) {
    result_cache_->Insert(result_key, qr, schema_epoch, captured, view_epoch_of);
  }
  res.query = std::move(qr);
  return res;
}

Result<CachedPlanPtr> Database::CachedPlanFor(const std::string& key,
                                              const SelectStmt& stmt, bool feedback,
                                              uint64_t schema_epoch) {
  CachedPlanPtr entry =
      plan_cache_->Lookup(key, schema_epoch, stats_->plans_version(),
                          [this](uint16_t file) { return objects_->WriteEpochOf(file); });
  if (entry != nullptr) return entry;
  auto built = std::make_shared<CachedPlan>();
  built->schema_epoch = schema_epoch;
  MOOD_ASSIGN_OR_RETURN(built->optimized, optimizer_->Optimize(stmt, feedback));
  built->plans_version = built->optimized.plans_version;
  built->programs = std::make_shared<ProgramMemo>();
  built->param_count = ParamCount(stmt);
  MOOD_RETURN_IF_ERROR(CollectTouchedExtents(catalog_.get(), objects_.get(),
                                             built->optimized.bound, &built->extents,
                                             &built->result_cacheable));
  plan_cache_->Insert(key, built);
  return CachedPlanPtr(std::move(built));
}

Result<ExecResult> Database::ExecExplain(Session& s, const ExplainStmt& stmt,
                                         const QueryOptions& options,
                                         const std::string& cache_sql) {
  ExplainOptions eopts;
  eopts.analyze = stmt.analyze;
  eopts.verbose = stmt.verbose;
  eopts.query = options;
  MOOD_ASSIGN_OR_RETURN(ExplainResult er,
                        ExplainSelect(s, stmt.select, eopts, cache_sql));
  ExecResult res;
  res.kind = ExecResult::Kind::kExplain;
  res.message = er.Render();
  res.profile = er.profile;
  return res;
}

void Database::NoteQuery(const std::string& sql, double elapsed_ms, size_t rows,
                         size_t threads) {
  if (query_us_hist_ != nullptr) {
    query_us_hist_->Record(static_cast<uint64_t>(elapsed_ms * 1000.0));
  }
  if (options_.slow_query_ms <= 0 || elapsed_ms < options_.slow_query_ms ||
      options_.slow_query_log_size == 0) {
    return;
  }
  if (slow_counter_ != nullptr) slow_counter_->Add(1);
  std::lock_guard<std::mutex> lock(slow_mu_);
  while (slow_queries_.size() >= options_.slow_query_log_size) {
    slow_queries_.pop_front();
  }
  slow_queries_.push_back(SlowQueryRecord{sql, elapsed_ms, rows, threads});
}

std::vector<SlowQueryRecord> Database::SlowQueries() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return {slow_queries_.begin(), slow_queries_.end()};
}

Result<ExecResult> Database::ExecCreateClass(const CreateClassStmt& stmt) {
  // DDL runs under the exclusive gate: no SELECT is mid-flight while catalog
  // pages mutate. (Concurrent DDL vs. optimization of other statements is
  // still the caller's to serialize; see DESIGN.md §14.)
  CommitGate::ExclusiveGuard gate(&versions_->gate());
  MOOD_ASSIGN_OR_RETURN(TypeId id, catalog_->Define(stmt.def));
  ExecResult res;
  res.message = std::string(stmt.def.is_class ? "class '" : "type '") + stmt.def.name +
                "' created with type id " + std::to_string(id);
  res.schema_epoch = catalog_->schema_epoch();
  return res;
}

Result<ExecResult> Database::ExecNew(Session& s, const NewObjectStmt& stmt) {
  // Strict 2PL: inserts take an exclusive lock on the class extent. The lock
  // is acquired before any gate section — never inside one (lock-ordering
  // rule: the gate must not wait on the lock manager).
  if (s.txn_ != nullptr) {
    MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(stmt.class_name));
    MOOD_RETURN_IF_ERROR(s.txn_->Lock(
        LockKey{/*space=*/1, type->extent_file}, LockMode::kExclusive));
  }
  // Values bind no range variable, so a well-formed one is a constant and
  // folds; any other runs once, with nothing bound, to raise its error.
  MoodValue::ValueList values;
  for (const auto& e : stmt.values) {
    MoodValue v;
    if (!TryConstEval(*e, &v)) {
      ExprProgram::BatchScratch scratch;
      MOOD_ASSIGN_OR_RETURN(v, ExprCompiler(evaluator_.get())
                                   .Compile(e, ExprCompileEnv{})
                                   ->EvalRow(nullptr, 0, nullptr, &scratch));
    }
    values.push_back(std::move(v));
  }
  MOOD_ASSIGN_OR_RETURN(
      Oid oid, objects_->CreateObject(stmt.class_name, MoodValue::Tuple(std::move(values)),
                                      s.txn_));
  if (!stmt.bind_name.empty()) {
    MOOD_RETURN_IF_ERROR(catalog_->BindName(stmt.bind_name, oid));
  }
  ExecResult res;
  res.kind = ExecResult::Kind::kDml;
  res.created_oid = oid;
  res.affected = 1;
  res.message = "created " + stmt.class_name + " " + oid.ToString();
  return res;
}

namespace {
/// Copies a WHERE clause with each literal that is one side of a comparison
/// against a path replaced by the next `?` placeholder (its value appended to
/// `params`), so one cached plan serves every literal, as a prepared SELECT
/// serves every binding.
ExprPtr ParameterizeLiterals(const ExprPtr& e, std::vector<MoodValue>* params) {
  if (e == nullptr) return nullptr;
  if (e->kind == ExprKind::kUnary) {
    return Expr::Unary(e->uop, ParameterizeLiterals(e->operand, params));
  }
  if (e->kind != ExprKind::kBinary) return e;
  auto literal_vs_path = [](const ExprPtr& a, const ExprPtr& b) {
    return a->kind == ExprKind::kLiteral && b->kind == ExprKind::kPath;
  };
  if (!IsComparison(e->op) ||
      !(literal_vs_path(e->lhs, e->rhs) || literal_vs_path(e->rhs, e->lhs))) {
    ExprPtr lhs = ParameterizeLiterals(e->lhs, params);
    return Expr::Binary(e->op, lhs, ParameterizeLiterals(e->rhs, params));
  }
  auto parameter = [&](const ExprPtr& x) {
    if (x->kind != ExprKind::kLiteral) return x;
    params->push_back(x->literal);
    return Expr::Parameter(static_cast<uint32_t>(params->size() - 1));
  };
  ExprPtr lhs = parameter(e->lhs);
  return Expr::Binary(e->op, lhs, parameter(e->rhs));
}
}  // namespace

Result<std::vector<Oid>> Database::MatchingObjects(const std::string& class_name,
                                                   const std::string& var,
                                                   const ExprPtr& where) {
  std::vector<MoodValue> params;
  SelectStmt select;
  select.projection.push_back(Expr::Path(var, {}));
  FromEntry fe;
  fe.class_name = class_name;
  fe.var = var;
  select.from.push_back(fe);
  select.where = ParameterizeLiterals(where, &params);
  // Shared gate for planning and the row-selection scan: DML reads *latest*
  // state (not a snapshot — the writer must see current rows), but must still
  // never observe another writer mid-mutation.
  CommitGate::SharedGuard gate(&versions_->gate());
  // The plan is cached under the parameterized WHERE and its parameter types,
  // in a key space no normalized SELECT can reach: `UPDATE ... WHERE v.id = k`
  // re-plans only when the schema, the statistics or the plans-version move,
  // whatever k is.
  ExecOptions exec;
  exec.params = &params;
  PlanPtr plan;
  CachedPlanPtr entry;
  if (plan_cache_ != nullptr && plan_cache_->capacity() > 0) {
    std::string key = "\x1e" "DML " + class_name + " " + var;
    if (select.where != nullptr) key += " WHERE " + select.where->ToString();
    key += '\x1f';
    key += ParamTypeSignature(params);
    MOOD_ASSIGN_OR_RETURN(entry, CachedPlanFor(key, select, /*feedback=*/true,
                                               catalog_->schema_epoch()));
    plan = entry->optimized.plan;
    exec.program_memo = entry->programs.get();
  } else {
    MOOD_ASSIGN_OR_RETURN(auto optimized, optimizer_->Optimize(select));
    plan = optimized.plan;
  }
  MOOD_ASSIGN_OR_RETURN(BatchSet rows, executor_->ExecutePlan(plan, exec));
  int idx = rows.VarIndex(var);
  if (idx < 0) return Status::Internal("range variable lost during optimization");
  std::vector<Oid> out = rows.LiveColumn(static_cast<size_t>(idx));
  // A row may repeat the var when joins fan out; deduplicate.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<ExecResult> Database::ExecUpdate(Session& s, const UpdateStmt& stmt) {
  // Strict 2PL: updates lock the class extent exclusively before selecting
  // rows, serializing transactional writers on the class — the row set a
  // writer updates cannot shift under it between selection and mutation.
  if (s.txn_ != nullptr) {
    MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(stmt.class_name));
    MOOD_RETURN_IF_ERROR(s.txn_->Lock(
        LockKey{/*space=*/1, type->extent_file}, LockMode::kExclusive));
  }
  MOOD_ASSIGN_OR_RETURN(auto oids, MatchingObjects(stmt.class_name, stmt.var, stmt.where));
  // One program per assignment, compiled once for the statement (a literal
  // folds to a constant) and run per object at batch size 1 without a Deref
  // cache, so a later assignment reads what an earlier one wrote.
  std::vector<std::unique_ptr<ExprProgram>> programs;
  {
    CommitGate::SharedGuard compile_gate(&versions_->gate());
    ExprCompileEnv env;
    env.vars[stmt.var] = {0, stmt.class_name};
    ExprCompiler compiler(evaluator_.get());
    for (const auto& assignment : stmt.assignments) {
      programs.push_back(compiler.Compile(assignment.second, env));
    }
  }
  ExprProgram::BatchScratch scratch;
  for (Oid oid : oids) {
    if (s.txn_ != nullptr) {
      MOOD_RETURN_IF_ERROR(s.txn_->Lock(LockKey{/*space=*/2, oid.Pack()},
                                        LockMode::kExclusive));
    }
    for (size_t a = 0; a < programs.size(); a++) {
      // Assignment expressions read heap objects; shared gate per evaluation
      // (released before SetAttribute's exclusive section — the gate never
      // nests on one thread).
      Result<MoodValue> v = [&]() -> Result<MoodValue> {
        CommitGate::SharedGuard eval_gate(&versions_->gate());
        return programs[a]->EvalRow(&oid, 1, nullptr, &scratch);
      }();
      if (!v.ok()) return v.status();
      MOOD_RETURN_IF_ERROR(objects_->SetAttribute(oid, stmt.assignments[a].first,
                                                  std::move(v.value()), s.txn_));
    }
  }
  ExecResult res;
  res.kind = ExecResult::Kind::kDml;
  res.affected = oids.size();
  res.message = "updated " + std::to_string(oids.size()) + " object(s)";
  return res;
}

Result<ExecResult> Database::ExecDelete(Session& s, const DeleteStmt& stmt) {
  // Same extent-level 2PL as ExecUpdate.
  if (s.txn_ != nullptr) {
    MOOD_ASSIGN_OR_RETURN(const MoodsType* type, catalog_->Lookup(stmt.class_name));
    MOOD_RETURN_IF_ERROR(s.txn_->Lock(
        LockKey{/*space=*/1, type->extent_file}, LockMode::kExclusive));
  }
  MOOD_ASSIGN_OR_RETURN(auto oids, MatchingObjects(stmt.class_name, stmt.var, stmt.where));
  for (Oid oid : oids) {
    if (s.txn_ != nullptr) {
      MOOD_RETURN_IF_ERROR(s.txn_->Lock(LockKey{/*space=*/2, oid.Pack()},
                                        LockMode::kExclusive));
    }
    MOOD_RETURN_IF_ERROR(objects_->DeleteObject(oid, s.txn_));
  }
  ExecResult res;
  res.kind = ExecResult::Kind::kDml;
  res.affected = oids.size();
  res.message = "deleted " + std::to_string(oids.size()) + " object(s)";
  return res;
}

Result<ExecResult> Database::ExecCreateIndex(const CreateIndexStmt& stmt) {
  // DDL under the exclusive gate (the build scan + inserts must not interleave
  // with readers probing half-built index pages).
  CommitGate::ExclusiveGuard gate(&versions_->gate());
  switch (stmt.kind) {
    case IndexKind::kBTree:
    case IndexKind::kHash:
      MOOD_RETURN_IF_ERROR(objects_->CreateAttributeIndex(
          stmt.index_name, stmt.class_name, stmt.attribute, stmt.kind, stmt.unique));
      break;
    case IndexKind::kBinaryJoin:
      MOOD_RETURN_IF_ERROR(objects_->CreateBinaryJoinIndex(stmt.index_name,
                                                           stmt.class_name,
                                                           stmt.attribute));
      break;
    case IndexKind::kRTree:
      return Status::NotSupported(
          "R-tree indexes are created through the spatial API (see examples/spatial)");
  }
  ExecResult res;
  res.message = "index '" + stmt.index_name + "' created (" +
                std::string(IndexKindName(stmt.kind)) + ")";
  res.schema_epoch = catalog_->schema_epoch();
  return res;
}

Result<ExecResult> Database::ExecDropClass(const DropClassStmt& stmt) {
  CommitGate::ExclusiveGuard gate(&versions_->gate());
  MOOD_RETURN_IF_ERROR(catalog_->Drop(stmt.class_name));
  ExecResult res;
  res.message = "class '" + stmt.class_name + "' dropped";
  res.schema_epoch = catalog_->schema_epoch();
  return res;
}

Result<ExecResult> Database::ExecCreateMatView(const CreateMatViewStmt& stmt) {
  if (matviews_ == nullptr) {
    return Status::InvalidArgument("database is not open");
  }
  if (stmt.select_sql.empty()) {
    return Status::InvalidArgument(
        "materialized view definition text unavailable (internal parse path)");
  }
  // DDL under the exclusive gate: the initial materialization scan must not
  // interleave with writers, and registration must not race serves.
  CommitGate::ExclusiveGuard gate(&versions_->gate());
  // Catalog first: registration bumps the schema epoch, and Create() stamps
  // the post-bump epoch so the first serve doesn't waste a rebuild.
  MatViewDef def;
  def.name = stmt.name;
  def.select_sql = stmt.select_sql;
  MOOD_RETURN_IF_ERROR(catalog_->RegisterView(def));
  Status created = matviews_->Create(stmt.name, stmt.select_sql, stmt.select);
  if (!created.ok()) {
    (void)catalog_->UnregisterView(stmt.name);
    return created;
  }
  ExecResult res;
  res.message = "materialized view '" + stmt.name + "' created";
  res.schema_epoch = catalog_->schema_epoch();
  return res;
}

Result<ExecResult> Database::ExecDropMatView(const DropMatViewStmt& stmt) {
  if (matviews_ == nullptr) {
    return Status::InvalidArgument("database is not open");
  }
  CommitGate::ExclusiveGuard gate(&versions_->gate());
  MOOD_RETURN_IF_ERROR(catalog_->UnregisterView(stmt.name));
  MOOD_RETURN_IF_ERROR(matviews_->Drop(stmt.name));
  ExecResult res;
  res.message = "materialized view '" + stmt.name + "' dropped";
  res.schema_epoch = catalog_->schema_epoch();
  return res;
}

Result<ExecResult> Database::ExecAnalyze(const AnalyzeStmt& stmt) {
  ExecResult res;
  if (!stmt.class_name.empty()) {
    MOOD_RETURN_IF_ERROR(CollectStatistics(stmt.class_name));
    res.message = "analyzed class '" + stmt.class_name + "'";
    res.schema_epoch = catalog_->schema_epoch();
    return res;
  }
  MOOD_RETURN_IF_ERROR(CollectAllStatistics());
  res.message = "analyzed all classes";
  res.schema_epoch = catalog_->schema_epoch();
  return res;
}

Result<MoodValue> Database::InterpretMethodBody(const std::string& class_name,
                                                const MoodsFunction& decl,
                                                const MethodContext& ctx,
                                                const std::vector<MoodValue>& args) {
  (void)class_name;
  // Accept bodies of the form `{ return <expr>; }` (whitespace tolerant).
  std::string body = decl.body_source;
  auto strip = [](std::string s) {
    size_t a = s.find_first_not_of(" \t\r\n");
    size_t b = s.find_last_not_of(" \t\r\n");
    if (a == std::string::npos) return std::string();
    return s.substr(a, b - a + 1);
  };
  body = strip(body);
  if (!body.empty() && body.front() == '{') body = strip(body.substr(1));
  if (!body.empty() && body.back() == '}') body = strip(body.substr(0, body.size() - 1));
  if (body.rfind("return", 0) != 0) {
    return Status::FunctionError("method '" + decl.name +
                                 "' has no compiled body and its source is not an "
                                 "interpretable `return <expr>;` form");
  }
  body = strip(body.substr(6));
  if (!body.empty() && body.back() == ';') body = strip(body.substr(0, body.size() - 1));
  MOOD_ASSIGN_OR_RETURN(ExprPtr expr, Parser::ParseExpression(body));

  // Identifier resolution: parameters shadow receiver attributes.
  std::function<Result<MoodValue>(const ExprPtr&)> eval =
      [&](const ExprPtr& e) -> Result<MoodValue> {
    switch (e->kind) {
      case ExprKind::kLiteral:
        return e->literal;
      case ExprKind::kParameter:
        return Status::FunctionError(
            "interpreted method bodies cannot use `?` parameters");
      case ExprKind::kPath: {
        MoodValue base;
        bool found = false;
        for (size_t i = 0; i < decl.params.size(); i++) {
          if (decl.params[i].name == e->range_var && i < args.size()) {
            base = args[i];
            found = true;
            break;
          }
        }
        if (!found) {
          auto attr = ctx.Attr(e->range_var);
          if (!attr.ok()) return attr.status();
          base = attr.value();
          found = true;
        }
        // Navigate any further steps through references.
        for (const auto& step : e->steps) {
          if (base.kind() != ValueKind::kReference || !ctx.deref) {
            return Status::FunctionError("cannot navigate '" + step.name +
                                         "' in interpreted method body");
          }
          MOOD_ASSIGN_OR_RETURN(MoodValue obj, ctx.deref(base.AsReference()));
          (void)obj;
          return Status::FunctionError(
              "interpreted bodies support attribute and parameter identifiers only");
        }
        return base;
      }
      case ExprKind::kUnary: {
        MOOD_ASSIGN_OR_RETURN(MoodValue v, eval(e->operand));
        OperandDataType o = OperandDataType::FromValue(v);
        if (e->uop == UnaryOp::kNeg) return (-o).ToValue();
        return (!o).ToValue();
      }
      case ExprKind::kBinary: {
        MOOD_ASSIGN_OR_RETURN(MoodValue lv, eval(e->lhs));
        MOOD_ASSIGN_OR_RETURN(MoodValue rv, eval(e->rhs));
        OperandDataType x = OperandDataType::FromValue(lv);
        OperandDataType y = OperandDataType::FromValue(rv);
        OperandDataType r(DataTypeCode::kInt32);
        switch (e->op) {
          case BinaryOp::kAdd: r = x + y; break;
          case BinaryOp::kSub: r = x - y; break;
          case BinaryOp::kMul: r = x * y; break;
          case BinaryOp::kDiv: r = x / y; break;
          case BinaryOp::kMod: r = x % y; break;
          case BinaryOp::kEq: r = (x == y); break;
          case BinaryOp::kNe: r = (x != y); break;
          case BinaryOp::kLt: r = (x < y); break;
          case BinaryOp::kLe: r = (x <= y); break;
          case BinaryOp::kGt: r = (x > y); break;
          case BinaryOp::kGe: r = (x >= y); break;
          case BinaryOp::kAnd: r = (x && y); break;
          case BinaryOp::kOr: r = (x || y); break;
        }
        return r.ToValue();
      }
    }
    return Status::Internal("unhandled expression kind");
  };
  MOOD_ASSIGN_OR_RETURN(MoodValue raw, eval(expr));
  // Run-time cast to the declared return type (e.g. `int lbweight()` returning
  // weight * 2.2075 truncates, exactly like the compiled C++ would).
  if (decl.return_type->kind() == ConstructorKind::kBasic && raw.IsNumeric()) {
    switch (decl.return_type->basic()) {
      case BasicType::kInteger: {
        MOOD_ASSIGN_OR_RETURN(double d, raw.ToDouble());
        return MoodValue::Integer(static_cast<int32_t>(d));
      }
      case BasicType::kLongInteger: {
        MOOD_ASSIGN_OR_RETURN(double d, raw.ToDouble());
        return MoodValue::LongInteger(static_cast<int64_t>(d));
      }
      case BasicType::kFloat: {
        MOOD_ASSIGN_OR_RETURN(double d, raw.ToDouble());
        return MoodValue::Float(d);
      }
      default:
        break;
    }
  }
  return raw;
}

std::unique_ptr<QueryManager> Database::MakeQuerySession() {
  return std::make_unique<QueryManager>(
      [this](const std::string& sql) { return Query(sql); });
}

}  // namespace mood
