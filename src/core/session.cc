#include "core/session.h"

#include "txn/version_store.h"

namespace mood {

Session::~Session() {
  // TxnHandles minted by this session check the flag before dereferencing
  // their back pointer; flip it first.
  *alive_ = false;
  if (!DbAlive()) return;
  if (txn_ != nullptr && db_->txn_manager_ != nullptr) {
    (void)db_->txn_manager_->Abort(txn_);
    txn_ = nullptr;
    db_->txn_manager_->PruneCompleted();
  }
  std::lock_guard<std::mutex> lock(db_->sessions_mu_);
  std::erase(db_->sessions_, this);
}

Result<ExecResult> Session::Execute(const std::string& sql,
                                    const QueryOptions& options) {
  if (!DbAlive() || !db_->is_open()) {
    return Status::InvalidArgument("database is not open");
  }
  MOOD_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  uint64_t start = ProfileNowNs();
  Result<ExecResult> res = db_->ExecuteStatement(*this, stmt, options, NormalizeSql(sql));
  if (res.ok() && res.value().kind == ExecResult::Kind::kQuery) {
    double elapsed_ms = static_cast<double>(ProfileNowNs() - start) / 1e6;
    size_t threads = db_->ResolveFor(*this, options).exec_threads;
    if (threads == 0) threads = db_->executor_->threads();
    db_->NoteQuery(sql, elapsed_ms, res.value().query.rows.size(), threads);
  }
  return res;
}

Result<QueryResult> Session::Query(const std::string& sql,
                                   const QueryOptions& options) {
  MOOD_ASSIGN_OR_RETURN(ExecResult res, Execute(sql, options));
  if (res.kind != ExecResult::Kind::kQuery) {
    return Status::InvalidArgument("not a SELECT statement");
  }
  return res.query;
}

Result<ExecResult> Session::ExecuteScript(const std::string& sql) {
  if (!DbAlive() || !db_->is_open()) {
    return Status::InvalidArgument("database is not open");
  }
  MOOD_ASSIGN_OR_RETURN(auto stmts, Parser::ParseScript(sql));
  if (stmts.empty()) return Status::InvalidArgument("empty script");
  ExecResult last;
  for (const auto& stmt : stmts) {
    MOOD_ASSIGN_OR_RETURN(last, db_->ExecuteStatement(*this, stmt));
  }
  return last;
}

Result<PreparedStatement> Session::Prepare(const std::string& sql) {
  if (!DbAlive()) return Status::InvalidArgument("database no longer exists");
  return db_->Prepare(sql);
}

Result<ExecResult> Session::ExecutePrepared(const PreparedStatement& stmt,
                                            const std::vector<MoodValue>& params,
                                            const QueryOptions& options) {
  if (!DbAlive() || !db_->is_open()) {
    return Status::InvalidArgument("database is not open");
  }
  if (stmt.stmt_ == nullptr) {
    return Status::InvalidArgument("prepared statement is empty");
  }
  if (stmt.db_ != db_) {
    return Status::InvalidArgument("prepared statement belongs to a different database");
  }
  if (params.size() != stmt.param_count_) {
    return Status::InvalidArgument(
        "statement expects " + std::to_string(stmt.param_count_) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  return db_->ExecPrepared(*this, *stmt.stmt_, stmt.normalized_sql_, params, options);
}

Result<TxnHandle> Session::Begin() {
  if (!DbAlive() || !db_->is_open()) {
    return Status::InvalidArgument("database is not open");
  }
  if (db_->txn_manager_ == nullptr) {
    return Status::NotSupported("transactions require enable_wal");
  }
  if (txn_ != nullptr) {
    return Status::InvalidArgument("a transaction is already active");
  }
  if (view_) {
    return Status::InvalidArgument(
        "a snapshot is pinned on this session; EndSnapshot() first");
  }
  MOOD_ASSIGN_OR_RETURN(txn_, db_->txn_manager_->Begin());
  return TxnHandle(this, txn_, alive_);
}

Status Session::BeginSnapshot() {
  if (!DbAlive() || !db_->is_open()) {
    return Status::InvalidArgument("database is not open");
  }
  if (txn_ != nullptr) {
    return Status::InvalidArgument("a transaction is already active");
  }
  if (view_) {
    return Status::InvalidArgument("a snapshot is already pinned on this session");
  }
  // Pin under the shared gate so no writer is mid-mutation: the epochs the
  // view captures are consistent with its CSN.
  CommitGate::SharedGuard gate(&db_->versions_->gate());
  view_.emplace(db_->objects_->PinReadView());
  return Status::OK();
}

Status Session::EndSnapshot() {
  if (!view_) {
    return Status::InvalidArgument("no snapshot is pinned on this session");
  }
  view_.reset();
  return Status::OK();
}

Status Session::FinishTxn(Transaction* txn, bool commit) {
  if (!DbAlive() || !db_->is_open()) {
    return Status::InvalidArgument("database no longer exists");
  }
  if (txn == nullptr || txn != txn_) {
    return Status::InvalidArgument("transaction is no longer active");
  }
  Status st = commit ? db_->txn_manager_->Commit(txn) : db_->txn_manager_->Abort(txn);
  txn_ = nullptr;
  db_->txn_manager_->PruneCompleted();
  return st;
}

}  // namespace mood
