#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"

namespace mood {

/// One client's conversational state against a Database (DESIGN.md §14): the
/// session-default QueryOptions, at most one active transaction — a
/// read-write TxnHandle or a pinned read-only snapshot — and the statement
/// entry points the wire server and embedded callers share.
///
/// Database::CreateSession() mints sessions; Database's own
/// Execute/Query/Prepare/Begin delegate to an implicit session, so
/// single-connection embedded code keeps its historical behavior unchanged.
///
/// Threading contract: one session serves one client conversation, so
/// statements on the SAME session must not run concurrently. Statements on
/// DIFFERENT sessions may: SELECTs run at per-statement (or session-pinned)
/// snapshots under the commit gate's shared side, writers serialize through
/// 2PL extent/object locks and the gate's exclusive sections.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and executes one MOODSQL statement with this session's defaults,
  /// transaction and snapshot scope.
  Result<ExecResult> Execute(const std::string& sql, const QueryOptions& options = {});
  /// Convenience: SELECT statements only.
  Result<QueryResult> Query(const std::string& sql, const QueryOptions& options = {});
  /// Executes a ';'-separated script; returns the last statement's result.
  Result<ExecResult> ExecuteScript(const std::string& sql);

  /// Parses/normalizes a SELECT once (shared plan/result caches; see
  /// Database::Prepare). The handle itself is session-agnostic — run it with
  /// this session's context through ExecutePrepared.
  Result<PreparedStatement> Prepare(const std::string& sql);
  /// Executes a prepared handle under this session's defaults, transaction
  /// and snapshot scope.
  Result<ExecResult> ExecutePrepared(const PreparedStatement& stmt,
                                     const std::vector<MoodValue>& params = {},
                                     const QueryOptions& options = {});

  /// Begins a read-write transaction on this session (2PL + WAL). One
  /// transaction (of either kind) per session at a time.
  Result<TxnHandle> Begin();
  bool in_transaction() const { return txn_ != nullptr; }

  /// Pins the current commit point: until EndSnapshot, every SELECT on this
  /// session reads the same consistent snapshot, takes no 2PL locks, and
  /// never waits on writer *transactions* (only on the short exclusive
  /// sections of in-flight object mutations). DML/DDL are rejected while
  /// pinned — the snapshot transaction is read-only by construction.
  Status BeginSnapshot();
  Status EndSnapshot();
  bool in_snapshot() const { return view_.has_value(); }
  /// CSN this session's SELECTs read at: the pinned snapshot while one is
  /// active, otherwise 0 (each statement pins a fresh snapshot of its own).
  uint64_t snapshot_csn() const { return view_ ? view_->csn() : 0; }

  /// Session-default QueryOptions: each per-call field that is unset inherits
  /// these, then the Open-time DatabaseOptions behavior.
  void SetDefaultQueryOptions(const QueryOptions& options) { defaults_ = options; }
  const QueryOptions& default_query_options() const { return defaults_; }

  Database* database() const { return db_; }

 private:
  friend class Database;
  friend class TxnHandle;

  Session(Database* db, std::shared_ptr<const bool> db_alive)
      : db_(db), db_alive_(std::move(db_alive)) {}

  /// Finishes this session's transaction (TxnHandle's backend). Rejects
  /// handles whose transaction is no longer the session's active one.
  Status FinishTxn(Transaction* txn, bool commit);
  bool DbAlive() const { return db_alive_ != nullptr && *db_alive_; }

  Database* db_;
  /// True while db_ is safe to dereference (see Database::alive_).
  std::shared_ptr<const bool> db_alive_;
  /// Liveness flag shared with TxnHandles minted by this session; flipped to
  /// false by the destructor so a handle outliving the session stays inert.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  QueryOptions defaults_;
  /// Active read-write transaction (owned by the TransactionManager).
  Transaction* txn_ = nullptr;
  /// The pinned read view of a read-only snapshot session (see
  /// BeginSnapshot); every SELECT on the session reads and validates through
  /// it. Database::Close resets it before the VersionStore goes away.
  std::optional<ReadView> view_;
};

}  // namespace mood
