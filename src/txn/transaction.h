#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/wal_interface.h"
#include "txn/lock_manager.h"
#include "txn/log_manager.h"

namespace mood {

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

class TransactionManager;
class VersionStore;

/// A transaction context. Implements PageWriteLogger so storage structures can
/// report page mutations: each mutation is logged with before/after images, and
/// the before images double as the in-memory undo chain for Abort.
class Transaction : public PageWriteLogger {
 public:
  uint64_t id() const { return id_; }
  TxnState state() const { return state_.load(std::memory_order_acquire); }

  Result<Lsn> LogPageWrite(PageId page, Slice before, Slice after) override;

  /// VersionStore batch collecting this transaction's pre-image captures;
  /// stamped with one CSN at commit (0 when the manager has no version store).
  uint64_t version_batch() const override { return version_batch_; }

  /// Acquires a lock through the owning manager's lock manager (strict 2PL: held
  /// until commit/abort).
  Status Lock(LockKey key, LockMode mode);

 private:
  friend class TransactionManager;

  struct UndoEntry {
    PageId page;
    Lsn lsn;
    std::string before;
  };

  Transaction(uint64_t id, TransactionManager* mgr) : id_(id), mgr_(mgr) {}

  uint64_t id_;
  TransactionManager* mgr_;
  /// Atomic: the owning session's thread writes at commit/abort while other
  /// sessions' threads observe it through HasActive()/PruneCompleted().
  std::atomic<TxnState> state_{TxnState::kActive};
  uint64_t version_batch_ = 0;
  std::vector<UndoEntry> undo_;
};

/// Creates, commits and aborts transactions; wires the WAL rule into the buffer
/// pool and applies in-memory undo on abort.
class TransactionManager {
 public:
  TransactionManager(BufferPool* pool, LogManager* log, LockManager* locks);
  /// Uninstalls the WAL-rule hook (the buffer pool may outlive this manager).
  ~TransactionManager();

  /// Wires snapshot versioning in (Database::Open). Each transaction then
  /// carries a VersionStore batch: stamped with a CSN after a durable commit,
  /// dropped on abort; in-buffer rollback runs under the store's exclusive
  /// CommitGate so snapshot readers never see half-restored pages.
  void SetVersionStore(VersionStore* versions) { versions_ = versions; }

  /// Logical undo for what the page-image undo does not cover: secondary
  /// indexes are maintained outside the WAL, so an abort hands the
  /// transaction's version batch to this hook (ObjectManager::UndoIndexWrites,
  /// wired by Database::Open) before the heap pages are restored, inside the
  /// same exclusive gate section.
  void SetRollbackHook(std::function<Status(uint64_t batch)> hook) {
    rollback_hook_ = std::move(hook);
  }

  /// Begins a transaction; the returned object stays owned by the manager until
  /// Commit/Abort.
  Result<Transaction*> Begin();

  /// Commit: append + flush the commit record, release locks. If making the
  /// commit record durable fails, the transaction is rolled back in-buffer and
  /// its locks are released before the error is returned — a failed Commit
  /// never leaves the transaction active or its locks orphaned.
  Status Commit(Transaction* txn);

  /// Abort: restore before-images in reverse order, append abort record, release
  /// locks. Locks are released even when logging the abort fails (recovery
  /// treats the transaction as a loser and undoes it again from the log).
  Status Abort(Transaction* txn);

  /// Frees committed/aborted transaction objects. Completed transactions stay
  /// valid (their pointers may still be observed) until this is called.
  void PruneCompleted();

  /// True while any transaction is still active (Checkpoint's log-truncation
  /// guard: truncating under an active transaction would lose its undo).
  bool HasActive() const;

  LogManager* log() { return log_; }
  LockManager* locks() { return locks_; }
  BufferPool* pool() { return pool_; }

 private:
  friend class Transaction;

  /// Restores before-images newest-first, marks the transaction aborted and
  /// releases its locks. Best-effort: keeps going past page errors and returns
  /// the first one (locks are always released).
  Status RollbackInBuffer(Transaction* txn);

  BufferPool* pool_;
  LogManager* log_;
  LockManager* locks_;
  VersionStore* versions_ = nullptr;
  std::function<Status(uint64_t batch)> rollback_hook_;
  uint64_t next_txn_id_ = 1;
  std::vector<std::unique_ptr<Transaction>> live_;
  mutable std::mutex mu_;
};

/// Crash recovery: replays the write-ahead log against the database file.
/// Redo applies committed page images where the page LSN is older; undo restores
/// before-images of loser transactions in reverse LSN order. Both passes are
/// idempotent, so an interrupted recovery can simply run again.
class RecoveryManager {
 public:
  RecoveryManager(BufferPool* pool, LogManager* log) : pool_(pool), log_(log) {}

  struct Report {
    size_t committed_txns = 0;
    size_t loser_txns = 0;
    size_t redo_applied = 0;
    size_t undo_applied = 0;
    /// Pages whose on-disk frame failed checksum verification and were rebuilt
    /// from logged full images (torn writes healed by redo).
    size_t corrupt_pages_rebuilt = 0;
  };

  Result<Report> Recover();

 private:
  BufferPool* pool_;
  LogManager* log_;
};

}  // namespace mood
