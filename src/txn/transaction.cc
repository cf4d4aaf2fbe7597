#include "txn/transaction.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/coding.h"
#include "txn/version_store.h"

namespace mood {

Result<Lsn> Transaction::LogPageWrite(PageId page, Slice before, Slice after) {
  if (state_.load(std::memory_order_acquire) != TxnState::kActive) {
    return Status::TxnAborted("write in non-active transaction");
  }
  MOOD_ASSIGN_OR_RETURN(Lsn lsn, mgr_->log()->AppendPageWrite(id_, page, before, after));
  undo_.push_back(UndoEntry{page, lsn, before.ToString()});
  return lsn;
}

Status Transaction::Lock(LockKey key, LockMode mode) {
  return mgr_->locks()->Acquire(id_, key, mode);
}

TransactionManager::TransactionManager(BufferPool* pool, LogManager* log,
                                       LockManager* locks, VersionStore* versions)
    : pool_(pool), log_(log), locks_(locks), versions_(versions) {
  // WAL rule: before any dirty page reaches disk, force the log.
  pool_->SetPreFlushHook([this](const Page&) { return log_->Flush(); });
}

TransactionManager::~TransactionManager() { pool_->SetPreFlushHook(nullptr); }

bool TransactionManager::HasActive() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(live_.begin(), live_.end(), [](const auto& t) {
    return t->state() == TxnState::kActive;
  });
}

void TransactionManager::PruneCompleted() {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(live_, [](const auto& t) { return t->state() != TxnState::kActive; });
}

Result<Transaction*> TransactionManager::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_txn_id_++;
  MOOD_RETURN_IF_ERROR(log_->AppendBegin(id).status());
  auto txn = std::unique_ptr<Transaction>(new Transaction(id, this));
  if (versions_ != nullptr) txn->version_batch_ = versions_->BeginBatch();
  Transaction* ptr = txn.get();
  live_.push_back(std::move(txn));
  return ptr;
}

Status TransactionManager::RollbackInBuffer(Transaction* txn) {
  Status first;
  {
    // Exclusive gate section: snapshot readers must see the page restores as
    // one atomic step, never a half-rolled-back heap.
    CommitGate::ExclusiveGuard gate(versions_ ? &versions_->gate() : nullptr);
    // Index entries first, while the heap still holds the transaction's
    // final state of every object it wrote.
    if (rollback_hook_ && versions_ != nullptr && txn->version_batch_ != 0) {
      first = rollback_hook_(txn->version_batch_);
    }
    for (auto it = txn->undo_.rbegin(); it != txn->undo_.rend(); ++it) {
      auto page = pool_->FetchPage(it->page);
      if (!page.ok()) {
        if (first.ok()) first = page.status();
        continue;
      }
      std::memcpy(page.value()->data(), it->before.data(), kPageSize);
      Status up = pool_->UnpinPage(it->page, /*dirty=*/true);
      if (!up.ok() && first.ok()) first = up;
    }
    // Drop the pending captures only after the heap is restored: in between,
    // a reader served the pending pre-image — the same bytes the restore just
    // put back.
    if (versions_ != nullptr && txn->version_batch_ != 0) {
      versions_->AbortBatch(txn->version_batch_);
    }
  }
  txn->state_.store(TxnState::kAborted, std::memory_order_release);
  txn->undo_.clear();
  locks_->ReleaseAll(txn->id_);
  return first;
}

Status TransactionManager::Commit(Transaction* txn) {
  if (txn->state_.load(std::memory_order_acquire) != TxnState::kActive) {
    return Status::InvalidArgument("commit of non-active transaction");
  }
  Status durable = [&]() -> Status {
    MOOD_ASSIGN_OR_RETURN(Lsn commit_lsn, log_->AppendCommit(txn->id_));
    return log_->SyncCommit(commit_lsn);
  }();
  if (!durable.ok()) {
    // The commit record may not have reached stable storage, so the commit
    // cannot be acknowledged. Roll back and release the locks — otherwise one
    // log failure wedges every later transaction behind orphaned locks.
    //
    // If the failure was indeterminate (bytes may have reached the file or
    // page cache), the LogManager has made it sticky: every further append
    // and flush — including the buffer pool's pre-flush hook — returns the
    // same error, so neither this in-buffer rollback nor any later write can
    // reach disk. On reopen, recovery decides the transaction's true fate
    // from whatever prefix of the log actually persisted; either outcome is
    // internally consistent, and the caller was told only that durability
    // could not be confirmed.
    (void)RollbackInBuffer(txn);
    return durable;
  }
  // Stamp the version batch only after the commit record is durable: until
  // this point snapshot readers treat the transaction's writes as uncommitted
  // (pending pre-images), which is exactly right if we crash before here.
  if (versions_ != nullptr && txn->version_batch_ != 0) {
    versions_->CommitBatch(txn->version_batch_);
  }
  txn->state_.store(TxnState::kCommitted, std::memory_order_release);
  txn->undo_.clear();
  locks_->ReleaseAll(txn->id_);
  return Status::OK();
}

Status TransactionManager::Abort(Transaction* txn) {
  if (txn->state_.load(std::memory_order_acquire) != TxnState::kActive) {
    return Status::InvalidArgument("abort of non-active transaction");
  }
  Status undone = RollbackInBuffer(txn);
  // Log the abort so recovery can skip the undo it just performed. Best
  // effort: if this fails the transaction is a loser in the log and the next
  // recovery undoes it again (idempotent), but the rollback above already
  // released its locks.
  Status logged = [&]() -> Status {
    MOOD_ASSIGN_OR_RETURN(Lsn abort_lsn, log_->AppendAbort(txn->id_));
    return log_->SyncCommit(abort_lsn);
  }();
  return undone.ok() ? logged : undone;
}

Result<RecoveryManager::Report> RecoveryManager::Recover() {
  std::vector<LogRecord> records;
  MOOD_RETURN_IF_ERROR(log_->ReadAll(&records));

  Report report;
  std::set<uint64_t> committed;
  std::set<uint64_t> aborted;
  std::set<uint64_t> seen;
  for (const LogRecord& rec : records) {
    if (rec.type == LogRecordType::kCommit) committed.insert(rec.txn_id);
    if (rec.type == LogRecordType::kAbort) aborted.insert(rec.txn_id);
    if (rec.type == LogRecordType::kBegin) seen.insert(rec.txn_id);
  }
  report.committed_txns = committed.size();
  for (uint64_t id : seen) {
    if (!committed.count(id) && !aborted.count(id)) report.loser_txns++;
  }

  // Redo phase: apply every page write (committed, aborted and loser alike) whose
  // LSN is newer than the page. Aborted transactions' abort-time restores were
  // buffer-level only, so their writes are re-applied here and rolled back again
  // by the undo phase below, which also covers losers.
  for (const LogRecord& rec : records) {
    if (rec.type != LogRecordType::kPageWrite) continue;
    // Tolerant fetch: a torn/corrupt frame arrives zeroed (page LSN 0), so the
    // `current < rec.lsn` test below always re-applies the logged full image —
    // this is how checksum failures heal instead of failing recovery.
    bool corrupted = false;
    MOOD_ASSIGN_OR_RETURN(Page* page, pool_->FetchPageTolerant(rec.page_id, &corrupted));
    if (corrupted) report.corrupt_pages_rebuilt++;
    Lsn current = DecodeFixed64(page->data());
    if (current < rec.lsn) {
      std::memcpy(page->data(), rec.after.data(), kPageSize);
      EncodeFixed64(page->data(), rec.lsn);
      MOOD_RETURN_IF_ERROR(pool_->UnpinPage(rec.page_id, true));
      report.redo_applied++;
    } else {
      MOOD_RETURN_IF_ERROR(pool_->UnpinPage(rec.page_id, corrupted));
    }
  }

  // Undo phase: restore before-images of non-committed transactions, newest first.
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    const LogRecord& rec = *it;
    if (rec.type != LogRecordType::kPageWrite) continue;
    if (committed.count(rec.txn_id)) continue;
    bool corrupted = false;
    MOOD_ASSIGN_OR_RETURN(Page* page, pool_->FetchPageTolerant(rec.page_id, &corrupted));
    if (corrupted) report.corrupt_pages_rebuilt++;
    std::memcpy(page->data(), rec.before.data(), kPageSize);
    EncodeFixed64(page->data(), rec.lsn);
    MOOD_RETURN_IF_ERROR(pool_->UnpinPage(rec.page_id, true));
    report.undo_applied++;
  }

  MOOD_RETURN_IF_ERROR(pool_->FlushAll());
  return report;
}

}  // namespace mood
