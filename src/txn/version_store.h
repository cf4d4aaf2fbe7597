#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "types/oid.h"

namespace mood {

class MoodValue;
class MetricsRegistry;

/// Per-file bookkeeping — write epochs, version-chain counts, pending bits —
/// lives in kFileSlots slots, and files alias slots through FileSlot. Aliasing
/// is conservative: two files sharing a slot can only cause a false
/// invalidation or a false "has versions", never a false hit. This is the one
/// place that knows the mapping.
inline constexpr size_t kFileSlots = 64;
inline constexpr size_t FileSlot(uint16_t file) { return file % kFileSlots; }
using PendingSlots = std::array<bool, kFileSlots>;

/// Writer-priority shared/exclusive gate serializing physical page access
/// between concurrently running statements (DESIGN.md §14).
///
/// Readers (whole SELECT statements) hold the gate shared; writers hold it
/// exclusive only around individual object mutations (heap write + index
/// maintenance + pre-image capture), never across lock waits or the commit
/// fsync. Writer priority — an arriving writer blocks *new* readers and waits
/// only for the readers already in flight — keeps update latency bounded under
/// read-heavy traffic instead of starving behind an endless reader stream.
///
/// Lock-ordering rule (deadlock freedom): a thread never blocks on the
/// LockManager while holding the gate in either mode, and gate acquisitions
/// never nest. 2PL locks are taken at statement start, before any gate use.
class CommitGate {
 public:
  void LockShared() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return !writer_active_ && writers_waiting_ == 0; });
    readers_++;
  }
  void UnlockShared() {
    std::lock_guard<std::mutex> l(mu_);
    if (--readers_ == 0) cv_.notify_all();
  }
  void LockExclusive() {
    std::unique_lock<std::mutex> l(mu_);
    writers_waiting_++;
    cv_.wait(l, [&] { return !writer_active_ && readers_ == 0; });
    writers_waiting_--;
    writer_active_ = true;
  }
  void UnlockExclusive() {
    std::lock_guard<std::mutex> l(mu_);
    writer_active_ = false;
    cv_.notify_all();
  }

  /// RAII guards; a null gate pointer makes them no-ops so call sites stay
  /// unconditional ("gate if versioning is wired up").
  class SharedGuard {
   public:
    explicit SharedGuard(CommitGate* g) : g_(g) {
      if (g_) g_->LockShared();
    }
    ~SharedGuard() {
      if (g_) g_->UnlockShared();
    }
    SharedGuard(const SharedGuard&) = delete;
    SharedGuard& operator=(const SharedGuard&) = delete;

   private:
    CommitGate* g_;
  };
  class ExclusiveGuard {
   public:
    explicit ExclusiveGuard(CommitGate* g) : g_(g) {
      if (g_) g_->LockExclusive();
    }
    ~ExclusiveGuard() {
      if (g_) g_->UnlockExclusive();
    }
    ExclusiveGuard(const ExclusiveGuard&) = delete;
    ExclusiveGuard& operator=(const ExclusiveGuard&) = delete;

   private:
    CommitGate* g_;
  };

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_active_ = false;
};

/// Multi-version store of committed pre-images, the engine's snapshot-read
/// backbone (DESIGN.md §14). Readers never take 2PL locks: a statement (or a
/// read-only snapshot transaction) pins a commit sequence number S and
/// reconstructs the database state as of S from the heap plus this store.
///
/// The store holds *pre-images*: just before a writer mutates an object it
/// captures the object's current committed state into the oid's version chain
/// as a pending entry; when the writer commits, every entry of its batch is
/// stamped with a fresh CSN — "this pre-image was superseded at CSN c". While
/// uncommitted, the entry's CSN is kPendingCsn (treated as +infinity), which is
/// exactly what makes uncommitted heap bytes invisible: the pre-image is the
/// last committed state.
///
/// Visibility rule for a reader at snapshot S probing oid X:
///   among X's chain entries pick the smallest superseded_csn > S
///     - entry found, absent flag set  -> X did not exist at S
///     - entry found                   -> the stored pre-image is X at S
///     - no entry                      -> the heap's current record is X at S
/// (heap state reflects every commit <= some csn <= S once no entry
/// supersedes it past S).
///
/// Garbage collection: an entry is droppable once superseded_csn <= the
/// minimum pinned snapshot (no pinned snapshot can still select it). With no
/// pins the store drains to empty, so FileHasVersions() — a relaxed per-file
/// counter probe — keeps the read hot path version-free in steady state.
///
/// Thread safety: one mutex guards chains/pins/batches; FileHasVersions and
/// CurrentCsn are lock-free. Mutations are expected to run under the
/// CommitGate's exclusive section (the gate also publishes chain updates to
/// readers), but the store is internally consistent regardless.
class VersionStore {
 public:
  static constexpr uint64_t kPendingCsn = ~0ull;

  /// What a reader gets back from VisibleVersion: either "absent at S" or the
  /// decoded pre-image (type id + immutable tuple snapshot).
  struct Version {
    bool absent = false;
    uint32_t type_id = 0;
    std::shared_ptr<const MoodValue> tuple;
  };

  uint64_t CurrentCsn() const { return last_csn_.load(std::memory_order_acquire); }

  // --- writer side ----------------------------------------------------------

  /// Allocates a batch key grouping the captures of one transaction (or one
  /// autocommit statement) so they commit atomically under a single CSN.
  uint64_t BeginBatch();

  /// Records the pre-write state of `oid`: `absent_before` marks a creation
  /// (no committed state existed); otherwise `type_id`/`pre_image` hold the
  /// committed tuple being superseded. `live_after` is whether the heap still
  /// has a record for `oid` after this write (false only for deletes) — it
  /// drives scan injection of deleted-but-visible objects. First capture wins
  /// within a batch: later writes by the same batch keep the original
  /// pre-image (the batch is atomic, intermediate states are never visible).
  void CapturePending(uint64_t batch, Oid oid, bool absent_before, uint32_t type_id,
                      std::shared_ptr<const MoodValue> pre_image, bool live_after);

  /// Stamps the batch's entries with a fresh CSN (returned). Entries whose
  /// pre-images no pinned snapshot can still see are dropped immediately.
  uint64_t CommitBatch(uint64_t batch);

  /// Drops the batch's pending entries and restores the chains' heap-liveness
  /// flags (the caller is about to undo the physical writes).
  void AbortBatch(uint64_t batch);

  /// The objects `batch` wrote, each with the committed state it had before
  /// the batch (absent: the batch created it) — what an abort restores.
  std::vector<std::pair<Oid, Version>> PendingOf(uint64_t batch) const;

  // --- reader side ----------------------------------------------------------

  /// Pins the current CSN as a snapshot; entries it can see survive GC until
  /// Unpin. Every snapshot reader pins, through a ReadView (statement scope
  /// for autocommit SELECTs, session scope for read-only snapshot sessions).
  /// Also reports, atomically with the pin, which file slots carried PENDING
  /// (uncommitted) chains: a reader pinned while a slot was pending sees
  /// pre-images whose content predates that slot's already-bumped write epoch.
  uint64_t PinSnapshot(PendingSlots* pending_slots);
  void UnpinSnapshot(uint64_t snap);

  /// Number of currently pinned snapshots (tests assert pins drain to zero).
  size_t PinnedCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pins_.size();
  }

  /// True when a chain entry supersedes the heap record of `oid` as seen from
  /// snapshot `snap` (fills `out`); false when the heap state is correct as-of
  /// `snap`.
  bool VisibleVersion(Oid oid, uint64_t snap, Version* out) const;

  /// Lock-free fast path: false means no oid of any file aliasing this slot
  /// has a chain, so scans and fetches can skip VisibleVersion entirely.
  bool FileHasVersions(uint16_t file) const {
    return file_counts_[FileSlot(file)].load(std::memory_order_acquire) > 0;
  }

  /// Oids of `file` whose heap record is currently gone but whose chain may
  /// still make them visible at some snapshot — the candidates a snapshot scan
  /// must inject because the page walk cannot surface them. Sorted by oid.
  /// Costs the file's chain count, not the whole store's.
  std::vector<Oid> HeapAbsentOids(uint16_t file) const;

  /// Every oid of `file` with any chain entry, sorted — index-probe
  /// compensation candidates (their indexed keys may differ at the snapshot).
  /// Costs the file's chain count, not the whole store's.
  std::vector<Oid> TrackedOids(uint16_t file) const;

  /// Executor-reported count of objects injected into snapshot scans
  /// (txn.snapshot.injected). Const: readers report through their
  /// const view of the store.
  void NoteInjected(uint64_t n) const {
    injected_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Executor-reported compensated index probe: one snapshot probe that
  /// re-tested `chain_oids` chained objects instead of trusting the index
  /// for them (txn.snapshot.probe_compensations / probe_chain_oids).
  void NoteProbeCompensation(uint64_t chain_oids) const {
    probe_compensations_.fetch_add(1, std::memory_order_relaxed);
    probe_chain_oids_.fetch_add(chain_oids, std::memory_order_relaxed);
  }

  CommitGate& gate() { return gate_; }

  /// Registers the txn.snapshot.* probe: captures, commits, gc_dropped,
  /// injected, probe_compensations, probe_chain_oids, pinned (current),
  /// chains/entries (current).
  void RegisterMetrics(MetricsRegistry* registry);

 private:
  struct Entry {
    uint64_t superseded_csn = kPendingCsn;
    uint64_t batch = 0;
    bool absent = false;
    uint32_t type_id = 0;
    std::shared_ptr<const MoodValue> tuple;
  };
  struct Chain {
    std::vector<Entry> entries;  // ascending superseded_csn; pendings at tail
    bool live_in_heap = true;    // current physical heap state for this oid
  };

  /// Minimum CSN any pinned snapshot may still read past (callers hold mu_).
  uint64_t MinActiveSnapshotLocked() const {
    return pins_.empty() ? last_csn_.load(std::memory_order_relaxed) : *pins_.begin();
  }
  /// Drops entries no pinned snapshot can select; erases drained chains.
  void CollectGarbageLocked();
  /// Erases a drained chain and its per-file bookkeeping (callers hold mu_).
  std::unordered_map<uint64_t, Chain>::iterator EraseChainLocked(
      std::unordered_map<uint64_t, Chain>::iterator it);

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Chain> chains_;  // key: Oid::Pack()
  /// The oids of chains_, per exact extent file (no slot aliasing), ordered:
  /// TrackedOids/HeapAbsentOids walk one file's chains, never the whole map.
  std::unordered_map<uint16_t, std::set<Oid>> file_oids_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> batch_oids_;
  std::multiset<uint64_t> pins_;
  std::atomic<uint64_t> last_csn_{0};
  std::atomic<uint64_t> next_batch_{1};

  std::array<std::atomic<uint64_t>, kFileSlots> file_counts_{};
  std::array<std::atomic<uint64_t>, kFileSlots> pending_counts_{};

  CommitGate gate_;

  std::atomic<uint64_t> captures_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> gc_dropped_{0};
  mutable std::atomic<uint64_t> injected_{0};
  mutable std::atomic<uint64_t> probe_compensations_{0};
  mutable std::atomic<uint64_t> probe_chain_oids_{0};
};

}  // namespace mood
