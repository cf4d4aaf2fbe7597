#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/slotted_page.h"
#include "storage/wal_interface.h"

namespace mood {

using FileId = uint32_t;
inline constexpr FileId kInvalidFileId = 0xFFFFFFFFu;

/// Physical address of a record: (page, slot). Stable across updates thanks to
/// forwarding, so it can serve as the physical component of an object identifier.
struct RecordId {
  PageId page = kInvalidPageId;
  SlotId slot = kInvalidSlot;

  bool valid() const { return page != kInvalidPageId && slot != kInvalidSlot; }
  friend bool operator==(const RecordId&, const RecordId&) = default;
  friend auto operator<=>(const RecordId&, const RecordId&) = default;
};

/// Metadata persisted in the storage manager's file directory.
struct FileInfo {
  FileId id = kInvalidFileId;
  PageId first_page = kInvalidPageId;
  PageId last_page = kInvalidPageId;
  uint32_t page_count = 0;
  uint64_t record_count = 0;
};

/// Persists FileInfo changes. Implemented by StorageManager.
class FileDirectory {
 public:
  virtual ~FileDirectory() = default;
  virtual Status UpdateFileInfo(const FileInfo& info, PageWriteLogger* wal) = 0;
  virtual Result<PageId> AllocatePage() = 0;
};

/// A heap file of variable-length records: the extent storage for one MOOD class
/// (or the catalog, or an index's backing structure). Pages form a forward-linked
/// chain. Records that outgrow their page are moved and a forwarding stub keeps
/// the original RecordId valid — object identifiers in MOOD are physical, so they
/// must never dangle after an update.
///
/// Thread safety: reads may run concurrently, but writers to the same file must
/// be serialized by the caller — Insert/Update/Delete probe free space and then
/// mutate the page without a latch, so two unserialized writers can race into
/// spurious "page full" errors or a torn page chain. The SQL layer provides this
/// serialization via its strict-2PL extent locks (ExecNew takes the extent lock
/// exclusively); code driving HeapFile directly must do its own.
class HeapFile {
 public:
  HeapFile(BufferPool* pool, FileDirectory* directory, FileInfo info);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  Result<RecordId> Insert(Slice record, PageWriteLogger* wal = nullptr);
  Result<std::string> Get(RecordId rid) const;
  Status Update(RecordId rid, Slice record, PageWriteLogger* wal = nullptr);
  Status Delete(RecordId rid, PageWriteLogger* wal = nullptr);

  /// Per-scan readahead state. One cursor tracks one logical scan (which may
  /// be driven by many morsel workers): the furthest chain position touched so
  /// far and the prefetch frontier already issued. All fields are atomics so
  /// workers sharing a cursor need no extra lock; a worker that jumps backward
  /// (out-of-order morsel pickup) simply doesn't trigger readahead.
  struct ScanCursor {
    static constexpr uint32_t kNoIndex = 0xFFFFFFFFu;
    /// Chain index of the furthest page this scan has touched.
    std::atomic<uint32_t> last_index{kNoIndex};
    /// Exclusive chain index up to which prefetches have been issued.
    std::atomic<uint32_t> prefetched_to{0};
  };

  /// Every live record in page-chain order, each page read once: the chain
  /// walk follows the next link ScanPage hands back (no pre-walk of the page
  /// ids) and drives sequential readahead. Tombstones and moved-in bodies are
  /// skipped (a moved record is reached through its home slot). The first
  /// read error or callback error ends the walk and is returned.
  Status Scan(const std::function<Status(RecordId, const std::string&)>& fn) const;

  /// Page ids of the chain in scan order. A page-granular partitioning of the
  /// file for the parallel executor: scanning the pages of this list in order
  /// visits exactly the records Scan() would, in the same order.
  Result<std::vector<PageId>> PageIds() const;

  /// Invokes `fn` for every live record whose home slot is on `page`, in slot
  /// order (moved-in bodies are skipped, forwarding stubs are chased), and
  /// returns the page's next link (kInvalidPageId at the chain's end). Records
  /// are copied out before `fn` runs, so at most one page is pinned at a time
  /// and the callback may itself fetch pages. Concurrent-read safe: many
  /// threads may ScanPage/Get disjoint or identical pages while no writer
  /// mutates the file.
  ///
  /// When `cursor` is non-null and the scan's page accesses are monotone
  /// forward along the chain, the next `pool->readahead()` chain pages are
  /// prefetched into the pool (unpinned) after this page's records are copied
  /// out. Readahead is best-effort and never changes which records `fn` sees.
  Result<PageId> ScanPage(PageId page, ScanCursor* cursor,
                          const std::function<Status(RecordId, const std::string&)>& fn) const;

  const FileInfo& info() const { return info_; }
  FileId id() const { return info_.id; }
  uint32_t page_count() const { return info_.page_count; }
  uint64_t record_count() const { return info_.record_count; }

  /// Lock-free per-file operation counters (relaxed atomics, incremented on
  /// the respective entry points; sampled by the StorageManager's `storage.*`
  /// metrics probe). `forward_chases` counts Get() calls that followed a
  /// forwarding stub — the extra page fetch updates-in-place avoid.
  struct OpStats {
    uint64_t inserts = 0;
    uint64_t updates = 0;
    uint64_t deletes = 0;
    uint64_t record_reads = 0;
    uint64_t forward_chases = 0;
    uint64_t scan_pages = 0;
  };
  OpStats op_stats() const {
    OpStats s;
    s.inserts = inserts_.load(std::memory_order_relaxed);
    s.updates = updates_.load(std::memory_order_relaxed);
    s.deletes = deletes_.load(std::memory_order_relaxed);
    s.record_reads = record_reads_.load(std::memory_order_relaxed);
    s.forward_chases = forward_chases_.load(std::memory_order_relaxed);
    s.scan_pages = scan_pages_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Appends a fresh page to the chain and returns it pinned.
  Result<Page*> AppendPage(PageWriteLogger* wal);

  /// Raw insert honoring flags (used by the forwarding machinery).
  Result<RecordId> InsertWithFlags(Slice record, uint8_t flags, PageWriteLogger* wal);

  /// Wraps a page mutation with before/after-image logging.
  Status MutatePage(Page* page, PageWriteLogger* wal,
                    const std::function<Status(SlottedPage&)>& fn);

  Status PersistInfo(PageWriteLogger* wal) { return directory_->UpdateFileInfo(info_, wal); }

  /// Chain order and page→index map used only for readahead targeting. It is
  /// learned from the first full chain walk (Scan or PageIds) since the chain
  /// last grew, rather than built by a walk of its own, which would read
  /// every page of a file larger than the pool twice; until such a walk has
  /// finished, scans run without readahead. PageIds() never reads it: a
  /// transaction abort restores page images without refreshing in-memory file
  /// metadata, so correctness-critical chain walks must re-read the chain. A
  /// stale map merely wastes or skips a prefetch.
  struct ChainMap {
    std::vector<PageId> pages;
    std::unordered_map<PageId, uint32_t> index;
  };

  /// Keeps `pages` (one full walk) as the chain map unless one is cached.
  void RememberChain(std::vector<PageId> pages) const;

  /// Issues up to pool_->readahead() prefetches past `page` when `cursor`
  /// shows a monotone forward scan. Never fails: readahead errors are dropped.
  void MaybeReadAhead(PageId page, ScanCursor* cursor) const;

  BufferPool* pool_;
  FileDirectory* directory_;
  FileInfo info_;
  mutable std::mutex chain_mu_;
  mutable std::shared_ptr<const ChainMap> chain_;  // guarded by chain_mu_
  mutable std::atomic<uint64_t> inserts_{0};
  mutable std::atomic<uint64_t> updates_{0};
  mutable std::atomic<uint64_t> deletes_{0};
  mutable std::atomic<uint64_t> record_reads_{0};
  mutable std::atomic<uint64_t> forward_chases_{0};
  mutable std::atomic<uint64_t> scan_pages_{0};
};

/// Encodes a RecordId into 6 bytes (used by forwarding stubs and join indices).
void EncodeRecordId(std::string* dst, RecordId rid);
Result<RecordId> DecodeRecordId(Slice in);

}  // namespace mood
