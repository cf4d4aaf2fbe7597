#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace mood {

void EncodeRecordId(std::string* dst, RecordId rid) {
  PutFixed32(dst, rid.page);
  PutFixed16(dst, rid.slot);
}

Result<RecordId> DecodeRecordId(Slice in) {
  if (in.size() < 6) return Status::Corruption("short RecordId encoding");
  RecordId rid;
  rid.page = DecodeFixed32(in.data());
  rid.slot = DecodeFixed16(in.data() + 4);
  return rid;
}

HeapFile::HeapFile(BufferPool* pool, FileDirectory* directory, FileInfo info)
    : pool_(pool), directory_(directory), info_(info) {}

Status HeapFile::MutatePage(Page* page, PageWriteLogger* wal,
                            const std::function<Status(SlottedPage&)>& fn) {
  SlottedPage sp(page);
  if (wal == nullptr) {
    return fn(sp);
  }
  std::string before(page->data(), kPageSize);
  Status st = fn(sp);
  if (!st.ok()) return st;
  MOOD_ASSIGN_OR_RETURN(
      Lsn lsn, wal->LogPageWrite(page->page_id(), Slice(before.data(), kPageSize),
                                 Slice(page->data(), kPageSize)));
  sp.set_lsn(lsn);
  return Status::OK();
}

Result<Page*> HeapFile::AppendPage(PageWriteLogger* wal) {
  MOOD_ASSIGN_OR_RETURN(PageId new_id, directory_->AllocatePage());
  MOOD_ASSIGN_OR_RETURN(Page* page, pool_->FetchPage(new_id));
  {
    SlottedPage sp(page);
    sp.Init();
    page->set_dirty(true);
  }
  if (info_.first_page == kInvalidPageId) {
    info_.first_page = new_id;
    info_.last_page = new_id;
  } else {
    MOOD_ASSIGN_OR_RETURN(Page* tail, pool_->FetchPage(info_.last_page));
    Status st = MutatePage(tail, wal, [&](SlottedPage& sp) {
      sp.set_next_page(new_id);
      return Status::OK();
    });
    pool_->UnpinPage(tail->page_id(), true);
    if (!st.ok()) {
      pool_->UnpinPage(new_id, false);
      return st;
    }
    info_.last_page = new_id;
  }
  info_.page_count++;
  {
    // The chain grew: drop the readahead map; the next full walk relearns it.
    std::lock_guard<std::mutex> lock(chain_mu_);
    chain_.reset();
  }
  Status st = PersistInfo(wal);
  if (!st.ok()) {
    pool_->UnpinPage(new_id, true);
    return st;
  }
  return page;
}

Result<RecordId> HeapFile::InsertWithFlags(Slice record, uint8_t flags,
                                           PageWriteLogger* wal) {
  // Try the tail page first; append a fresh page when it is full. (Holes from
  // deletes in interior pages are reclaimed only when records are reinserted via
  // forwarding; a full free-space map is unnecessary at MOOD's scale.)
  Page* page = nullptr;
  if (info_.last_page != kInvalidPageId) {
    MOOD_ASSIGN_OR_RETURN(page, pool_->FetchPage(info_.last_page));
    SlottedPage probe(page);
    if (probe.FreeSpace() < record.size() + 8) {
      pool_->UnpinPage(page->page_id(), false);
      page = nullptr;
    }
  }
  if (page == nullptr) {
    MOOD_ASSIGN_OR_RETURN(page, AppendPage(wal));
  }
  RecordId rid;
  rid.page = page->page_id();
  SlotId slot = kInvalidSlot;
  Status st = MutatePage(page, wal, [&](SlottedPage& sp) {
    MOOD_ASSIGN_OR_RETURN(slot, sp.Insert(record, flags));
    return Status::OK();
  });
  pool_->UnpinPage(page->page_id(), st.ok());
  MOOD_RETURN_IF_ERROR(st);
  rid.slot = slot;
  return rid;
}

Result<RecordId> HeapFile::Insert(Slice record, PageWriteLogger* wal) {
  inserts_.fetch_add(1, std::memory_order_relaxed);
  MOOD_ASSIGN_OR_RETURN(RecordId rid, InsertWithFlags(record, kSlotNormal, wal));
  info_.record_count++;
  MOOD_RETURN_IF_ERROR(PersistInfo(wal));
  return rid;
}

Result<Slice> HeapFile::SlotBody(const SlottedPage& sp, SlotId slot, RecordId* target) {
  MOOD_ASSIGN_OR_RETURN(uint8_t flags, sp.GetFlags(slot));
  MOOD_ASSIGN_OR_RETURN(Slice data, sp.Get(slot));
  if (!(flags & kSlotForward)) return data;
  MOOD_ASSIGN_OR_RETURN(*target, DecodeRecordId(data));
  return Slice();
}

Result<std::string> HeapFile::Get(RecordId rid) const {
  std::string out;
  MOOD_RETURN_IF_ERROR(Visit(rid, [&](Slice record) {
    out = record.ToString();
    return Status::OK();
  }));
  return out;
}

Status HeapFile::Update(RecordId rid, Slice record, PageWriteLogger* wal) {
  updates_.fetch_add(1, std::memory_order_relaxed);
  MOOD_ASSIGN_OR_RETURN(Page* page, pool_->FetchPage(rid.page));
  PageGuard guard(pool_, page);
  guard.MarkDirty();
  SlottedPage sp(page);
  MOOD_ASSIGN_OR_RETURN(uint8_t flags, sp.GetFlags(rid.slot));

  if (flags & kSlotForward) {
    // Already forwarded: replace the body at (or move) the forwarding target.
    MOOD_ASSIGN_OR_RETURN(Slice stub, sp.Get(rid.slot));
    MOOD_ASSIGN_OR_RETURN(RecordId target, DecodeRecordId(stub));
    MOOD_ASSIGN_OR_RETURN(Page* tpage, pool_->FetchPage(target.page));
    PageGuard tguard(pool_, tpage);
    tguard.MarkDirty();
    Status st = MutatePage(tpage, wal, [&](SlottedPage& tsp) {
      return tsp.Update(target.slot, record);
    });
    if (st.ok()) return st;
    if (!st.IsInvalidArgument()) return st;
    // Target page full: move the body again and rewrite the stub.
    Status del = MutatePage(tpage, wal, [&](SlottedPage& tsp) {
      return tsp.Delete(target.slot);
    });
    MOOD_RETURN_IF_ERROR(del);
    tguard.Release();
    MOOD_ASSIGN_OR_RETURN(RecordId moved, InsertWithFlags(record, kSlotMovedIn, wal));
    std::string stub_bytes;
    EncodeRecordId(&stub_bytes, moved);
    return MutatePage(page, wal, [&](SlottedPage& hsp) {
      return hsp.Update(rid.slot, Slice(stub_bytes));
    });
  }

  Status st = MutatePage(page, wal, [&](SlottedPage& hsp) {
    return hsp.Update(rid.slot, record);
  });
  if (st.ok()) return st;
  if (!st.IsInvalidArgument()) return st;

  // Home page full: move the record elsewhere and leave a forwarding stub. The
  // 6-byte stub always fits because the old record occupied at least that much
  // space... except for tiny records; in that case compaction plus the freed body
  // still guarantees room since stub <= old size is not assured. Handle both by
  // deleting first.
  MOOD_ASSIGN_OR_RETURN(RecordId moved, InsertWithFlags(record, kSlotMovedIn, wal));
  std::string stub_bytes;
  EncodeRecordId(&stub_bytes, moved);
  Status st2 = MutatePage(page, wal, [&](SlottedPage& hsp) {
    MOOD_RETURN_IF_ERROR(hsp.Delete(rid.slot));
    return hsp.InsertAt(rid.slot, Slice(stub_bytes), kSlotForward);
  });
  return st2;
}

Status HeapFile::Delete(RecordId rid, PageWriteLogger* wal) {
  deletes_.fetch_add(1, std::memory_order_relaxed);
  MOOD_ASSIGN_OR_RETURN(Page* page, pool_->FetchPage(rid.page));
  PageGuard guard(pool_, page);
  guard.MarkDirty();
  SlottedPage sp(page);
  MOOD_ASSIGN_OR_RETURN(uint8_t flags, sp.GetFlags(rid.slot));
  if (flags & kSlotForward) {
    MOOD_ASSIGN_OR_RETURN(Slice stub, sp.Get(rid.slot));
    MOOD_ASSIGN_OR_RETURN(RecordId target, DecodeRecordId(stub));
    MOOD_ASSIGN_OR_RETURN(Page* tpage, pool_->FetchPage(target.page));
    PageGuard tguard(pool_, tpage);
    tguard.MarkDirty();
    MOOD_RETURN_IF_ERROR(MutatePage(tpage, wal, [&](SlottedPage& tsp) {
      return tsp.Delete(target.slot);
    }));
  }
  MOOD_RETURN_IF_ERROR(MutatePage(page, wal, [&](SlottedPage& hsp) {
    return hsp.Delete(rid.slot);
  }));
  info_.record_count--;
  return PersistInfo(wal);
}

Result<std::vector<PageId>> HeapFile::PageIds() const {
  std::vector<PageId> pages;
  pages.reserve(info_.page_count);
  PageId page = info_.first_page;
  while (page != kInvalidPageId) {
    pages.push_back(page);
    MOOD_ASSIGN_OR_RETURN(Page* p, pool_->FetchPage(page));
    PageGuard guard(pool_, p);
    SlottedPage sp(p);
    page = sp.next_page();
  }
  RememberChain(pages);
  return pages;
}

void HeapFile::RememberChain(std::vector<PageId> pages) const {
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    if (chain_ != nullptr) return;
  }
  auto map = std::make_shared<ChainMap>();
  map->pages = std::move(pages);
  map->index.reserve(map->pages.size());
  for (uint32_t i = 0; i < map->pages.size(); i++) map->index[map->pages[i]] = i;
  std::lock_guard<std::mutex> lock(chain_mu_);
  if (chain_ == nullptr) chain_ = std::move(map);
}

void HeapFile::MaybeReadAhead(PageId page, ScanCursor* cursor) const {
  if (cursor == nullptr) return;
  size_t depth = pool_->readahead();
  if (depth == 0) return;
  std::shared_ptr<const ChainMap> cached;
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    cached = chain_;
  }
  if (cached == nullptr) return;
  const ChainMap& chain = *cached;
  auto it = chain.index.find(page);
  if (it == chain.index.end()) return;
  const uint32_t idx = it->second;
  // A stale chain map can place a page behind the walk: no readahead then.
  if (cursor->last_index != ScanCursor::kNoIndex && idx < cursor->last_index) return;
  cursor->last_index = idx;
  const auto want =
      static_cast<uint32_t>(std::min<uint64_t>(uint64_t{idx} + 1 + depth, chain.pages.size()));
  for (uint32_t i = std::max(cursor->prefetched_to, idx + 1); i < want; i++) {
    (void)pool_->Prefetch(chain.pages[i]);  // best-effort
  }
  cursor->prefetched_to = std::max(cursor->prefetched_to, want);
}

Result<PageId> HeapFile::ScanPage(
    PageId page_id, const std::function<Status(RecordId, const std::string&)>& fn) const {
  return WalkPage(page_id, nullptr, /*copy=*/true, fn);
}

Result<PageId> HeapFile::WalkPage(
    PageId page_id, ScanCursor* cursor, bool copy,
    const std::function<Status(RecordId, const std::string&)>& fn) const {
  scan_pages_.fetch_add(1, std::memory_order_relaxed);
  struct Item {
    RecordId rid;
    std::string record;
    bool forwarded;
  };
  std::vector<Item> items;
  PageId next = kInvalidPageId;
  {
    MOOD_ASSIGN_OR_RETURN(Page* page, pool_->FetchPage(page_id));
    PageGuard guard(pool_, page);
    SlottedPage sp(page);
    next = sp.next_page();
    for (SlotId s = 0; s < sp.slot_count(); s++) {
      if (!sp.IsLive(s)) continue;
      MOOD_ASSIGN_OR_RETURN(uint8_t flags, sp.GetFlags(s));
      if (flags & kSlotMovedIn) continue;  // reached via its home slot
      Item item;
      item.rid = RecordId{page_id, s};
      item.forwarded = (flags & kSlotForward) != 0;
      if (copy && !item.forwarded) {
        MOOD_ASSIGN_OR_RETURN(Slice data, sp.Get(s));
        item.record = data.ToString();
      }
      items.push_back(std::move(item));
    }
  }
  // Readahead after the demand page is read and released: disk access order
  // stays sequential and the prefetches cannot collide with this page's pin.
  MaybeReadAhead(page_id, cursor);
  // Chase forwarding stubs and run the callback with no page pinned, so deep
  // callbacks cannot exhaust a small pool.
  for (auto& item : items) {
    if (copy && item.forwarded) {
      MOOD_ASSIGN_OR_RETURN(item.record, Get(item.rid));
    }
    MOOD_RETURN_IF_ERROR(fn(item.rid, item.record));
  }
  return next;
}

Status HeapFile::WalkChain(
    bool copy, const std::function<Status(RecordId, const std::string&)>& fn) const {
  ScanCursor cursor;
  std::vector<PageId> pages;
  for (PageId page = info_.first_page; page != kInvalidPageId;) {
    pages.push_back(page);
    MOOD_ASSIGN_OR_RETURN(page, WalkPage(page, &cursor, copy, fn));
  }
  RememberChain(std::move(pages));
  return Status::OK();
}

Status HeapFile::Scan(const std::function<Status(RecordId, const std::string&)>& fn) const {
  return WalkChain(/*copy=*/true, fn);
}

Status HeapFile::ScanIds(const std::function<Status(RecordId)>& fn) const {
  return WalkChain(/*copy=*/false, [&](RecordId rid, const std::string&) { return fn(rid); });
}

}  // namespace mood
