#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/slotted_page.h"
#include "storage/storage_manager.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::TempDir;

TEST(DiskManagerTest, AllocateReadWrite) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  MOOD_ASSERT_OK_AND_ASSIGN(PageId p0, disk.AllocatePage());
  MOOD_ASSERT_OK_AND_ASSIGN(PageId p1, disk.AllocatePage());
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  char buf[kPageSize];
  std::memset(buf, 0xAB, kPageSize);
  MOOD_ASSERT_OK(disk.WritePage(p1, buf));
  char out[kPageSize];
  MOOD_ASSERT_OK(disk.ReadPage(p1, out));
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);
  EXPECT_EQ(disk.num_pages(), 2u);
}

TEST(DiskManagerTest, OutOfRangeReadFails) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  char out[kPageSize];
  EXPECT_TRUE(disk.ReadPage(5, out).IsInvalidArgument());
}

TEST(DiskManagerTest, ClassifiesSequentialVsRandomReads) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  for (int i = 0; i < 10; i++) MOOD_ASSERT_OK(disk.AllocatePage().status());
  char out[kPageSize];
  disk.ResetStats();
  for (PageId p = 0; p < 10; p++) MOOD_ASSERT_OK(disk.ReadPage(p, out));
  EXPECT_EQ(disk.stats().sequential_reads, 9u);  // first read is "random"
  MOOD_ASSERT_OK(disk.ReadPage(3, out));
  EXPECT_EQ(disk.stats().random_reads, 2u);
}

TEST(DiskManagerTest, PersistsAcrossReopen) {
  TempDir dir;
  {
    DiskManager disk;
    MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
    MOOD_ASSERT_OK(disk.AllocatePage().status());
    char buf[kPageSize];
    std::memset(buf, 0x17, kPageSize);
    MOOD_ASSERT_OK(disk.WritePage(0, buf));
    MOOD_ASSERT_OK(disk.Sync());
  }
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  EXPECT_EQ(disk.num_pages(), 1u);
  char out[kPageSize];
  MOOD_ASSERT_OK(disk.ReadPage(0, out));
  EXPECT_EQ(out[100], 0x17);
}

TEST(BufferPoolTest, HitAndMissAccounting) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  BufferPool pool(&disk, 4);
  MOOD_ASSERT_OK_AND_ASSIGN(Page* p, pool.NewPage());
  PageId id = p->page_id();
  MOOD_ASSERT_OK(pool.UnpinPage(id, true));
  MOOD_ASSERT_OK_AND_ASSIGN(Page* again, pool.FetchPage(id));
  EXPECT_EQ(again->page_id(), id);
  EXPECT_EQ(pool.stats().hits, 1u);
  MOOD_ASSERT_OK(pool.UnpinPage(id, false));
}

TEST(BufferPoolTest, EvictsLruAndWritesBack) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  BufferPool pool(&disk, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 3; i++) {
    MOOD_ASSERT_OK_AND_ASSIGN(Page* p, pool.NewPage());
    p->data()[0] = static_cast<char>('a' + i);
    ids.push_back(p->page_id());
    MOOD_ASSERT_OK(pool.UnpinPage(p->page_id(), true));
  }
  // Page 0 was evicted to make room; fetch it back and verify the content.
  MOOD_ASSERT_OK_AND_ASSIGN(Page* p0, pool.FetchPage(ids[0]));
  EXPECT_EQ(p0->data()[0], 'a');
  MOOD_ASSERT_OK(pool.UnpinPage(ids[0], false));
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  BufferPool pool(&disk, 2);
  MOOD_ASSERT_OK_AND_ASSIGN(Page* a, pool.NewPage());
  MOOD_ASSERT_OK_AND_ASSIGN(Page* b, pool.NewPage());
  (void)a;
  (void)b;
  // Both frames pinned: a third page cannot be placed.
  auto r = pool.NewPage();
  EXPECT_FALSE(r.ok());
  MOOD_ASSERT_OK(pool.UnpinPage(a->page_id(), false));
  MOOD_ASSERT_OK_AND_ASSIGN(Page* c, pool.NewPage());
  MOOD_ASSERT_OK(pool.UnpinPage(b->page_id(), false));
  MOOD_ASSERT_OK(pool.UnpinPage(c->page_id(), false));
}

TEST(BufferPoolTest, ChecksumFailureSurfacesAsCorruption) {
  TempDir dir;
  std::string path = dir.Path("db");
  PageId id = 0;
  {
    DiskManager disk;
    MOOD_ASSERT_OK(disk.Open(path));
    BufferPool pool(&disk, 2);
    MOOD_ASSERT_OK_AND_ASSIGN(Page* p, pool.NewPage());
    id = p->page_id();
    std::memset(p->data(), 0x42, kPageSize);
    MOOD_ASSERT_OK(pool.UnpinPage(id, true));
    MOOD_ASSERT_OK(pool.FlushAll());
    MOOD_ASSERT_OK(disk.Sync());
  }
  // Flip a payload byte of the frame on disk, behind the pool's back.
  {
    FILE* f = fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    long off = static_cast<long>(id) * kDiskFrameSize + kPageFrameHeaderSize + 7;
    ASSERT_EQ(fseek(f, off, SEEK_SET), 0);
    int c = fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(fseek(f, off, SEEK_SET), 0);
    fputc(c ^ 0x80, f);
    fclose(f);
  }
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(path));
  BufferPool pool(&disk, 2);
  Status st = pool.FetchPage(id).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
  // The failed fetch released its frame: the pool still has both to give.
  MOOD_ASSERT_OK_AND_ASSIGN(Page* a, pool.NewPage());
  MOOD_ASSERT_OK_AND_ASSIGN(Page* b, pool.NewPage());
  MOOD_ASSERT_OK(pool.UnpinPage(a->page_id(), false));
  MOOD_ASSERT_OK(pool.UnpinPage(b->page_id(), false));
}

TEST(BufferPoolTest, TolerantFetchRebuildsCorruptFrameZeroed) {
  TempDir dir;
  std::string path = dir.Path("db");
  {
    DiskManager disk;
    MOOD_ASSERT_OK(disk.Open(path));
    BufferPool pool(&disk, 2);
    MOOD_ASSERT_OK_AND_ASSIGN(Page* p, pool.NewPage());
    std::memset(p->data(), 0x42, kPageSize);
    MOOD_ASSERT_OK(pool.UnpinPage(p->page_id(), true));
    MOOD_ASSERT_OK(pool.FlushAll());
  }
  {
    FILE* f = fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fseek(f, kPageFrameHeaderSize + 99, SEEK_SET), 0);
    fputc(0x13, f);
    fclose(f);
  }
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(path));
  BufferPool pool(&disk, 2);
  bool corrupted = false;
  MOOD_ASSERT_OK_AND_ASSIGN(Page* p, pool.FetchPageTolerant(0, &corrupted));
  EXPECT_TRUE(corrupted);
  // The frame comes back zero-filled (page LSN 0) so recovery's full images
  // redo on top of it.
  for (size_t i = 0; i < kPageSize; i++) {
    ASSERT_EQ(p->data()[i], 0) << "at offset " << i;
  }
  MOOD_ASSERT_OK(pool.UnpinPage(0, false));
  // An intact page fetched tolerantly is reported clean.
  corrupted = true;
  // (page 0 is now cached; re-fetch hits the buffer, so use the cached copy)
  MOOD_ASSERT_OK_AND_ASSIGN(Page* again, pool.FetchPageTolerant(0, &corrupted));
  EXPECT_FALSE(corrupted);
  MOOD_ASSERT_OK(pool.UnpinPage(again->page_id(), false));
}

TEST(BufferPoolTest, UnpinUnknownPageFails) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  BufferPool pool(&disk, 2);
  EXPECT_FALSE(pool.UnpinPage(99, false).ok());
}

TEST(BufferPoolTest, StatsResetRacesWithFetchesCoherently) {
  // stats()/ResetStats() are atomic-counter based: a reset racing a fetch loop
  // must neither tear a snapshot nor lose fetches counted after the reset.
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  BufferPool pool(&disk, 2);
  MOOD_ASSERT_OK_AND_ASSIGN(Page* p, pool.NewPage());
  PageId id = p->page_id();
  MOOD_ASSERT_OK(pool.UnpinPage(id, true));

  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    while (!stop.load()) {
      BufferPoolStats s = pool.stats();
      // hits/misses are unsigned; a torn read would show absurd values.
      EXPECT_LT(s.hits, 1u << 30);
      EXPECT_LE(s.evictions, s.misses + 2);
      pool.ResetStats();
    }
  });
  constexpr size_t kFetches = 5000;
  for (size_t i = 0; i < kFetches; i++) {
    MOOD_ASSERT_OK(pool.FetchPage(id).status());
    MOOD_ASSERT_OK(pool.UnpinPage(id, false));
  }
  stop = true;
  resetter.join();

  // After the dust settles the counters behave exactly as single-threaded.
  pool.ResetStats();
  for (int i = 0; i < 10; i++) {
    MOOD_ASSERT_OK(pool.FetchPage(id).status());
    MOOD_ASSERT_OK(pool.UnpinPage(id, false));
  }
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 10u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(pool.PinnedPageCount(), 0u);
}

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : sp_(&page_) { sp_.Init(); }
  Page page_;
  SlottedPage sp_;
};

TEST_F(SlottedPageTest, InsertAndGet) {
  MOOD_ASSERT_OK_AND_ASSIGN(SlotId s0, sp_.Insert("hello"));
  MOOD_ASSERT_OK_AND_ASSIGN(SlotId s1, sp_.Insert("world!"));
  EXPECT_EQ(s0, 0);
  EXPECT_EQ(s1, 1);
  MOOD_ASSERT_OK_AND_ASSIGN(Slice v0, sp_.Get(s0));
  MOOD_ASSERT_OK_AND_ASSIGN(Slice v1, sp_.Get(s1));
  EXPECT_EQ(v0.ToString(), "hello");
  EXPECT_EQ(v1.ToString(), "world!");
  EXPECT_EQ(sp_.LiveCount(), 2);
}

TEST_F(SlottedPageTest, DeleteFreesSlot) {
  MOOD_ASSERT_OK_AND_ASSIGN(SlotId s0, sp_.Insert("abc"));
  MOOD_ASSERT_OK(sp_.Delete(s0));
  EXPECT_FALSE(sp_.Get(s0).ok());
  EXPECT_TRUE(sp_.Delete(s0).IsNotFound());
  // Dead slot is reused.
  MOOD_ASSERT_OK_AND_ASSIGN(SlotId s1, sp_.Insert("def"));
  EXPECT_EQ(s1, s0);
}

TEST_F(SlottedPageTest, UpdateInPlaceAndGrow) {
  MOOD_ASSERT_OK_AND_ASSIGN(SlotId s, sp_.Insert(std::string(100, 'a')));
  MOOD_ASSERT_OK(sp_.Update(s, "short"));
  MOOD_ASSERT_OK_AND_ASSIGN(Slice v, sp_.Get(s));
  EXPECT_EQ(v.ToString(), "short");
  MOOD_ASSERT_OK(sp_.Update(s, std::string(500, 'b')));
  MOOD_ASSERT_OK_AND_ASSIGN(Slice v2, sp_.Get(s));
  EXPECT_EQ(v2.size(), 500u);
}

TEST_F(SlottedPageTest, FullPageRejectsInsert) {
  std::string big(1000, 'x');
  int inserted = 0;
  while (sp_.Insert(big).ok()) inserted++;
  EXPECT_GT(inserted, 0);
  EXPECT_LT(inserted, 5);
  // A small record may still fit.
  EXPECT_EQ(sp_.LiveCount(), inserted);
}

TEST_F(SlottedPageTest, CompactionReclaimsDeletedSpace) {
  std::string big(900, 'x');
  std::vector<SlotId> slots;
  for (;;) {
    auto r = sp_.Insert(big);
    if (!r.ok()) break;
    slots.push_back(r.value());
  }
  ASSERT_GE(slots.size(), 3u);
  // Delete every other record, then a same-size insert must succeed through
  // compaction.
  for (size_t i = 0; i < slots.size(); i += 2) MOOD_ASSERT_OK(sp_.Delete(slots[i]));
  MOOD_ASSERT_OK(sp_.Insert(big).status());
}

TEST_F(SlottedPageTest, GrowUpdateRestoresOnFailure) {
  std::string big(1800, 'x');
  MOOD_ASSERT_OK_AND_ASSIGN(SlotId a, sp_.Insert(big));
  MOOD_ASSERT_OK(sp_.Insert(big).status());
  // Growing `a` beyond available space must fail but keep the old record.
  EXPECT_FALSE(sp_.Update(a, std::string(3000, 'y')).ok());
  MOOD_ASSERT_OK_AND_ASSIGN(Slice v, sp_.Get(a));
  EXPECT_EQ(v.size(), big.size());
  EXPECT_EQ(v[0], 'x');
}

TEST_F(SlottedPageTest, RecordTooLargeForAnyPage) {
  EXPECT_TRUE(sp_.Insert(std::string(kPageSize, 'x')).status().IsInvalidArgument());
}

TEST_F(SlottedPageTest, LsnAndNextPageHeaderFields) {
  sp_.set_lsn(12345);
  sp_.set_next_page(77);
  EXPECT_EQ(sp_.lsn(), 12345u);
  EXPECT_EQ(sp_.next_page(), 77u);
}

using ScannedRecords = std::vector<std::pair<RecordId, std::string>>;

/// Every (RecordId, record) pair HeapFile::Scan produces, in scan order.
ScannedRecords ScanAll(const HeapFile& file) {
  ScannedRecords out;
  Status st = file.Scan([&](RecordId rid, const std::string& rec) {
    out.emplace_back(rid, rec);
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MOOD_ASSERT_OK(storage_.Open(dir_.Path("db")));
    MOOD_ASSERT_OK_AND_ASSIGN(file_id_, storage_.CreateFile());
    MOOD_ASSERT_OK_AND_ASSIGN(file_, storage_.GetFile(file_id_));
  }
  TempDir dir_;
  StorageManager storage_;
  FileId file_id_ = kInvalidFileId;
  HeapFile* file_ = nullptr;
};

TEST_F(HeapFileTest, InsertGetDelete) {
  MOOD_ASSERT_OK_AND_ASSIGN(RecordId rid, file_->Insert("record-1"));
  MOOD_ASSERT_OK_AND_ASSIGN(std::string rec, file_->Get(rid));
  EXPECT_EQ(rec, "record-1");
  EXPECT_EQ(file_->record_count(), 1u);
  MOOD_ASSERT_OK(file_->Delete(rid));
  EXPECT_FALSE(file_->Get(rid).ok());
  EXPECT_EQ(file_->record_count(), 0u);
}

TEST_F(HeapFileTest, SpansManyPages) {
  std::vector<RecordId> rids;
  std::string payload(300, 'p');
  for (int i = 0; i < 200; i++) {
    MOOD_ASSERT_OK_AND_ASSIGN(RecordId rid,
                              file_->Insert(payload + std::to_string(i)));
    rids.push_back(rid);
  }
  EXPECT_GT(file_->page_count(), 10u);
  for (int i = 0; i < 200; i++) {
    MOOD_ASSERT_OK_AND_ASSIGN(std::string rec, file_->Get(rids[static_cast<size_t>(i)]));
    EXPECT_EQ(rec, payload + std::to_string(i));
  }
}

TEST_F(HeapFileTest, GrowingUpdateForwardsButRidStable) {
  // Fill the first page so a grown record must move.
  std::vector<RecordId> rids;
  for (int i = 0; i < 12; i++) {
    MOOD_ASSERT_OK_AND_ASSIGN(RecordId rid, file_->Insert(std::string(300, 'a')));
    rids.push_back(rid);
  }
  RecordId victim = rids[0];
  std::string grown(2000, 'z');
  MOOD_ASSERT_OK(file_->Update(victim, grown));
  MOOD_ASSERT_OK_AND_ASSIGN(std::string rec, file_->Get(victim));
  EXPECT_EQ(rec, grown);
  // Update the forwarded record again (both in-place and grow paths).
  MOOD_ASSERT_OK(file_->Update(victim, "tiny"));
  MOOD_ASSERT_OK_AND_ASSIGN(std::string rec2, file_->Get(victim));
  EXPECT_EQ(rec2, "tiny");
  std::string grown2(3000, 'w');
  MOOD_ASSERT_OK(file_->Update(victim, grown2));
  MOOD_ASSERT_OK_AND_ASSIGN(std::string rec3, file_->Get(victim));
  EXPECT_EQ(rec3, grown2);
  // Deleting through the forward removes it from scans; the moved body is
  // never scanned on its own.
  MOOD_ASSERT_OK(file_->Delete(victim));
  ScannedRecords expected;
  for (size_t i = 1; i < rids.size(); i++) expected.emplace_back(rids[i], std::string(300, 'a'));
  EXPECT_EQ(ScanAll(*file_), expected);
}

TEST_F(HeapFileTest, ScanSeesAllLiveRecordsOnceInInsertOrder) {
  // Inserts append, so the chain order is the insert order.
  ScannedRecords expected;
  for (int i = 0; i < 400; i++) {
    std::string rec = "r" + std::to_string(i) + std::string(40, 'p');
    MOOD_ASSERT_OK_AND_ASSIGN(RecordId rid, file_->Insert(rec));
    expected.emplace_back(rid, rec);
  }
  ASSERT_GT(file_->page_count(), 2u);
  EXPECT_EQ(ScanAll(*file_), expected);
}

TEST_F(HeapFileTest, ScanFollowsForwardsWithoutDuplicates) {
  ScannedRecords expected;
  for (int i = 0; i < 12; i++) {
    std::string rec = std::string(300, 'a') + std::to_string(i);
    MOOD_ASSERT_OK_AND_ASSIGN(RecordId rid, file_->Insert(rec));
    expected.emplace_back(rid, rec);
  }
  // The grown record moves to another page; the scan reaches it through its
  // home slot, under its original RecordId.
  expected[1].second = std::string(2500, 'q');
  MOOD_ASSERT_OK(file_->Update(expected[1].first, expected[1].second));
  EXPECT_EQ(ScanAll(*file_), expected);
}

TEST_F(HeapFileTest, ScanPageHandsBackTheChainLink) {
  while (file_->page_count() < 5) {
    MOOD_ASSERT_OK(file_->Insert(std::string(700, 'c')).status());
  }
  MOOD_ASSERT_OK_AND_ASSIGN(std::vector<PageId> pages, file_->PageIds());
  std::vector<PageId> walked;
  for (PageId page = file_->info().first_page; page != kInvalidPageId;) {
    walked.push_back(page);
    MOOD_ASSERT_OK_AND_ASSIGN(
        page, file_->ScanPage(page, nullptr,
                              [](RecordId, const std::string&) { return Status::OK(); }));
  }
  EXPECT_EQ(walked, pages);
}

TEST_F(HeapFileTest, PersistsAcrossReopen) {
  MOOD_ASSERT_OK_AND_ASSIGN(RecordId rid, file_->Insert("persistent"));
  MOOD_ASSERT_OK(storage_.Close());
  StorageManager reopened;
  MOOD_ASSERT_OK(reopened.Open(dir_.Path("db")));
  MOOD_ASSERT_OK_AND_ASSIGN(HeapFile * file, reopened.GetFile(file_id_));
  MOOD_ASSERT_OK_AND_ASSIGN(std::string rec, file->Get(rid));
  EXPECT_EQ(rec, "persistent");
  EXPECT_EQ(file->record_count(), 1u);
}

TEST(StorageManagerTest, ManyFilesAndDirectoryChaining) {
  TempDir dir;
  StorageManager storage;
  MOOD_ASSERT_OK(storage.Open(dir.Path("db")));
  // More files than one directory page holds (capacity ~170).
  std::vector<FileId> ids;
  for (int i = 0; i < 200; i++) {
    MOOD_ASSERT_OK_AND_ASSIGN(FileId id, storage.CreateFile());
    ids.push_back(id);
  }
  std::map<FileId, RecordId> rids;
  for (FileId id : ids) {
    MOOD_ASSERT_OK_AND_ASSIGN(HeapFile * f, storage.GetFile(id));
    MOOD_ASSERT_OK_AND_ASSIGN(rids[id], f->Insert("file" + std::to_string(id)));
  }
  MOOD_ASSERT_OK(storage.Close());
  StorageManager reopened;
  MOOD_ASSERT_OK(reopened.Open(dir.Path("db")));
  for (FileId id : ids) {
    MOOD_ASSERT_OK_AND_ASSIGN(HeapFile * f, reopened.GetFile(id));
    EXPECT_EQ(f->record_count(), 1u);
    EXPECT_EQ(ScanAll(*f), ScannedRecords({{rids[id], "file" + std::to_string(id)}}));
  }
}

TEST(StorageManagerTest, UnknownFileIsNotFound) {
  TempDir dir;
  StorageManager storage;
  MOOD_ASSERT_OK(storage.Open(dir.Path("db")));
  EXPECT_TRUE(storage.GetFile(999).status().IsNotFound());
}

/// Property-style sweep: random insert/update/delete against an in-memory model.
class HeapFileFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeapFileFuzzTest, MatchesModel) {
  TempDir dir;
  StorageManager storage;
  MOOD_ASSERT_OK(storage.Open(dir.Path("db")));
  MOOD_ASSERT_OK_AND_ASSIGN(FileId fid, storage.CreateFile());
  MOOD_ASSERT_OK_AND_ASSIGN(HeapFile * file, storage.GetFile(fid));

  Random rng(GetParam());
  std::map<std::string, std::string> model;  // key(rid string) -> payload
  std::map<std::string, RecordId> rids;
  for (int step = 0; step < 600; step++) {
    int action = static_cast<int>(rng.Uniform(3));
    if (action == 0 || model.empty()) {
      std::string payload(1 + rng.Uniform(800), static_cast<char>('a' + rng.Uniform(26)));
      MOOD_ASSERT_OK_AND_ASSIGN(RecordId rid, file->Insert(payload));
      std::string key = std::to_string(rid.page) + ":" + std::to_string(rid.slot);
      model[key] = payload;
      rids[key] = rid;
    } else {
      size_t pick = rng.Uniform(model.size());
      auto it = model.begin();
      std::advance(it, static_cast<long>(pick));
      if (action == 1) {
        std::string payload(1 + rng.Uniform(1500),
                            static_cast<char>('A' + rng.Uniform(26)));
        MOOD_ASSERT_OK(file->Update(rids[it->first], payload));
        it->second = payload;
      } else {
        MOOD_ASSERT_OK(file->Delete(rids[it->first]));
        rids.erase(it->first);
        model.erase(it);
      }
    }
  }
  // Verify every record by RID and by scan.
  for (const auto& [key, payload] : model) {
    MOOD_ASSERT_OK_AND_ASSIGN(std::string rec, file->Get(rids[key]));
    EXPECT_EQ(rec, payload);
  }
  std::map<std::string, std::string> scanned;
  for (const auto& [rid, rec] : ScanAll(*file)) {
    std::string key = std::to_string(rid.page) + ":" + std::to_string(rid.slot);
    EXPECT_TRUE(scanned.emplace(key, rec).second) << "duplicate " << key;
  }
  EXPECT_EQ(scanned, model);
  EXPECT_EQ(file->record_count(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapFileFuzzTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace mood
