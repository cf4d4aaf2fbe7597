// Tests for PR 2's kernel additions: the sharded buffer pool's shard
// resolution and per-shard eviction accounting, scan readahead (prefetched
// pages must be indistinguishable from demand-fetched ones), and the
// per-query Deref cache with write-epoch invalidation.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "objects/object_manager.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/storage_manager.h"
#include "tests/test_util.h"
#include "txn/version_store.h"

namespace mood {
namespace {

using testing::TempDir;

// --- Shard resolution -------------------------------------------------------------

TEST(ShardedPoolTest, ExplicitShardCountHonored) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  EXPECT_EQ(BufferPool(&disk, 64, 8).shard_count(), 8u);
  // Non-power-of-two requests round down.
  EXPECT_EQ(BufferPool(&disk, 64, 6).shard_count(), 4u);
  // A request past the frame count is clamped (and rounded down).
  EXPECT_EQ(BufferPool(&disk, 4, 64).shard_count(), 4u);
}

TEST(ShardedPoolTest, TinyPoolsAutoResolveToOneShard) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  // Auto mode keeps at least kMinAutoFramesPerShard frames per shard, so the
  // 8-frame pools the storage tests use behave like the old single-mutex pool.
  EXPECT_EQ(BufferPool(&disk, 8, 0).shard_count(), 1u);
  EXPECT_GE(BufferPool(&disk, 1024, 0).shard_count(), 4u);
}

// --- Per-shard eviction accounting -------------------------------------------------

TEST(ShardedPoolTest, ShardEvictionAccounting) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  for (int i = 0; i < 128; i++) MOOD_ASSERT_OK(disk.AllocatePage().status());

  BufferPool pool(&disk, 8, 4);  // 4 shards x 2 frames
  ASSERT_EQ(pool.shard_count(), 4u);

  // Pick 10 pages that all hash to the same shard, so every eviction lands in
  // that shard's counters.
  const size_t target = pool.ShardOf(0);
  std::vector<PageId> same_shard;
  for (PageId p = 0; p < 128 && same_shard.size() < 10; p++) {
    if (pool.ShardOf(p) == target) same_shard.push_back(p);
  }
  ASSERT_EQ(same_shard.size(), 10u);

  for (PageId p : same_shard) {
    MOOD_ASSERT_OK(pool.FetchPage(p).status());
    MOOD_ASSERT_OK(pool.UnpinPage(p, false));
  }

  // 10 distinct pages through a 2-frame shard: the 2 free frames absorb the
  // first misses, the other 8 displace a resident page.
  BufferPoolStats ts = pool.ShardStats(target);
  EXPECT_EQ(ts.misses, 10u);
  EXPECT_EQ(ts.hits, 0u);
  EXPECT_EQ(ts.evictions, 8u);
  for (size_t s = 0; s < pool.shard_count(); s++) {
    if (s == target) continue;
    BufferPoolStats other = pool.ShardStats(s);
    EXPECT_EQ(other.hits + other.misses + other.evictions, 0u)
        << "shard " << s << " saw traffic for pages of shard " << target;
  }

  // The aggregate snapshot is exactly the per-shard sum.
  BufferPoolStats sum;
  for (size_t s = 0; s < pool.shard_count(); s++) {
    BufferPoolStats ss = pool.ShardStats(s);
    sum.hits += ss.hits;
    sum.misses += ss.misses;
    sum.evictions += ss.evictions;
  }
  BufferPoolStats agg = pool.stats();
  EXPECT_EQ(agg.hits, sum.hits);
  EXPECT_EQ(agg.misses, sum.misses);
  EXPECT_EQ(agg.evictions, sum.evictions);
  EXPECT_EQ(pool.PinnedPageCount(), 0u);
}

// --- Prefetch ----------------------------------------------------------------------

TEST(ShardedPoolTest, PrefetchedPageIsAHitNotAMiss) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  MOOD_ASSERT_OK_AND_ASSIGN(PageId p, disk.AllocatePage());

  BufferPool pool(&disk, 8, 1);
  MOOD_ASSERT_OK(pool.Prefetch(p));
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.prefetches, 1u);
  EXPECT_EQ(s.hits + s.misses, 0u);  // prefetch never skews the fetch counters

  MOOD_ASSERT_OK(pool.FetchPage(p).status());
  MOOD_ASSERT_OK(pool.UnpinPage(p, false));
  s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);

  // Prefetching a resident page is a no-op.
  MOOD_ASSERT_OK(pool.Prefetch(p));
  EXPECT_EQ(pool.stats().prefetches, 1u);
  EXPECT_EQ(pool.PinnedPageCount(), 0u);
}

TEST(ShardedPoolTest, PrefetchSkipsWhenShardFullyPinned) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  MOOD_ASSERT_OK_AND_ASSIGN(PageId p0, disk.AllocatePage());
  MOOD_ASSERT_OK_AND_ASSIGN(PageId p1, disk.AllocatePage());

  BufferPool pool(&disk, 1, 1);
  MOOD_ASSERT_OK(pool.FetchPage(p0).status());  // the only frame, pinned
  MOOD_ASSERT_OK(pool.Prefetch(p1));            // must not fail the caller
  EXPECT_EQ(pool.stats().prefetches, 0u);
  MOOD_ASSERT_OK(pool.UnpinPage(p0, false));
}

// --- PageGuard move hygiene --------------------------------------------------------

TEST(ShardedPoolTest, PageGuardMoveReleasesExactlyOnce) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  MOOD_ASSERT_OK_AND_ASSIGN(PageId p0, disk.AllocatePage());
  MOOD_ASSERT_OK_AND_ASSIGN(PageId p1, disk.AllocatePage());

  BufferPool pool(&disk, 4, 1);
  {
    MOOD_ASSERT_OK_AND_ASSIGN(Page * a, pool.FetchPage(p0));
    MOOD_ASSERT_OK_AND_ASSIGN(Page * b, pool.FetchPage(p1));
    PageGuard ga(&pool, a);
    PageGuard gb(&pool, b);
    EXPECT_EQ(pool.PinnedPageCount(), 2u);

    // Move-assign releases the destination's old pin and steals the source.
    ga = std::move(gb);
    EXPECT_EQ(pool.PinnedPageCount(), 1u);
    EXPECT_EQ(ga.get()->page_id(), p1);
    EXPECT_FALSE(gb.valid());  // NOLINT(bugprone-use-after-move)

    // Self-move (through a reference, to dodge -Wself-move) must not unpin.
    PageGuard& alias = ga;
    ga = std::move(alias);
    EXPECT_TRUE(ga.valid());
    EXPECT_EQ(pool.PinnedPageCount(), 1u);
  }
  EXPECT_EQ(pool.PinnedPageCount(), 0u);
}

// --- HeapFile readahead ------------------------------------------------------------

TEST(HeapFileReadaheadTest, MonotoneScanPrefetchesAndPreservesRecords) {
  TempDir dir;
  StorageManager storage;
  StorageOptions opts;
  opts.pool_pages = 4;  // far smaller than the file, so readahead matters
  opts.pool_shards = 1;
  opts.readahead_pages = 2;
  MOOD_ASSERT_OK(storage.Open(dir.Path("db"), opts));
  ASSERT_EQ(storage.buffer_pool()->readahead(), 2u);

  MOOD_ASSERT_OK_AND_ASSIGN(FileId fid, storage.CreateFile());
  MOOD_ASSERT_OK_AND_ASSIGN(HeapFile * file, storage.GetFile(fid));
  std::string payload(512, 'x');
  while (file->page_count() < 12) {
    MOOD_ASSERT_OK(file->Insert(payload).status());
  }
  MOOD_ASSERT_OK_AND_ASSIGN(std::vector<PageId> pages, file->PageIds());
  ASSERT_EQ(pages.size(), 12u);

  auto scan_all = [&](HeapFile::ScanCursor* cursor) {
    std::vector<std::string> records;
    for (PageId p : pages) {
      EXPECT_TRUE(file->ScanPage(p, cursor,
                                 [&](RecordId, const std::string& rec) {
                                   records.push_back(rec);
                                   return Status::OK();
                                 })
                      .ok());
    }
    return records;
  };

  std::vector<std::string> plain = scan_all(nullptr);
  HeapFile::ScanCursor warm;  // first cursor'd scan also builds the chain cache
  std::vector<std::string> warmed = scan_all(&warm);
  EXPECT_EQ(plain, warmed);

  // With the chain cached, a fresh monotone scan fetches each page exactly
  // once — and readahead turns nearly all of those fetches into hits.
  storage.buffer_pool()->ResetStats();
  HeapFile::ScanCursor cursor;
  std::vector<std::string> ahead = scan_all(&cursor);
  EXPECT_EQ(plain, ahead);

  BufferPoolStats s = storage.buffer_pool()->stats();
  EXPECT_EQ(s.hits + s.misses, pages.size());  // one demand fetch per page
  EXPECT_LE(s.misses, 4u);                     // everything else was prefetched
  EXPECT_GE(s.prefetches, 8u);
  EXPECT_EQ(storage.buffer_pool()->PinnedPageCount(), 0u);

  // A backward jump must not fault: readahead just stays quiet.
  MOOD_ASSERT_OK(file->ScanPage(pages[0], &cursor,
                                [](RecordId, const std::string&) { return Status::OK(); })
                     .status());
  MOOD_ASSERT_OK(storage.Close());
}

TEST(HeapFileReadaheadTest, DisabledReadaheadNeverPrefetches) {
  TempDir dir;
  StorageManager storage;
  StorageOptions opts;
  opts.pool_pages = 4;
  opts.pool_shards = 1;
  opts.readahead_pages = 0;
  MOOD_ASSERT_OK(storage.Open(dir.Path("db"), opts));

  MOOD_ASSERT_OK_AND_ASSIGN(FileId fid, storage.CreateFile());
  MOOD_ASSERT_OK_AND_ASSIGN(HeapFile * file, storage.GetFile(fid));
  std::string payload(512, 'x');
  while (file->page_count() < 8) {
    MOOD_ASSERT_OK(file->Insert(payload).status());
  }
  MOOD_ASSERT_OK_AND_ASSIGN(std::vector<PageId> pages, file->PageIds());

  storage.buffer_pool()->ResetStats();
  HeapFile::ScanCursor cursor;
  for (PageId p : pages) {
    MOOD_ASSERT_OK(file->ScanPage(p, &cursor,
                                  [](RecordId, const std::string&) { return Status::OK(); })
                       .status());
  }
  EXPECT_EQ(storage.buffer_pool()->stats().prefetches, 0u);
  MOOD_ASSERT_OK(storage.Close());
}

// --- Extent scans ------------------------------------------------------------------

TEST(ExtentScanTest, ScanExtentReadsAnExtentLargerThanThePoolInOnePass) {
  for (size_t readahead : {0u, 4u}) {
    SCOPED_TRACE("readahead " + std::to_string(readahead));
    TempDir dir;
    StorageManager storage;
    StorageOptions opts;
    opts.pool_pages = 8;
    opts.pool_shards = 1;
    opts.readahead_pages = readahead;
    MOOD_ASSERT_OK(storage.Open(dir.Path("db"), opts));
    Catalog catalog;
    MOOD_ASSERT_OK(catalog.Open(&storage));
    VersionStore versions;
    ObjectManager objects(&storage, &catalog, &versions);
    Catalog::ClassDef doc;
    doc.name = "Doc";
    doc.attributes.push_back({"id", TypeDesc::Basic(BasicType::kInteger)});
    doc.attributes.push_back({"body", TypeDesc::SizedString(400)});
    MOOD_ASSERT_OK(catalog.Define(doc).status());
    int created = 0;
    while (objects.ExtentPages("Doc").value() < 40) {
      MOOD_ASSERT_OK(
          objects
              .CreateObject("Doc", MoodValue::Tuple({MoodValue::Integer(created),
                                                     MoodValue::String(std::string(300, 'd'))}))
              .status());
      created++;
    }
    MOOD_ASSERT_OK_AND_ASSIGN(uint32_t pages, objects.ExtentPages("Doc"));

    // The first scan learns the chain; the second runs with readahead (if on).
    for (int pass = 0; pass < 2; pass++) {
      SCOPED_TRACE("pass " + std::to_string(pass));
      storage.buffer_pool()->ResetStats();
      const uint64_t disk_reads = storage.buffer_pool()->disk()->stats().reads;
      int seen = 0;
      MOOD_ASSERT_OK(objects.ScanExtent("Doc", false, {}, [&](Oid, const MoodValue& t) {
        EXPECT_EQ(t.elements()[0].AsInteger(), seen);
        seen++;
        return Status::OK();
      }));
      EXPECT_EQ(seen, created);
      // One pass: no page is read twice (a walk of the chain before or beside
      // the scan would fetch every page again; the pool is far too small to
      // keep them).
      BufferPoolStats s = storage.buffer_pool()->stats();
      EXPECT_EQ(s.hits + s.misses, pages);
      EXPECT_LE(s.misses, pages);
      EXPECT_LE(storage.buffer_pool()->disk()->stats().reads - disk_reads, pages);
      if (readahead > 0 && pass == 1) {
        EXPECT_GT(s.prefetches, 0u);
      }
      EXPECT_EQ(storage.buffer_pool()->PinnedPageCount(), 0u);
    }
  }
}

// --- Deref cache -------------------------------------------------------------------

class DerefCacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MOOD_ASSERT_OK(storage_.Open(dir_.Path("db")));
    MOOD_ASSERT_OK(catalog_.Open(&storage_));
    objects_ = std::make_unique<ObjectManager>(&storage_, &catalog_, &versions_);

    Catalog::ClassDef vehicle;
    vehicle.name = "Vehicle";
    vehicle.attributes.push_back({"id", TypeDesc::Basic(BasicType::kInteger)});
    vehicle.attributes.push_back({"weight", TypeDesc::Basic(BasicType::kInteger)});
    MOOD_ASSERT_OK(catalog_.Define(vehicle).status());
  }

  Result<Oid> NewVehicle(int32_t id, int32_t weight) {
    return objects_->CreateObject(
        "Vehicle", MoodValue::Tuple({MoodValue::Integer(id), MoodValue::Integer(weight)}));
  }

  TempDir dir_;
  StorageManager storage_;
  Catalog catalog_;
  VersionStore versions_;
  std::unique_ptr<ObjectManager> objects_;
};

TEST_F(DerefCacheFixture, RepeatedFetchHitsTheCache) {
  MOOD_ASSERT_OK_AND_ASSIGN(Oid oid, NewVehicle(1, 1200));
  DerefCache cache;
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue v1, objects_->Fetch(oid, &cache));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue v2, objects_->Fetch(oid, &cache));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(v1.elements()[1].AsInteger(), 1200);
  EXPECT_EQ(v2.elements()[1].AsInteger(), 1200);

  // GetAttribute and ClassOf share the same snapshot.
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue w, objects_->GetAttribute(oid, "weight", &cache));
  EXPECT_EQ(w.AsInteger(), 1200);
  MOOD_ASSERT_OK_AND_ASSIGN(std::string cls, objects_->ClassOf(oid, &cache));
  EXPECT_EQ(cls, "Vehicle");
  EXPECT_EQ(cache.hits(), 3u);
}

TEST_F(DerefCacheFixture, WriteToClassInvalidatesCachedObjects) {
  MOOD_ASSERT_OK_AND_ASSIGN(Oid oid, NewVehicle(1, 1200));
  DerefCache cache;
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue before, objects_->Fetch(oid, &cache));
  EXPECT_EQ(before.elements()[1].AsInteger(), 1200);

  uint64_t epoch_before = objects_->WriteEpochOf(oid.file);
  MOOD_ASSERT_OK(objects_->SetAttribute(oid, "weight", MoodValue::Integer(1500)));
  EXPECT_GT(objects_->WriteEpochOf(oid.file), epoch_before);

  // The cached snapshot is stale now; the fetch must see the new value.
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue after, objects_->Fetch(oid, &cache));
  EXPECT_EQ(after.elements()[1].AsInteger(), 1500);
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue w, objects_->GetAttribute(oid, "weight", &cache));
  EXPECT_EQ(w.AsInteger(), 1500);
}

TEST_F(DerefCacheFixture, CachedAndUncachedReadsAgree) {
  MOOD_ASSERT_OK_AND_ASSIGN(Oid oid, NewVehicle(7, 900));
  DerefCache cache;
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue cached, objects_->Fetch(oid, &cache));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue plain, objects_->Fetch(oid));
  EXPECT_EQ(cached.ToString(), plain.ToString());
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue ca, objects_->GetAttribute(oid, "id", &cache));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue pa, objects_->GetAttribute(oid, "id"));
  EXPECT_EQ(ca.AsInteger(), pa.AsInteger());
}

TEST_F(DerefCacheFixture, NullCacheReadsStraightThrough) {
  MOOD_ASSERT_OK_AND_ASSIGN(Oid oid, NewVehicle(2, 800));
  MOOD_ASSERT_OK_AND_ASSIGN(HeapFile * file, storage_.GetFile(oid.file));
  const uint64_t before = file->op_stats().record_reads;
  // One record read yields both the class and the tuple.
  MOOD_ASSERT_OK_AND_ASSIGN(ObjectRecord record, objects_->Read(oid));
  EXPECT_EQ(file->op_stats().record_reads, before + 1);
  EXPECT_EQ(record.type_id, catalog_.typeId("Vehicle"));
  EXPECT_EQ(record.tuple->elements()[1].AsInteger(), 800);
  // Without a cache every read sees the latest heap state.
  MOOD_ASSERT_OK(objects_->SetAttribute(oid, "weight", MoodValue::Integer(900)));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue w, objects_->GetAttribute(oid, "weight"));
  EXPECT_EQ(w.AsInteger(), 900);
}

ObjectRecord RecordOf(int32_t v) {
  return ObjectRecord{1, std::make_shared<const MoodValue>(MoodValue::Integer(v))};
}

Oid OidAt(uint32_t i) {
  Oid oid;
  oid.file = 3;
  oid.page = i / 64;
  oid.slot = static_cast<uint16_t>(i % 64);
  return oid;
}

TEST(DerefCacheTest, HoldsAtMostItsCapacity) {
  DerefCache cache;
  const uint32_t n = 3 * DerefCache::kCapacity;
  for (uint32_t i = 0; i < n; i++) cache.Insert(OidAt(i), 1, RecordOf(static_cast<int32_t>(i)));
  size_t held = 0;
  ObjectRecord out;
  for (uint32_t i = 0; i < n; i++) {
    if (!cache.Lookup(OidAt(i), 1, &out)) continue;
    EXPECT_EQ(out.tuple->AsInteger(), static_cast<int32_t>(i));
    held++;
  }
  EXPECT_GT(held, 0u);
  EXPECT_LE(held, DerefCache::kCapacity);
  // The latest entry is always held, and a stale epoch is a miss.
  EXPECT_TRUE(cache.Lookup(OidAt(n - 1), 1, &out));
  EXPECT_FALSE(cache.Lookup(OidAt(n - 1), 2, &out));
}

TEST(DerefCacheTest, LowReuseStopsAdmittingButKeepsEarlierEntries) {
  DerefCache cache;
  ObjectRecord out;
  // Every read misses once: after the probation the cache stops retaining.
  uint32_t next = 0;
  for (; next <= DerefCache::kProbation; next++) {
    EXPECT_FALSE(cache.Lookup(OidAt(next), 1, &out));
    cache.Insert(OidAt(next), 1, RecordOf(static_cast<int32_t>(next)));
  }
  const Oid late = OidAt(next++);
  EXPECT_FALSE(cache.Lookup(late, 1, &out));
  cache.Insert(late, 1, RecordOf(-1));
  EXPECT_FALSE(cache.Lookup(late, 1, &out));
  // Objects admitted during the probation still serve hits...
  EXPECT_TRUE(cache.Lookup(OidAt(0), 1, &out));
  EXPECT_EQ(out.tuple->AsInteger(), 0);
  // ...and once re-reads make up the hit share again, admission resumes.
  while (cache.hits() * DerefCache::kMinHitShare < cache.misses()) {
    ASSERT_TRUE(cache.Lookup(OidAt(0), 1, &out));
  }
  cache.Insert(late, 1, RecordOf(-1));
  EXPECT_TRUE(cache.Lookup(late, 1, &out));
}

TEST_F(DerefCacheFixture, DeleteInvalidatesCachedObject) {
  MOOD_ASSERT_OK_AND_ASSIGN(Oid oid, NewVehicle(3, 700));
  DerefCache cache;
  MOOD_ASSERT_OK(objects_->Fetch(oid, &cache).status());
  MOOD_ASSERT_OK(objects_->DeleteObject(oid));
  // The stale snapshot must not resurrect the object.
  EXPECT_FALSE(objects_->Fetch(oid, &cache).ok());
}

}  // namespace
}  // namespace mood
