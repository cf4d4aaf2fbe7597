#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/paper_example.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/storage_manager.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::TempDir;

/// Thread count for the torture tests below; MOOD_TEST_THREADS=<n> overrides
/// (the tsan/ubsan CTest presets run the suite at 2 and 8).
size_t TestThreads() {
  const char* env = std::getenv("MOOD_TEST_THREADS");
  if (env != nullptr && std::atoi(env) > 0) return static_cast<size_t>(std::atoi(env));
  return 8;
}
const size_t kThreads = TestThreads();

/// Deterministic per-thread pseudo-random stream (no shared RNG state).
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
};

// ---------------------------------------------------------------------------
// BufferPool under concurrent fetch/unpin pressure
// ---------------------------------------------------------------------------

/// N threads hammer FetchPage/UnpinPage over a pool far smaller than the
/// working set, so eviction races with fetches constantly. Invariants:
///  - every fetch observes the page bytes written at setup (no torn frames),
///  - hits + misses == total fetches (no lost or double-counted lookups),
///  - no pins leak (PinnedPageCount() drains to zero).
TEST(BufferPoolConcurrencyTest, HammerFetchUnpin) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  constexpr size_t kPages = 64;
  constexpr size_t kPoolFrames = 8;  // working set is 8x the pool
  constexpr size_t kFetchesPerThread = 400;
  {
    BufferPool setup(&disk, kPoolFrames);
    for (size_t i = 0; i < kPages; i++) {
      MOOD_ASSERT_OK_AND_ASSIGN(Page* p, setup.NewPage());
      std::memset(p->data(), static_cast<int>(i & 0xFF), kPageSize);
      MOOD_ASSERT_OK(setup.UnpinPage(p->page_id(), true));
    }
    MOOD_ASSERT_OK(setup.FlushAll());
  }

  BufferPool pool(&disk, kPoolFrames);
  std::atomic<size_t> content_errors{0};
  std::atomic<size_t> fetch_errors{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Lcg rng(t);
      for (size_t i = 0; i < kFetchesPerThread; i++) {
        PageId id = static_cast<PageId>(rng.Next() % kPages);
        auto r = pool.FetchPage(id);
        if (!r.ok()) {
          fetch_errors.fetch_add(1);
          continue;
        }
        Page* p = r.value();
        // Sample a few bytes: a frame mid-eviction or shared between two pages
        // would show foreign content.
        const char expect = static_cast<char>(id & 0xFF);
        if (p->data()[0] != expect || p->data()[kPageSize / 2] != expect ||
            p->data()[kPageSize - 1] != expect) {
          content_errors.fetch_add(1);
        }
        if (!pool.UnpinPage(id, false).ok()) fetch_errors.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(fetch_errors.load(), 0u);
  EXPECT_EQ(content_errors.load(), 0u);
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kFetchesPerThread);
  EXPECT_GE(s.misses, kPages - kPoolFrames);  // the working set cannot fit
  EXPECT_LE(s.evictions, s.misses);
  EXPECT_EQ(pool.PinnedPageCount(), 0u) << "leaked pins after hammer";
}

/// Pins held by one thread must survive other threads' eviction pressure: a
/// pinned page's frame may not be repurposed while the pin is held.
TEST(BufferPoolConcurrencyTest, PinnedFramesStableUnderPressure) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  constexpr size_t kPages = 32;
  {
    BufferPool setup(&disk, 4);
    for (size_t i = 0; i < kPages; i++) {
      MOOD_ASSERT_OK_AND_ASSIGN(Page* p, setup.NewPage());
      std::memset(p->data(), static_cast<int>(i & 0xFF), kPageSize);
      MOOD_ASSERT_OK(setup.UnpinPage(p->page_id(), true));
    }
    MOOD_ASSERT_OK(setup.FlushAll());
  }

  BufferPool pool(&disk, 4);
  MOOD_ASSERT_OK_AND_ASSIGN(Page* pinned, pool.FetchPage(0));
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      Lcg rng(100 + t);
      for (size_t i = 0; i < 300; i++) {
        PageId id = 1 + static_cast<PageId>(rng.Next() % (kPages - 1));
        auto r = pool.FetchPage(id);
        // With 4 frames, one pinned, and 4 concurrent readers the pool can
        // legitimately be exhausted — only successful fetches are checked.
        if (!r.ok()) continue;
        if (r.value()->data()[0] != static_cast<char>(id & 0xFF)) errors.fetch_add(1);
        if (!pool.UnpinPage(id, false).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  // The pinned frame was never evicted out from under us.
  EXPECT_EQ(pinned->page_id(), 0u);
  EXPECT_EQ(pinned->data()[0], static_cast<char>(0));
  MOOD_ASSERT_OK(pool.UnpinPage(0, false));
  EXPECT_EQ(pool.PinnedPageCount(), 0u);
}

/// stats()/ResetStats() racing fetches must stay coherent: a snapshot never
/// tears, and the counters settle to exactly the post-reset fetch count.
TEST(BufferPoolConcurrencyTest, StatsSnapshotsCoherentUnderFetches) {
  TempDir dir;
  DiskManager disk;
  MOOD_ASSERT_OK(disk.Open(dir.Path("db")));
  constexpr size_t kPages = 16;
  {
    BufferPool setup(&disk, 4);
    for (size_t i = 0; i < kPages; i++) {
      MOOD_ASSERT_OK_AND_ASSIGN(Page* p, setup.NewPage());
      MOOD_ASSERT_OK(setup.UnpinPage(p->page_id(), true));
    }
    MOOD_ASSERT_OK(setup.FlushAll());
  }

  BufferPool pool(&disk, 4);
  constexpr size_t kFetchesPerThread = 500;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      Lcg rng(t);
      for (size_t i = 0; i < kFetchesPerThread; i++) {
        PageId id = static_cast<PageId>(rng.Next() % kPages);
        auto r = pool.FetchPage(id);
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE(pool.UnpinPage(id, false).ok());
      }
    });
  }
  go = true;
  // Reader thread: snapshots may lag but must never exceed the upper bound of
  // all fetches issued, and evictions never exceed misses.
  for (int i = 0; i < 200; i++) {
    BufferPoolStats s = pool.stats();
    EXPECT_LE(s.hits + s.misses, 4 * kFetchesPerThread);
    EXPECT_LE(s.evictions, s.misses + 4);  // +pool_size: setup left residents
    std::this_thread::yield();
  }
  for (auto& th : threads) th.join();
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, 4 * kFetchesPerThread);
  pool.ResetStats();
  s = pool.stats();
  EXPECT_EQ(s.hits + s.misses + s.evictions, 0u);
}

// ---------------------------------------------------------------------------
// HeapFile scans from many threads over a pool smaller than the file
// ---------------------------------------------------------------------------

class HeapFileConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StorageOptions opts;
    opts.pool_pages = 8;  // file spans more pages than the pool holds
    MOOD_ASSERT_OK(storage_.Open(dir_.Path("db"), opts));
    MOOD_ASSERT_OK_AND_ASSIGN(FileId id, storage_.CreateFile());
    MOOD_ASSERT_OK_AND_ASSIGN(file_, storage_.GetFile(id));
    // Inserts append, so scan order is insert order: the records and
    // RecordIds inserted here are the scans' oracle.
    for (int i = 0; i < 600; i++) {
      std::string rec = "record-" + std::to_string(i) + std::string(50, 'x');
      MOOD_ASSERT_OK_AND_ASSIGN(RecordId rid, file_->Insert(rec));
      inserted_.emplace_back(rid, std::move(rec));
    }
  }

  TempDir dir_;
  StorageManager storage_;
  HeapFile* file_ = nullptr;
  std::vector<std::pair<RecordId, std::string>> inserted_;
};

TEST_F(HeapFileConcurrencyTest, ConcurrentFullScansAgree) {
  std::vector<std::vector<std::pair<RecordId, std::string>>> scans(kThreads);
  std::vector<Status> status(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      status[t] = file_->Scan([&](RecordId rid, const std::string& rec) {
        scans[t].emplace_back(rid, rec);
        return Status::OK();
      });
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; t++) {
    EXPECT_TRUE(status[t].ok()) << status[t].ToString();
    EXPECT_EQ(scans[t], inserted_) << "thread " << t;
  }
  EXPECT_EQ(storage_.buffer_pool()->PinnedPageCount(), 0u);
}

TEST_F(HeapFileConcurrencyTest, PartitionedPageScansEqualInsertOrder) {
  MOOD_ASSERT_OK_AND_ASSIGN(std::vector<PageId> pages, file_->PageIds());
  ASSERT_GT(pages.size(), 8u);  // really bigger than the pool

  // Scan every page from a different thread (round-robin), then merge in page
  // order — the partitioned scan must reproduce the insert sequence exactly.
  std::vector<std::vector<std::pair<RecordId, std::string>>> per_page(pages.size());
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (;;) {
        size_t i = cursor.fetch_add(1);
        if (i >= pages.size()) return;
        Result<PageId> next = file_->ScanPage(
            pages[i], nullptr, [&](RecordId rid, const std::string& rec) {
              per_page[i].emplace_back(rid, rec);
              return Status::OK();
            });
        if (!next.ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  std::vector<std::pair<RecordId, std::string>> merged;
  for (auto& page_records : per_page) {
    for (auto& r : page_records) merged.push_back(std::move(r));
  }
  EXPECT_EQ(merged, inserted_);
  EXPECT_EQ(storage_.buffer_pool()->PinnedPageCount(), 0u);
}

// ---------------------------------------------------------------------------
// Object-level concurrent readers (extent scans + method invocation)
// ---------------------------------------------------------------------------

class ObjectConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.pool_pages = 32;  // pressure: paper data at scale 80 exceeds this
    opts.exec_threads = 1;
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood"), opts));
    MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
    MOOD_ASSERT_OK(paperdb::PopulatePaperData(&db_, 80).status());
  }

  TempDir dir_;
  Database db_;
};

TEST_F(ObjectConcurrencyTest, ConcurrentExtentScansAgree) {
  std::vector<Oid> serial;
  MOOD_ASSERT_OK(db_.objects()->ScanExtent("Vehicle", true, {},
                                           [&](Oid oid, const MoodValue&) {
                                             serial.push_back(oid);
                                             return Status::OK();
                                           }));
  ASSERT_FALSE(serial.empty());

  std::vector<std::vector<Oid>> scans(kThreads);
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Status st = db_.objects()->ScanExtent("Vehicle", true, {},
                                            [&](Oid oid, const MoodValue&) {
                                              scans[t].push_back(oid);
                                              return Status::OK();
                                            });
      if (!st.ok()) errors.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  for (size_t t = 0; t < kThreads; t++) {
    EXPECT_EQ(scans[t].size(), serial.size()) << "thread " << t;
    EXPECT_TRUE(scans[t] == serial) << "thread " << t << " diverged";
  }
  EXPECT_EQ(db_.storage()->buffer_pool()->PinnedPageCount(), 0u);
}

TEST_F(ObjectConcurrencyTest, ConcurrentMethodInvocationsKeepStatsCoherent) {
  // Collect receivers serially, then invoke lbweight() from many threads: the
  // FunctionManager's lazy load and counters must stay coherent.
  std::vector<Oid> vehicles;
  MOOD_ASSERT_OK(db_.objects()->ScanExtent("Vehicle", false, {},
                                           [&](Oid oid, const MoodValue&) {
                                             vehicles.push_back(oid);
                                             return Status::OK();
                                           }));
  ASSERT_FALSE(vehicles.empty());
  db_.functions()->ResetStats();

  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (Oid v : vehicles) {
        auto val = db_.objects()->Fetch(v);
        if (!val.ok()) {
          errors.fetch_add(1);
          continue;
        }
        auto attrs = db_.objects()->catalog()->AllAttributes("Vehicle");
        if (!attrs.ok()) {
          errors.fetch_add(1);
          continue;
        }
        std::vector<std::string> names;
        for (const auto& a : attrs.value()) names.push_back(a.name);
        MethodContext ctx;
        ctx.self = v;
        ctx.self_value = &val.value();
        ctx.attr_names = &names;
        ctx.deref = [this](Oid o) { return db_.objects()->Fetch(o); };
        auto r = db_.functions()->Invoke("Vehicle", "lbweight", ctx, {});
        if (!r.ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  FunctionManager::InvokeStats s = db_.functions()->stats();
  // Every invocation is counted exactly once, whichever path served it.
  EXPECT_EQ(s.cold_loads + s.warm_calls + s.fallback_calls,
            kThreads * vehicles.size());
  EXPECT_EQ(s.errors, 0u);
}

}  // namespace
}  // namespace mood
