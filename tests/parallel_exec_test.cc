#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/paper_example.h"
#include "exec/parallel.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::ExpectNaiveMatch;
using testing::TempDir;

/// Thread counts the determinism fixture exercises. MOOD_TEST_THREADS=<n>
/// narrows the sweep to one count — the tsan/ubsan CTest presets register
/// parallel_exec_test_t2 / _t8 variants that way to bound sanitizer runtime.
std::vector<size_t> TestThreadCounts() {
  const char* env = std::getenv("MOOD_TEST_THREADS");
  if (env != nullptr && std::atoi(env) > 0) {
    return {static_cast<size_t>(std::atoi(env))};
  }
  return {2, 8};
}

// ---------------------------------------------------------------------------
// ParallelFor unit properties
// ---------------------------------------------------------------------------

TEST(ParallelForTest, RunsEveryTaskOnce) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h = 0;
    MOOD_ASSERT_OK(ParallelFor(threads, hits.size(), [&](size_t i) {
      hits[i].fetch_add(1);
      return Status::OK();
    }));
    for (size_t i = 0; i < hits.size(); i++) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, ReturnsSmallestIndexError) {
  // Tasks 7 and 23 fail; whatever the scheduling, the reported error must be
  // task 7's — the one a serial in-order run surfaces first.
  for (int round = 0; round < 20; round++) {
    Status st = ParallelFor(4, 64, [&](size_t i) {
      if (i == 7) return Status::Internal("task 7");
      if (i == 23) return Status::Internal("task 23");
      return Status::OK();
    });
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("task 7"), std::string::npos) << st.ToString();
  }
}

TEST(ParallelForTest, SerialFallbackStopsAtFirstError) {
  size_t ran = 0;
  Status st = ParallelFor(1, 10, [&](size_t i) {
    ran++;
    if (i == 3) return Status::Internal("boom");
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(ran, 4u);  // 0..3 inclusive, nothing after the failure
}

TEST(ParallelForTest, MoreThreadsThanTasks) {
  std::atomic<int> n{0};
  MOOD_ASSERT_OK(ParallelFor(16, 3, [&](size_t) {
    n.fetch_add(1);
    return Status::OK();
  }));
  EXPECT_EQ(n.load(), 3);
}

// ---------------------------------------------------------------------------
// Determinism: every query from the exec/regression suites, serial vs parallel
// ---------------------------------------------------------------------------

/// Runs the paper workload at several thread counts and asserts the rendered
/// result (columns, rows, and their order) is identical to serial execution.
class ParallelExecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.exec_threads = 1;  // baseline; tests pass QueryOptions::exec_threads
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood"), opts));
    MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
    MOOD_ASSERT_OK_AND_ASSIGN(report_, paperdb::PopulatePaperData(&db_, 120));
    MOOD_ASSERT_OK(db_.CollectAllStatistics());
  }

  /// Batch sizes the sweep exercises: one row per batch, a small size that
  /// forces many partial batches, and the default. MOOD_TEST_BATCH=<n> narrows
  /// the axis the same way MOOD_TEST_THREADS bounds the thread axis for the
  /// sanitizer presets.
  static std::vector<size_t> TestBatchSizes() {
    const char* env = std::getenv("MOOD_TEST_BATCH");
    if (env != nullptr) return {static_cast<size_t>(std::atoi(env))};
    return {1, 7, 1024};
  }

  /// Reference: serial, one row per batch. Every (batch size, thread count)
  /// combination must match it byte-for-byte — rows or error status — and
  /// the reference must agree with the naive oracle (tests/naive_oracle.h).
  /// The result cache is off: its key does not include the geometry, so a
  /// cached reference would answer every later combination.
  void ExpectDeterministic(const std::string& sql) {
    QueryOptions oracle_opts;
    oracle_opts.exec_threads = 1;
    oracle_opts.batch_size = 1;
    oracle_opts.use_cache = false;
    auto serial = db_.Query(sql, oracle_opts);
    for (size_t batch : TestBatchSizes()) {
      QueryOptions opts;
      opts.batch_size = batch;
      opts.use_cache = false;
      std::vector<size_t> counts = TestThreadCounts();
      // Every batch size but the reference's own also diffs serially.
      if (batch != 1) counts.insert(counts.begin(), 1);
      for (size_t threads : counts) {
        opts.exec_threads = threads;
        auto parallel = db_.Query(sql, opts);
        ASSERT_EQ(serial.ok(), parallel.ok())
            << sql << " @" << threads << " threads batch=" << batch
            << ": serial=" << serial.status().ToString()
            << " parallel=" << parallel.status().ToString();
        if (!serial.ok()) {
          EXPECT_EQ(serial.status().ToString(), parallel.status().ToString())
              << sql << " @" << threads << " batch=" << batch;
          continue;
        }
        const QueryResult& s = serial.value();
        const QueryResult& p = parallel.value();
        EXPECT_EQ(s.columns, p.columns) << sql << " @" << threads;
        ASSERT_EQ(s.rows.size(), p.rows.size())
            << sql << " @" << threads << " batch=" << batch;
        EXPECT_EQ(s.ToString(), p.ToString()) << sql << " @" << threads << " batch=" << batch;
      }
    }
    ExpectNaiveMatch(&db_, sql);
  }

  TempDir dir_;
  Database db_;
  paperdb::PopulateReport report_;
};

TEST_F(ParallelExecFixture, ExtentScans) {
  ExpectDeterministic("SELECT v FROM Vehicle v");
  ExpectDeterministic("SELECT v FROM EVERY Vehicle v");
  ExpectDeterministic("SELECT v FROM EVERY Vehicle - JapaneseAuto v");
  ExpectDeterministic("SELECT v FROM EVERY Automobile - JapaneseAuto v");
  ExpectDeterministic("SELECT e FROM Employee e");
}

TEST_F(ParallelExecFixture, Filters) {
  ExpectDeterministic("SELECT e FROM VehicleEngine e WHERE e.cylinders = 4");
  ExpectDeterministic("SELECT e FROM VehicleEngine e WHERE e.cylinders <= 8");
  ExpectDeterministic("SELECT e FROM VehicleEngine e WHERE NOT e.cylinders > 8");
  ExpectDeterministic(
      "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 OR e.cylinders = 4");
  ExpectDeterministic(
      "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 OR e.size >= 0");
  ExpectDeterministic(
      "SELECT v FROM EVERY Vehicle v WHERE v.weight > 0 AND v.weight < 100000");
  ExpectDeterministic("SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 + 2");
  ExpectDeterministic("SELECT e FROM VehicleEngine e WHERE 8 < e.cylinders");
}

TEST_F(ParallelExecFixture, PathExpressionsAndPointerJoins) {
  ExpectDeterministic(paperdb::kExample81Query);
  ExpectDeterministic(paperdb::kExample82Query);
  ExpectDeterministic(paperdb::kSection31Query);
  ExpectDeterministic(
      "SELECT d.transmission, d.engine.cylinders FROM VehicleDriveTrain d "
      "WHERE d.engine.cylinders > 8");
  ExpectDeterministic(
      "SELECT v.drivetrain.engine.cylinders, v.weight FROM Vehicle v "
      "WHERE v.drivetrain.engine.cylinders = 4");
  ExpectDeterministic("SELECT v.drivetrain FROM Vehicle v");
}

TEST_F(ParallelExecFixture, ExplicitJoins) {
  ExpectDeterministic(
      "SELECT v FROM Vehicle v, VehicleDriveTrain d WHERE v.drivetrain = d");
  ExpectDeterministic(
      "SELECT v.weight, d.transmission FROM Vehicle v, VehicleDriveTrain d "
      "WHERE v.drivetrain = d AND d.transmission = 'MANUAL'");
}

TEST_F(ParallelExecFixture, ClausePipeline) {
  ExpectDeterministic("SELECT e.size FROM VehicleEngine e ORDER BY e.size");
  ExpectDeterministic("SELECT e.size FROM VehicleEngine e ORDER BY e.size DESC");
  ExpectDeterministic(
      "SELECT e.cylinders FROM VehicleEngine e GROUP BY e.cylinders");
  ExpectDeterministic(
      "SELECT e.cylinders FROM VehicleEngine e GROUP BY e.cylinders "
      "HAVING e.cylinders > 8");
  ExpectDeterministic("SELECT DISTINCT e.cylinders FROM VehicleEngine e");
  ExpectDeterministic("SELECT e.cylinders, e.cylinders * 2 + 1 FROM VehicleEngine e");
}

TEST_F(ParallelExecFixture, MethodInvocation) {
  // Method calls route through FunctionManager from parallel workers.
  ExpectDeterministic("SELECT v.weight, v.lbweight() FROM Vehicle v");
  ExpectDeterministic("SELECT v.lbweight() FROM Vehicle v");
}

TEST_F(ParallelExecFixture, IndexedSelection) {
  MOOD_ASSERT_OK(
      db_.Execute("CREATE INDEX eng_cyl ON VehicleEngine(cylinders) USING BTREE")
          .status());
  MOOD_ASSERT_OK(db_.CollectAllStatistics());
  ExpectDeterministic("SELECT e FROM VehicleEngine e WHERE e.cylinders = 6");
  ExpectDeterministic(
      "SELECT e FROM VehicleEngine e WHERE e.cylinders = 6 AND e.size > 0");
}

TEST_F(ParallelExecFixture, ErrorsStayDeterministic) {
  // A failing query must fail identically (not hang, not succeed) in parallel.
  QueryOptions opts;
  opts.exec_threads = 8;
  EXPECT_TRUE(db_.Query("SELECT x FROM Nowhere x", opts).status().IsNotFound());
  EXPECT_EQ(db_.Query("SELECT v.nope FROM Vehicle v", opts).status().code(),
            StatusCode::kCatalogError);
}

TEST(ParallelExecOptions, ExecThreadsOptionWiresThrough) {
  TempDir dir;
  {
    Database db;
    DatabaseOptions opts;
    opts.exec_threads = 4;
    MOOD_ASSERT_OK(db.Open(dir.Path("mood-t4"), opts));
    EXPECT_EQ(db.executor()->threads(), 4u);
  }
  {
    Database db;
    DatabaseOptions opts;
    // 0 resolves to the hardware concurrency and never disables execution.
    opts.exec_threads = 0;
    MOOD_ASSERT_OK(db.Open(dir.Path("mood-t0"), opts));
    EXPECT_EQ(db.executor()->threads(), DefaultExecThreads());
    EXPECT_GE(db.executor()->threads(), 1u);
  }
}

}  // namespace
}  // namespace mood
