#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/paper_example.h"
#include "exec/expr_compile.h"
#include "exec/parallel.h"
#include "exec/row_batch.h"
#include "sql/parser.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::ExpectNaiveMatch;
using testing::NaiveSelect;
using testing::SortedRows;
using testing::TempDir;

/// Thread counts the differential sweep exercises. MOOD_TEST_THREADS=<n>
/// narrows the sweep the same way the sanitizer presets bound
/// parallel_exec_test (batch_exec_test_t2 / _t8 variants).
std::vector<size_t> TestThreadCounts() {
  const char* env = std::getenv("MOOD_TEST_THREADS");
  if (env != nullptr && std::atoi(env) > 0) {
    return {static_cast<size_t>(std::atoi(env))};
  }
  return {1, 2, 8};
}

// ---------------------------------------------------------------------------
// RowBatch / BatchAppender / ClampBatchSize unit properties
// ---------------------------------------------------------------------------

TEST(RowBatchTest, ColumnMajorLayoutAndSelection) {
  RowBatch b(2, 4);
  EXPECT_EQ(b.ActiveRows(), 0u);
  for (uint32_t i = 0; i < 3; i++) {
    Oid row[2] = {Oid{1, i}, Oid{2, i + 10}};
    b.PushRow(row, 2);
  }
  EXPECT_EQ(b.nrows, 3u);
  EXPECT_FALSE(b.Full());
  // Column-major: slot s of row i at cols[s * capacity + i].
  EXPECT_EQ(b.col(0)[1], (Oid{1, 1}));
  EXPECT_EQ(b.col(1)[2], (Oid{2, 12}));
  EXPECT_EQ(b.cols[1 * 4 + 2], (Oid{2, 12}));

  // With no selection, all rows are live in order.
  EXPECT_EQ(b.ActiveRows(), 3u);
  EXPECT_EQ(b.RowAt(2), 2u);

  // A selection vector narrows liveness without touching the columns.
  b.sel = {0, 2};
  b.sel_active = true;
  EXPECT_EQ(b.ActiveRows(), 2u);
  EXPECT_EQ(b.RowAt(1), 2u);
  Oid out[2];
  b.GatherRow(b.RowAt(1), out);
  EXPECT_EQ(out[0], (Oid{1, 2}));
  EXPECT_EQ(out[1], (Oid{2, 12}));

  b.Clear();
  EXPECT_EQ(b.nrows, 0u);
  EXPECT_FALSE(b.sel_active);
  EXPECT_EQ(b.ActiveRows(), 0u);
}

TEST(RowBatchTest, AppenderOpensNewBatchWhenFull) {
  BatchSet bs;
  bs.vars = {"v"};
  BatchAppender app(&bs, 1, 4);
  for (uint32_t i = 0; i < 10; i++) {
    Oid o{7, i};
    app.Push(&o, 1);
  }
  ASSERT_EQ(bs.batches.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(bs.batches[0].nrows, 4u);
  EXPECT_EQ(bs.batches[1].nrows, 4u);
  EXPECT_EQ(bs.batches[2].nrows, 2u);
  EXPECT_EQ(bs.ActiveRows(), 10u);
  // LiveIndex walks batches in order, rows in order.
  auto lidx = bs.LiveIndex();
  ASSERT_EQ(lidx.size(), 10u);
  EXPECT_EQ(lidx[5].first, 1u);
  EXPECT_EQ(lidx[5].second, 1u);
  EXPECT_EQ(bs.batches[lidx[9].first].col(0)[lidx[9].second], (Oid{7, 9}));
}

TEST(RowBatchTest, AppenderCoercesZeroCapacity) {
  BatchSet bs;
  BatchAppender app(&bs, 1, 0);  // capacity 0 must not loop or divide by zero
  Oid o{1, 1};
  app.Push(&o, 1);
  app.Push(&o, 1);
  EXPECT_EQ(bs.batches.size(), 2u);
}

TEST(ClampBatchSizeTest, ClampsIntoOneToMax) {
  EXPECT_EQ(ClampBatchSize(0), 1u);
  EXPECT_EQ(ClampBatchSize(1), 1u);
  EXPECT_EQ(ClampBatchSize(kDefaultBatchRows), kDefaultBatchRows);
  EXPECT_EQ(ClampBatchSize(kMaxBatchRows + 1), kMaxBatchRows);
  EXPECT_EQ(ClampBatchSize(static_cast<size_t>(-2)), kMaxBatchRows);
}

// ---------------------------------------------------------------------------
// Differential harness: every batch geometry vs the batch-1 serial reference,
// plus the plan-free naive oracle (tests/naive_oracle.h)
// ---------------------------------------------------------------------------

/// Paper database at a scale chosen so the Vehicle extent (120 objects) spans
/// several heap pages and the VehicleEngine extent holds exactly 60 objects —
/// the dividing/non-dividing batch-size cases below are exact.
class BatchExecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood")));
    MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
    MOOD_ASSERT_OK_AND_ASSIGN(report_, paperdb::PopulatePaperData(&db_, 120));
    MOOD_ASSERT_OK(db_.CollectAllStatistics());
  }

  /// The geometry contract: for every batch size and thread count, execution
  /// returns byte-identical results — or the byte-identical error status — as
  /// the serial one-row-per-batch reference (batch_size = 1, one thread).
  /// The result cache is off: its key does not include the geometry, so a
  /// cached reference would answer every later geometry.
  void ExpectBatchMatch(const std::string& sql,
                        std::vector<size_t> batch_sizes = {1, 7, 1024}) {
    QueryOptions oracle_opts;
    oracle_opts.batch_size = 1;
    oracle_opts.exec_threads = 1;
    oracle_opts.use_cache = false;
    auto oracle = db_.Query(sql, oracle_opts);
    for (size_t batch : batch_sizes) {
      for (size_t threads : TestThreadCounts()) {
        QueryOptions opts;
        opts.batch_size = batch;
        opts.exec_threads = threads;
        opts.use_cache = false;
        auto batched = db_.Query(sql, opts);
        ASSERT_EQ(oracle.ok(), batched.ok())
            << sql << " batch=" << batch << " threads=" << threads
            << "\n oracle:  " << oracle.status().ToString()
            << "\n batched: " << batched.status().ToString();
        if (!oracle.ok()) {
          EXPECT_EQ(oracle.status().ToString(), batched.status().ToString())
              << sql << " batch=" << batch << " threads=" << threads;
          continue;
        }
        EXPECT_EQ(oracle.value().ToString(), batched.value().ToString())
            << sql << " batch=" << batch << " threads=" << threads;
      }
    }
  }

  /// ExpectBatchMatch, then the naive oracle: both must agree on success and,
  /// when both succeed, on the sorted rows.
  void ExpectMatch(const std::string& sql,
                   std::vector<size_t> batch_sizes = {1, 7, 1024}) {
    ExpectBatchMatch(sql, batch_sizes);
    if (::testing::Test::HasFatalFailure()) return;
    ExpectNaiveMatch(&db_, sql);
  }

  uint64_t CounterValue(const std::string& name) {
    return db_.metrics()->Counter(name)->value();
  }

  TempDir dir_;
  Database db_;
  paperdb::PopulateReport report_;
};

TEST_F(BatchExecFixture, FilterScans) {
  ExpectMatch("SELECT v FROM Vehicle v");
  ExpectMatch("SELECT e FROM VehicleEngine e WHERE e.cylinders = 4");
  ExpectMatch("SELECT e FROM VehicleEngine e WHERE e.cylinders <= 8");
  ExpectMatch(
      "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 OR e.size >= 0");
  ExpectMatch("SELECT e FROM VehicleEngine e WHERE NOT e.cylinders > 8");
  ExpectMatch(
      "SELECT v FROM EVERY Vehicle v WHERE v.weight > 0 AND v.weight < 100000");
  ExpectMatch("SELECT v FROM EVERY Automobile - JapaneseAuto v");
}

TEST_F(BatchExecFixture, PathExpressionsAndPointerJoins) {
  ExpectMatch(paperdb::kExample81Query);
  ExpectMatch(paperdb::kExample82Query);
  ExpectMatch(paperdb::kSection31Query);
  ExpectMatch(
      "SELECT d.transmission, d.engine.cylinders FROM VehicleDriveTrain d "
      "WHERE d.engine.cylinders > 8");
  ExpectMatch(
      "SELECT v.drivetrain.engine.cylinders, v.weight FROM Vehicle v "
      "WHERE v.drivetrain.engine.cylinders = 4");
}

TEST_F(BatchExecFixture, ExplicitJoins) {
  ExpectMatch(
      "SELECT v FROM Vehicle v, VehicleDriveTrain d WHERE v.drivetrain = d");
  ExpectMatch(
      "SELECT v.weight, d.transmission FROM Vehicle v, VehicleDriveTrain d "
      "WHERE v.drivetrain = d AND d.transmission = 'MANUAL'");
}

TEST_F(BatchExecFixture, ProjectionsAndClausePipeline) {
  ExpectMatch("SELECT e.cylinders, e.cylinders * 2 + 1 FROM VehicleEngine e");
  ExpectMatch("SELECT e.size FROM VehicleEngine e ORDER BY e.size DESC");
  ExpectMatch("SELECT e.cylinders FROM VehicleEngine e GROUP BY e.cylinders");
  ExpectMatch(
      "SELECT e.cylinders FROM VehicleEngine e GROUP BY e.cylinders "
      "HAVING e.cylinders > 8");
  ExpectMatch("SELECT DISTINCT e.cylinders FROM VehicleEngine e");
  ExpectMatch(
      "SELECT DISTINCT e.cylinders FROM VehicleEngine e ORDER BY e.cylinders");
  // Method calls dispatch per row inside the batch kernels (kCall).
  ExpectMatch("SELECT v.weight, v.lbweight() FROM Vehicle v");
  ExpectMatch("SELECT v FROM Vehicle v WHERE v.lbweight > 3000");
}

TEST_F(BatchExecFixture, IndexedSelection) {
  MOOD_ASSERT_OK(
      db_.Execute("CREATE INDEX eng_cyl ON VehicleEngine(cylinders) USING BTREE")
          .status());
  MOOD_ASSERT_OK(db_.CollectAllStatistics());
  ExpectMatch("SELECT e FROM VehicleEngine e WHERE e.cylinders = 6");
  ExpectMatch(
      "SELECT e FROM VehicleEngine e WHERE e.cylinders = 6 AND e.size > 0");
}

TEST_F(BatchExecFixture, ErrorStatusesMatch) {
  // Division by zero fires mid-extent (cylinders sweeps the even values of
  // [2,32], so some row has cylinders = 8); every geometry must surface the
  // same first-row error the one-row-per-batch reference does.
  ExpectMatch("SELECT e FROM VehicleEngine e WHERE 100 / (e.cylinders - 8) > 0");
  ExpectMatch("SELECT e FROM VehicleEngine e WHERE e.cylinders = 'four'");
  ExpectMatch(
      "SELECT e FROM VehicleEngine e WHERE e.size / (e.cylinders - e.cylinders) = 1");
  ExpectMatch("SELECT v FROM Vehicle v WHERE v.id.cylinders = 2");
  // Error in a projection / ORDER BY column, after a passing filter.
  ExpectMatch(
      "SELECT 100 / (e.cylinders - 8) FROM VehicleEngine e WHERE e.cylinders > 2");
  ExpectMatch(
      "SELECT e FROM VehicleEngine e ORDER BY 100 / (e.cylinders - 8)");
}

TEST_F(BatchExecFixture, FinishStageErrorOrder) {
  // Clause expressions evaluate column-wise, yet the surfaced error must be
  // the one row-by-row evaluation hits first: the smallest (row, expression)
  // pair. Every row fails `e.cylinders + 'x'`; only cylinders = 8 rows fail the
  // division, so the TypeError wins in either column order.
  const std::string a = "100 / (e.cylinders - 8)";
  const std::string b = "e.cylinders + 'x'";
  for (const std::string& sql :
       {"SELECT " + a + ", " + b + " FROM VehicleEngine e",
        "SELECT " + b + ", " + a + " FROM VehicleEngine e",
        "SELECT e FROM VehicleEngine e ORDER BY " + a + ", " + b,
        "SELECT e FROM VehicleEngine e ORDER BY " + b + ", " + a,
        "SELECT e FROM VehicleEngine e GROUP BY " + a + ", " + b,
        "SELECT e FROM VehicleEngine e GROUP BY " + b + ", " + a}) {
    ExpectBatchMatch(sql);
    ExpectNaiveMatch(&db_, sql, /*same_error=*/true);
  }
}

TEST_F(BatchExecFixture, RandomizedExpressionsMatch) {
  std::mt19937 rng(20260809);  // fixed seed: failures must reproduce
  auto pick = [&](int n) { return static_cast<int>(rng() % static_cast<uint32_t>(n)); };
  const char* arith[] = {"+", "-", "*", "/", "%"};
  const char* cmp[] = {"=", "<>", "<", "<=", ">", ">="};

  std::function<std::string(int)> term = [&](int depth) -> std::string {
    int c = pick(depth > 0 ? 6 : 4);
    switch (c) {
      case 0: return "e.cylinders";
      case 1: return "e.size";
      case 2: return std::to_string(pick(40) - 5);
      case 3: return "'BMW'";  // type-error fodder
      case 4:
        return "(" + term(depth - 1) + " " + arith[pick(5)] + " " +
               term(depth - 1) + ")";
      default: return "(-" + term(depth - 1) + ")";
    }
  };
  std::function<std::string(int)> pred = [&](int depth) -> std::string {
    if (depth == 0 || pick(3) == 0) {
      return "(" + term(depth) + " " + cmp[pick(6)] + " " + term(depth) + ")";
    }
    switch (pick(3)) {
      case 0: return "(" + pred(depth - 1) + " AND " + pred(depth - 1) + ")";
      case 1: return "(" + pred(depth - 1) + " OR " + pred(depth - 1) + ")";
      default: return "NOT " + pred(depth - 1);
    }
  };

  // Plan-time errors legitimately differ from the naive oracle (DNF splits OR
  // terms, constants fold), so rows are compared only when both sides succeed;
  // the floor keeps that comparison from going vacuous.
  int compared = 0;
  for (int i = 0; i < 60; i++) {
    std::string sql = "SELECT e FROM VehicleEngine e WHERE " + pred(3);
    SCOPED_TRACE("iteration " + std::to_string(i) + ": " + sql);
    ExpectBatchMatch(sql, {7, 1024});
    if (HasFatalFailure()) return;
    auto engine = db_.Query(sql);
    auto naive = NaiveSelect(&db_, sql);
    if (!engine.ok() || !naive.ok()) continue;
    compared++;
    EXPECT_EQ(SortedRows(engine.value()), SortedRows(naive.value()));
  }
  EXPECT_GE(compared, 10);
}

// ---------------------------------------------------------------------------
// Edge-case batch geometries
// ---------------------------------------------------------------------------

TEST_F(BatchExecFixture, BatchSizeEdgeGeometries) {
  ASSERT_EQ(report_.engines, 60u);
  // 1 (degenerate), 6 (divides 60 exactly), 7 (doesn't), 59/61 (one off),
  // 60 (equals cardinality), 1024 (single batch spanning every heap page).
  std::vector<size_t> sizes = {1, 6, 7, 59, 60, 61, 1024};
  ExpectMatch("SELECT e FROM VehicleEngine e WHERE e.cylinders >= 2", sizes);
  ExpectMatch("SELECT e.size FROM VehicleEngine e ORDER BY e.size", sizes);
  // Vehicle spans several pages at scale 120: sizes below the per-page row
  // count make batches straddle page boundaries in the parallel scan.
  ExpectMatch("SELECT v.weight FROM Vehicle v WHERE v.weight > 0",
              {1, 7, 40, 120, 1024});
}

TEST_F(BatchExecFixture, EmptyExtent) {
  MOOD_ASSERT_OK(db_.Execute("CREATE CLASS Lonely TUPLE (x Integer)").status());
  ExpectMatch("SELECT l FROM Lonely l");
  ExpectMatch("SELECT l FROM Lonely l WHERE l.x > 0");
  ExpectMatch("SELECT l.x FROM Lonely l ORDER BY l.x");
  // Join with an empty side.
  ExpectMatch("SELECT v, l FROM Vehicle v, Lonely l WHERE v.weight = l.x");
}

TEST_F(BatchExecFixture, OversizedBatchRequestClamps) {
  QueryOptions opts;
  opts.batch_size = static_cast<size_t>(-2);  // beyond kMaxBatchRows, not the sentinel
  opts.exec_threads = 1;
  MOOD_ASSERT_OK_AND_ASSIGN(
      auto res, db_.Query("SELECT e FROM VehicleEngine e WHERE e.cylinders = 4", opts));
  QueryOptions oracle;
  oracle.batch_size = 1;
  oracle.exec_threads = 1;
  MOOD_ASSERT_OK_AND_ASSIGN(
      auto want,
      db_.Query("SELECT e FROM VehicleEngine e WHERE e.cylinders = 4", oracle));
  EXPECT_EQ(res.ToString(), want.ToString());
}

// ---------------------------------------------------------------------------
// A row the ordinal fast path cannot serve, mid-batch
// (ExprProgram::EvalPredicateBatch unit level)
// ---------------------------------------------------------------------------

TEST_F(BatchExecFixture, IntruderRowGetsTheInterpreterStatus) {
  // Compile a predicate against VehicleEngine, then feed it a batch whose
  // middle row is an Employee: attribute re-resolution fails with NotFound,
  // the shared path step tries `cylinders` as a method, and exactly that row
  // gets the interpreter's status as kRowError — the surrounding rows
  // evaluate columnar as usual.
  auto stmt = Parser::Parse("SELECT e FROM VehicleEngine e WHERE e.cylinders > 8");
  MOOD_ASSERT_OK(stmt.status());
  ExprPtr where = std::get<SelectStmt>(stmt.value()).where;
  ExprCompileEnv env;
  env.vars["e"] = {0, "VehicleEngine"};
  auto prog = ExprCompiler(db_.evaluator()).Compile(where, env);
  ASSERT_NE(prog, nullptr);

  std::vector<Oid> engines;
  MOOD_ASSERT_OK(db_.objects()->ScanExtent("VehicleEngine", false, {},
                                           [&](Oid oid, const MoodValue&) {
                                             if (engines.size() < 6) engines.push_back(oid);
                                             return Status::OK();
                                           }));
  ASSERT_GE(engines.size(), 6u);
  Oid intruder{};
  MOOD_ASSERT_OK(db_.objects()->ScanExtent("Employee", false, {},
                                           [&](Oid oid, const MoodValue&) {
                                             intruder = oid;
                                             return Status::OK();
                                           }));

  RowBatch batch(1, 8);
  for (size_t i = 0; i < 3; i++) batch.PushRow(&engines[i], 1);
  batch.PushRow(&intruder, 1);
  for (size_t i = 3; i < 6; i++) batch.PushRow(&engines[i], 1);

  ExprProgram::BatchScratch scratch;
  prog->EvalPredicateBatch(batch, SnapshotView{}, &scratch);
  ASSERT_EQ(scratch.flags.size(), 7u);
  for (size_t k = 0; k < 7; k++) {
    // Cross-check every row against the interpreter.
    testing::NaiveEnv row_env;
    row_env.vars["e"] = batch.col(0)[batch.RowAt(k)];
    auto want = testing::NaiveEvalPredicate(*db_.evaluator(), where, row_env);
    if (k == 3) {
      ASSERT_FALSE(want.ok());
      EXPECT_EQ(scratch.flags[k], ExprProgram::kRowError) << "row " << k;
      EXPECT_EQ(scratch.errors[k].ToString(), want.status().ToString());
      continue;
    }
    MOOD_ASSERT_OK(want.status());
    EXPECT_EQ(scratch.flags[k], ExprProgram::kRowOk) << "row " << k;
    EXPECT_EQ(scratch.keep[k] != 0, want.value()) << "row " << k;
  }

  // With a selection vector the outputs are indexed by live position, and
  // deselected rows (including the intruder) are never touched.
  batch.sel = {0, 2, 4, 6};
  batch.sel_active = true;
  prog->EvalPredicateBatch(batch, SnapshotView{}, &scratch);
  ASSERT_EQ(scratch.flags.size(), 4u);
  for (size_t k = 0; k < 4; k++) {
    EXPECT_EQ(scratch.flags[k], ExprProgram::kRowOk) << "live " << k;
  }
}

// ---------------------------------------------------------------------------
// exec.batch.* metrics and knob wiring
// ---------------------------------------------------------------------------

TEST_F(BatchExecFixture, BatchCountersTrackOperatorOutput) {
  const std::string sql = "SELECT e FROM VehicleEngine e WHERE e.cylinders >= 2";
  uint64_t batches0 = CounterValue("exec.batch.batches");
  uint64_t rows0 = CounterValue("exec.batch.rows");

  // This test asserts *execution* side effects, so the result cache (which
  // legitimately skips execution on a repeat) must stay out of the way.
  QueryOptions batched;
  batched.batch_size = 7;
  batched.exec_threads = 1;
  batched.use_cache = false;
  MOOD_ASSERT_OK_AND_ASSIGN(auto res, db_.Query(sql, batched));
  uint64_t batches1 = CounterValue("exec.batch.batches");
  uint64_t rows1 = CounterValue("exec.batch.rows");
  // 60 engines at 7/batch: the scan alone emits 9 batches; the filter re-emits
  // them. Row tallies count rows entering operator boundaries.
  EXPECT_GE(batches1 - batches0, 9u);
  EXPECT_GE(rows1 - rows0, res.rows.size());
}

TEST(BatchExecOptions, BatchSizeKnobWiresThrough) {
  TempDir dir;
  {
    Database db;
    MOOD_ASSERT_OK(db.Open(dir.Path("mood-default")));
    EXPECT_EQ(db.executor()->batch_size(), kDefaultBatchRows);
  }
  {
    Database db;
    DatabaseOptions opts;
    opts.batch_size = 256;
    MOOD_ASSERT_OK(db.Open(dir.Path("mood-256"), opts));
    EXPECT_EQ(db.executor()->batch_size(), 256u);
  }
  {
    // 0 clamps to one row per batch.
    Database db;
    DatabaseOptions opts;
    opts.batch_size = 0;
    MOOD_ASSERT_OK(db.Open(dir.Path("mood-rows"), opts));
    EXPECT_EQ(db.executor()->batch_size(), 1u);
  }
  {
    // Oversized requests clamp to the allocation guard.
    Database db;
    DatabaseOptions opts;
    opts.batch_size = kMaxBatchRows * 4;
    MOOD_ASSERT_OK(db.Open(dir.Path("mood-clamp"), opts));
    EXPECT_EQ(db.executor()->batch_size(), kMaxBatchRows);
  }
}

}  // namespace
}  // namespace mood
