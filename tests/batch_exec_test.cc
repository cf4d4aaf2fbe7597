#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
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
// Grouped path steps: ObjectManager::ReadFields and the batched ChaseRefs
// against per-object reads, and the pointer joins built on them
// ---------------------------------------------------------------------------

/// A database whose pool holds only a few pages, with a schema built for the
/// grouped read's edge cases:
///   Maker (name, rank, partner -> Maker) and, after some Makers exist, the
///     added attribute `color`;
///   Brand : Label (tag), Maker, so its inherited `rank` sits at ordinal 2
///     where a Maker's sits at 1;
///   Holder : Base (maker -> Maker, makers Set of -> Maker);
///   Odd : Base (maker Integer), whose `maker` is no reference.
/// Long names spread the Makers over many more pages than the pool holds,
/// and references point at them in random page order.
class GroupedReadFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Every worker of a threaded pass pins one page at a time, so the pool
    // needs a frame per worker: 4 pages, or 8 for the 8-thread pass.
    DatabaseOptions opts;
    opts.pool_pages = 4;
    for (size_t t : TestThreadCounts()) opts.pool_pages = std::max(opts.pool_pages, t);
    opts.pool_shards = 1;
    opts.enable_wal = false;
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood"), opts));
    Catalog* catalog = db_.catalog();
    auto define = [&](const std::string& name, std::vector<std::string> supers,
                      std::vector<MoodsAttribute> attrs) {
      Catalog::ClassDef def;
      def.name = name;
      def.supers = std::move(supers);
      def.attributes = std::move(attrs);
      return catalog->Define(def).status();
    };
    const TypeDescPtr maker_ref = TypeDesc::Reference("Maker");
    MOOD_ASSERT_OK(define("Maker", {},
                          {{"name", TypeDesc::Basic(BasicType::kString)},
                           {"rank", TypeDesc::Basic(BasicType::kInteger)},
                           {"partner", maker_ref}}));
    MOOD_ASSERT_OK(define("Label", {}, {{"tag", TypeDesc::Basic(BasicType::kString)}}));
    MOOD_ASSERT_OK(define("Brand", {"Label", "Maker"}, {}));
    MOOD_ASSERT_OK(define("Base", {}, {{"id", TypeDesc::Basic(BasicType::kInteger)}}));
    MOOD_ASSERT_OK(define("Holder", {"Base"},
                          {{"maker", maker_ref}, {"makers", TypeDesc::Set(maker_ref)}}));
    MOOD_ASSERT_OK(define("Odd", {"Base"}, {{"maker", TypeDesc::Basic(BasicType::kInteger)}}));

    ObjectManager* objects = db_.objects();
    Random rng(26);
    // Never the Maker deleted below (index 299).
    auto partner = [&]() {
      if (makers_.empty() || rng.OneIn(4)) return MoodValue::Null();
      return MoodValue::Reference(makers_[rng.Uniform(std::min<size_t>(makers_.size(), 299))]);
    };
    auto name = [&](size_t i) { return MoodValue::String(std::string(180, 'a' + i % 26)); };
    for (size_t i = 0; i < 150; i++) {
      MOOD_ASSERT_OK_AND_ASSIGN(
          Oid m, objects->CreateObject("Maker", MoodValue::Tuple({name(i),
                                                                  MoodValue::Integer(int32_t(i)),
                                                                  partner()})));
      makers_.push_back(m);
    }
    old_maker_ = makers_.front();
    MOOD_ASSERT_OK(catalog->AddAttribute("Maker", {"color", TypeDesc::Basic(BasicType::kString)}));
    for (size_t i = 150; i < 300; i++) {
      MOOD_ASSERT_OK_AND_ASSIGN(
          Oid m, objects->CreateObject("Maker", MoodValue::Tuple({name(i),
                                                                  MoodValue::Integer(int32_t(i)),
                                                                  partner(),
                                                                  MoodValue::String("red")})));
      makers_.push_back(m);
    }
    for (size_t i = 0; i < 20; i++) {
      MOOD_ASSERT_OK_AND_ASSIGN(
          Oid b, objects->CreateObject(
                     "Brand", MoodValue::Tuple({MoodValue::String("tag" + std::to_string(i)),
                                                name(i), MoodValue::Integer(int32_t(1000 + i)),
                                                partner(), MoodValue::String("blue")})));
      brand_ = b;
      makers_.push_back(b);
    }
    // Grown past its page: the record moves behind a forwarding stub.
    forwarded_ = makers_[40];
    MOOD_ASSERT_OK(objects->SetAttribute(forwarded_, "name",
                                         MoodValue::String(std::string(2500, 'f'))));
    for (int32_t i = 0; i < 200; i++) {
      MoodValue maker = i % 10 == 3 ? MoodValue::Null() : MoodValue::Reference(Pick(&rng));
      if (i % 17 == 5) maker = MoodValue::Reference(forwarded_);
      MoodValue::ValueList set;
      for (uint64_t k = rng.Uniform(4); k > 0; k--) set.push_back(MoodValue::Reference(Pick(&rng)));
      MOOD_ASSERT_OK_AND_ASSIGN(
          Oid h, objects->CreateObject("Holder", MoodValue::Tuple({MoodValue::Integer(i), maker,
                                                                   MoodValue::Set(set)})));
      holders_.push_back(h);
    }
    for (int32_t i = 0; i < 5; i++) {
      MOOD_ASSERT_OK_AND_ASSIGN(
          Oid o, objects->CreateObject("Odd", MoodValue::Tuple({MoodValue::Integer(500 + i),
                                                                MoodValue::Integer(i)})));
      odds_.push_back(o);
    }
    // Deleted last, so no later insert reuses its slot; no Holder or partner
    // refers to it.
    deleted_ = makers_[299];
    MOOD_ASSERT_OK(objects->DeleteObject(deleted_));
  }

  /// A random Maker or Brand other than the deleted one (index 299).
  Oid Pick(Random* rng) {
    size_t i = rng->Uniform(makers_.size() - 1);
    return makers_[i < 299 ? i : i + 1];
  }

  /// The reference hop the tests read: every Holder's `maker` (a null one as
  /// the null Oid) and its `makers` elements, in Holder order, plus the
  /// deleted Maker twice.
  std::vector<Oid> HopTargets() {
    std::vector<Oid> out;
    for (Oid h : holders_) {
      Result<ObjectRecord> rec = db_.objects()->Read(h);
      EXPECT_TRUE(rec.ok());
      if (!rec.ok()) continue;
      const MoodValue& maker = rec->tuple->elements()[1];
      out.push_back(maker.is_null() ? Oid{} : maker.AsReference());
      for (const MoodValue& e : rec->tuple->elements()[2].elements()) {
        out.push_back(e.AsReference());
      }
    }
    out.insert(out.begin() + 3, deleted_);
    out.push_back(deleted_);
    return out;
  }

  TempDir dir_;
  Database db_;
  std::vector<Oid> makers_;  // Makers, then Brands
  std::vector<Oid> holders_;
  std::vector<Oid> odds_;
  Oid old_maker_;
  Oid brand_;
  Oid forwarded_;
  Oid deleted_;
};

/// Field `attr` of `oid` by a whole-object Read: the instance's own layout,
/// the default for a field the record predates.
Result<MoodValue> FieldViaRead(const ObjectManager& objects, Oid oid, const std::string& attr,
                               const SnapshotView& snap) {
  MOOD_ASSIGN_OR_RETURN(ObjectRecord record, objects.Read(oid, snap));
  MOOD_ASSIGN_OR_RETURN(AttributeLayoutPtr layout, objects.LayoutOf(record.type_id));
  MOOD_ASSIGN_OR_RETURN(size_t idx, layout->Ordinal(attr));
  if (idx >= record.tuple->size()) return layout->attrs[idx].type->DefaultValue();
  return record.tuple->elements()[idx];
}

/// ReadFields over `oids` in chunks of `batch`, the chunks spread over
/// `threads` workers, against FieldViaRead per object: the same value, or an
/// error with the same code. `expected` null reads by name.
void ExpectGroupedReadMatches(const ObjectManager& objects, const std::vector<Oid>& oids,
                              const AttributeLayout* expected, const std::string& attr,
                              const SnapshotView& snap, size_t batch, size_t threads) {
  SCOPED_TRACE(attr + (expected != nullptr ? " by ordinal" : " by name") + " batch=" +
               std::to_string(batch) + " threads=" + std::to_string(threads));
  uint32_t ordinal = 0;
  if (expected != nullptr) ordinal = static_cast<uint32_t>(expected->Ordinal(attr).value());
  std::vector<MoodValue> values(oids.size());
  std::vector<Status> errors(oids.size(), Status::Internal("not written"));
  const size_t chunks = (oids.size() + batch - 1) / batch;
  MOOD_ASSERT_OK(ParallelFor(threads, chunks, [&](size_t c) {
    const size_t begin = c * batch;
    const size_t end = std::min(oids.size(), begin + batch);
    std::vector<ObjectManager::FieldRead> items;
    for (size_t i = begin; i < end; i++) {
      items.push_back({oids[i], static_cast<uint32_t>(i - begin)});
    }
    objects.ReadFields(items, expected, ordinal, attr, snap, values.data() + begin,
                       errors.data() + begin);
    return Status::OK();
  }));
  for (size_t i = 0; i < oids.size(); i++) {
    Result<MoodValue> want = FieldViaRead(objects, oids[i], attr, snap);
    ASSERT_EQ(errors[i].ok(), want.ok())
        << oids[i].ToString() << ": " << errors[i].ToString() << " vs "
        << want.status().ToString();
    if (!want.ok()) {
      EXPECT_EQ(errors[i].code(), want.status().code()) << oids[i].ToString();
      continue;
    }
    EXPECT_TRUE(values[i].Equals(want.value()))
        << oids[i].ToString() << ": " << values[i].ToString() << " vs "
        << want.value().ToString();
  }
}

/// ChaseRefs against the per-row depth-first NaiveChaseRefs: the same
/// (row, object) sequence and the same status.
void ExpectChaseMatches(const ObjectManager& objects, const std::vector<Oid>& from,
                        const std::vector<std::string>& path, const SnapshotView& snap) {
  std::vector<std::pair<size_t, Oid>> got;
  std::vector<std::pair<size_t, Oid>> want;
  Status got_st = objects.ChaseRefs(from, path, snap, [&](size_t i, Oid o) {
    got.emplace_back(i, o);
    return Status::OK();
  });
  Status want_st = testing::NaiveChaseRefs(objects, from, path, snap, [&](size_t i, Oid o) {
    want.emplace_back(i, o);
    return Status::OK();
  });
  EXPECT_EQ(got_st.ToString(), want_st.ToString());
  // A failed chase stops where the depth-first one does.
  EXPECT_EQ(got, want);
}

TEST_F(GroupedReadFixture, GroupedReadMatchesPerObjectReads) {
  const ObjectManager& objects = *db_.objects();
  MOOD_ASSERT_OK_AND_ASSIGN(AttributeLayoutPtr maker, objects.LayoutOf("Maker"));
  std::vector<Oid> hop = HopTargets();
  hop.push_back(brand_);
  hop.push_back(old_maker_);
  hop.push_back(forwarded_);
  hop.push_back(forwarded_);

  // A batch still open when the snapshot is pinned rewrites, deletes and
  // creates objects: reads through the snapshot see the state before it.
  VersionStore* versions = db_.versions();
  const uint64_t batch = versions->BeginBatch();
  ObjectManager* writer = db_.objects();
  MOOD_ASSERT_OK(writer->SetAttribute(makers_[11], "rank", MoodValue::Integer(-1), nullptr,
                                      batch));
  MOOD_ASSERT_OK(writer->SetAttribute(forwarded_, "rank", MoodValue::Integer(-2), nullptr, batch));
  MOOD_ASSERT_OK(writer->SetAttribute(brand_, "rank", MoodValue::Integer(-3), nullptr, batch));
  MOOD_ASSERT_OK(writer->DeleteObject(makers_[7], nullptr, batch));
  // A Brand, so the insert cannot reuse the deleted Makers' slots.
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid born, writer->CreateObject("Brand", MoodValue::Tuple({MoodValue::String("new")}),
                                     nullptr, batch));
  hop.push_back(makers_[7]);
  hop.push_back(born);
  PendingSlots pending{};
  const uint64_t csn = versions->PinSnapshot(&pending);
  const SnapshotView pinned{versions, csn};

  for (const SnapshotView& snap : {SnapshotView{}, pinned}) {
    SCOPED_TRACE(snap.active() ? "pinned snapshot" : "latest state");
    for (size_t batch_size : {1, 7, 1024}) {
      for (size_t threads : TestThreadCounts()) {
        for (const char* attr : {"rank", "color", "partner"}) {
          ExpectGroupedReadMatches(objects, hop, maker.get(), attr, snap, batch_size, threads);
        }
        for (const char* attr : {"name", "tag", "rank"}) {
          ExpectGroupedReadMatches(objects, hop, nullptr, attr, snap, batch_size, threads);
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    // The chase over the same objects: single and set-valued hops, null
    // references, and a deleted object's NotFound mid-chase.
    std::vector<Oid> from = holders_;
    ExpectChaseMatches(objects, from, {"maker"}, snap);
    ExpectChaseMatches(objects, from, {"makers"}, snap);
    ExpectChaseMatches(objects, from, {"maker", "partner"}, snap);
    ExpectChaseMatches(objects, from, {"makers", "partner", "partner"}, snap);
    ExpectChaseMatches(objects, hop, {"partner", "partner"}, snap);
  }
  versions->UnpinSnapshot(csn);
  versions->CommitBatch(batch);
}

TEST_F(GroupedReadFixture, OneHopPinsEachPageOnce) {
  const ObjectManager& objects = *db_.objects();
  MOOD_ASSERT_OK_AND_ASSIGN(AttributeLayoutPtr maker, objects.LayoutOf("Maker"));
  const std::vector<Oid> hop = HopTargets();
  std::vector<ObjectManager::FieldRead> items;
  std::set<std::pair<uint16_t, uint32_t>> pages;
  std::set<uint16_t> files;
  for (Oid o : hop) {
    if (!o.valid()) continue;
    items.push_back({o, static_cast<uint32_t>(items.size())});
    pages.insert({o.file, o.page});
    files.insert(o.file);
  }
  ASSERT_GT(items.size(), pages.size());  // pages are shared, and out of order
  ASSERT_GT(pages.size(), db_.storage()->buffer_pool()->pool_size());
  auto record_stats = [&] {
    HeapFile::OpStats sum;
    for (uint16_t f : files) {
      HeapFile* file = db_.storage()->GetFile(f).value();
      sum.record_reads += file->op_stats().record_reads;
      sum.forward_chases += file->op_stats().forward_chases;
    }
    return sum;
  };
  BufferPool* pool = db_.storage()->buffer_pool();
  const HeapFile::OpStats before = record_stats();
  const BufferPoolStats pool_before = pool->stats();
  std::vector<MoodValue> values(items.size());
  std::vector<Status> errors(items.size());
  objects.ReadFields(items, maker.get(), 1, "rank", SnapshotView{}, values.data(),
                     errors.data());
  const HeapFile::OpStats after = record_stats();
  const BufferPoolStats pool_after = pool->stats();
  const uint64_t stubs = after.forward_chases - before.forward_chases;
  EXPECT_GE(stubs, 1u);  // the forwarded Maker
  EXPECT_EQ(after.record_reads - before.record_reads, items.size());
  const uint64_t fetches =
      (pool_after.hits + pool_after.misses) - (pool_before.hits + pool_before.misses);
  EXPECT_LE(fetches, pages.size() + stubs);
  EXPECT_EQ(pool->PinnedPageCount(), 0u);
  size_t not_found = 0;
  for (const Status& st : errors) not_found += st.IsNotFound() ? 1 : 0;
  EXPECT_EQ(not_found, 2u);  // the deleted Maker, twice
}

TEST_F(GroupedReadFixture, ChaseReturnsTheDepthFirstFirstError) {
  const ObjectManager& objects = *db_.objects();
  // Row 0 fails at depth 1 (a Maker's `rank` is no reference), row 1 at
  // depth 0 (an Odd's `maker` is an Integer): the depth-first chase reports
  // row 0's error although the hop-by-hop chase meets row 1's first.
  Oid with_maker;
  for (Oid h : holders_) {
    if (db_.objects()->GetAttribute(h, "maker").value().kind() == ValueKind::kReference) {
      with_maker = h;
      break;
    }
  }
  for (const std::vector<Oid>& from : {std::vector<Oid>{with_maker, odds_[0]},
                                       std::vector<Oid>{odds_[0], with_maker},
                                       std::vector<Oid>{with_maker, with_maker, odds_[1]}}) {
    ExpectChaseMatches(objects, from, {"maker", "rank"}, SnapshotView{});
  }
  Status st = objects.ChaseRefs({with_maker, odds_[0]}, {"maker", "rank"}, SnapshotView{},
                                [](size_t, Oid) { return Status::OK(); });
  EXPECT_TRUE(st.IsTypeError());
  EXPECT_NE(st.message().find("'rank'"), std::string::npos) << st.ToString();
}

/// The pairs a pointer join over `left` and `right` must produce, in order:
/// left rows in order, each row's reached objects depth first, each matched
/// against the right rows in order; or the first error in that order.
Result<std::vector<std::pair<Oid, Oid>>> NaiveChaseJoin(const ObjectManager& objects,
                                                       const std::vector<Oid>& left,
                                                       const std::vector<Oid>& right,
                                                       const std::vector<std::string>& path) {
  std::vector<std::pair<Oid, Oid>> pairs;
  MOOD_RETURN_IF_ERROR(testing::NaiveChaseRefs(objects, left, path, SnapshotView{},
                                               [&](size_t i, Oid reached) {
                                                 for (Oid r : right) {
                                                   if (r == reached) pairs.emplace_back(left[i], r);
                                                 }
                                                 return Status::OK();
                                               }));
  return pairs;
}

TEST_F(GroupedReadFixture, PointerJoinsMatchThePerRowChase) {
  const ObjectManager& objects = *db_.objects();
  auto oids_of = [&](const std::string& cls, bool every) {
    std::vector<Oid> out;
    EXPECT_TRUE(objects
                    .ScanExtentOids(cls, every, {}, SnapshotView{},
                                    [&](Oid o) {
                                      out.push_back(o);
                                      return Status::OK();
                                    })
                    .ok());
    return out;
  };
  const std::vector<Oid> all_makers = oids_of("Maker", true);
  const std::vector<Oid> bases = oids_of("Base", true);
  auto bind = [](const std::string& cls, bool every, const std::string& var) {
    FromEntry from;
    from.class_name = cls;
    from.every = every;
    from.var = var;
    return PlanNode::Bind(from);
  };
  struct Case {
    std::string left_class;
    bool every;
    std::vector<std::string> path;
  };
  const std::vector<Case> cases = {{"Holder", false, {"maker"}},
                                   {"Holder", false, {"makers"}},
                                   {"Holder", false, {"maker", "partner"}},
                                   {"Holder", false, {"makers", "partner", "partner"}},
                                   // Holder rows fail at depth 1, Odd rows at depth 0.
                                   {"Base", true, {"maker", "rank"}}};
  const JoinMethod chases[] = {JoinMethod::kForwardTraversal, JoinMethod::kBackwardTraversal,
                               JoinMethod::kHashPartition, JoinMethod::kIndexed};
  for (const Case& c : cases) {
    const std::vector<Oid> left = oids_of(c.left_class, c.every);
    auto want = NaiveChaseJoin(objects, left, all_makers, c.path);
    if (c.left_class == "Base") {
      ASSERT_FALSE(want.ok());
      EXPECT_NE(want.status().message().find("'rank'"), std::string::npos);
    } else {
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_FALSE(want->empty());
    }
    for (JoinMethod m : chases) {
      PlanPtr plan = PlanNode::PointerJoin(bind(c.left_class, c.every, "h"),
                                           bind("Maker", true, "m"), m, "h", c.path, "m");
      for (size_t batch : {1, 7, 1024}) {
        for (size_t threads : TestThreadCounts()) {
          SCOPED_TRACE(std::string(JoinMethodName(m)) + " path=" + c.path.back() +
                       " batch=" + std::to_string(batch) + " threads=" + std::to_string(threads));
          ExecOptions opts;
          opts.threads = threads;
          opts.batch_size = batch;
          Result<BatchSet> got = db_.executor()->ExecutePlan(plan, opts);
          ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
          if (!want.ok()) {
            EXPECT_EQ(got.status().ToString(), want.status().ToString());
            continue;
          }
          const int h = got->VarIndex("h");
          const int mv = got->VarIndex("m");
          std::vector<std::pair<Oid, Oid>> pairs;
          for (auto [b, r] : got->LiveIndex()) {
            pairs.emplace_back(got->batches[b].col(static_cast<size_t>(h))[r],
                               got->batches[b].col(static_cast<size_t>(mv))[r]);
          }
          EXPECT_EQ(pairs, *want);
        }
      }
    }
  }

  // MoodAlgebra::Join chases one attribute over the whole outer collection:
  // a list that repeats Holders, and a list whose Odd rows fail.
  MoodAlgebra* algebra = db_.algebra();
  std::vector<Oid> repeated = holders_;
  repeated.insert(repeated.end(), holders_.begin(), holders_.begin() + 9);
  const Collection inner = Collection::Extent("Maker", all_makers);
  for (const std::vector<Oid>& outer :
       {repeated, std::vector<Oid>{holders_[0], odds_[2], holders_[1], odds_[0]}}) {
    const Collection left = Collection::List(outer);
    const bool set_result = JoinReturnKind(left.kind(), inner.kind()) == CollKind::kSet;
    for (const std::string attr : {"maker", "makers"}) {
      auto want = NaiveChaseJoin(objects, outer, all_makers, {attr});
      if (want.ok() && set_result) {
        std::vector<std::pair<Oid, Oid>> unique;
        for (const auto& p : *want) {
          if (std::find(unique.begin(), unique.end(), p) == unique.end()) unique.push_back(p);
        }
        want = unique;
      }
      for (JoinMethod m : chases) {
        SCOPED_TRACE(std::string(JoinMethodName(m)) + " attr=" + attr);
        Result<Collection> got = algebra->Join(left, inner, m, nullptr, "h", "m", attr);
        ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
        if (!want.ok()) {
          EXPECT_EQ(got.status().ToString(), want.status().ToString());
          continue;
        }
        std::vector<std::pair<Oid, Oid>> pairs;
        for (const MoodValue& t : got->values()) {
          pairs.emplace_back(t.elements()[0].AsReference(), t.elements()[1].AsReference());
        }
        EXPECT_EQ(pairs, *want);
      }
    }
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
