#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/paper_example.h"
#include "exec/plan_cache.h"
#include "obs/metrics.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::ExpectNaiveMatch;
using testing::TempDir;

/// Thread counts for the racing-writer test. MOOD_TEST_THREADS=<n> narrows the
/// sweep to one count — the sanitizer CTest presets register plan_cache_test_t2
/// / _t8 variants that way to bound runtime.
std::vector<size_t> TestThreadCounts() {
  const char* env = std::getenv("MOOD_TEST_THREADS");
  if (env != nullptr && std::atoi(env) > 0) {
    return {static_cast<size_t>(std::atoi(env))};
  }
  return {2, 8};
}

/// Deterministic PRNG for the randomized differential (no global rand state).
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
};

double CounterOf(Database* db, const std::string& name) {
  return db->metrics()->Snapshot().ValueOf(name, -1);
}

// ---------------------------------------------------------------------------
// NormalizeSql
// ---------------------------------------------------------------------------

TEST(NormalizeSqlTest, WhitespaceKeywordCaseAndSemicolons) {
  const std::string canon = NormalizeSql("SELECT v FROM Vehicle v");
  EXPECT_FALSE(canon.empty());
  EXPECT_EQ(NormalizeSql("select   v\n from Vehicle v ;"), canon);
  EXPECT_EQ(NormalizeSql("SELECT v FROM Vehicle v;;"), canon);
  // EXPLAIN variants key like the bare SELECT (the cache stores SELECT plans).
  EXPECT_EQ(NormalizeSql("EXPLAIN SELECT v FROM Vehicle v"), canon);
  EXPECT_EQ(NormalizeSql("EXPLAIN ANALYZE VERBOSE SELECT v FROM Vehicle v"), canon);
  // Identifiers keep their case: Vehicle != vehicle as a class name.
  EXPECT_NE(NormalizeSql("SELECT v FROM vehicle v"), canon);
  // String literals survive normalization with quoting intact.
  std::string s = NormalizeSql("SELECT c FROM Company c WHERE c.name = 'O''Brien'");
  EXPECT_NE(s.find("'O''Brien'"), std::string::npos);
  // Unlexable input cannot be keyed (callers bypass the cache on "").
  EXPECT_EQ(NormalizeSql("SELECT \x01"), "");
}

TEST(NormalizeSqlTest, ParamSignatureAndValueKey) {
  std::vector<MoodValue> ints = {MoodValue::Integer(2)};
  std::vector<MoodValue> floats = {MoodValue::Float(2.0)};
  // int-vs-float is a *type* collision: same SQL, different signature.
  EXPECT_NE(ParamTypeSignature(ints), ParamTypeSignature(floats));
  EXPECT_NE(ParamValueKey(ints), ParamValueKey(floats));
  // ...and different values of the same type differ only in the value key.
  std::vector<MoodValue> ints4 = {MoodValue::Integer(4)};
  EXPECT_EQ(ParamTypeSignature(ints), ParamTypeSignature(ints4));
  EXPECT_NE(ParamValueKey(ints), ParamValueKey(ints4));
}

// ---------------------------------------------------------------------------
// Fixture: paper schema + data, caches on
// ---------------------------------------------------------------------------

class PlanCacheFixture : public ::testing::Test {
 protected:
  void SetUp() override { OpenWith(8, 1u << 20); }

  void OpenWith(size_t plan_entries, size_t result_bytes) {
    if (db_.is_open()) MOOD_ASSERT_OK(db_.Close());
    DatabaseOptions opts;
    opts.exec_threads = 1;
    opts.plan_cache_entries = plan_entries;
    opts.result_cache_bytes = result_bytes;
    // A fresh file per (re-)open: re-running the schema DDL on a persisted
    // database would fail with AlreadyExists.
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood" + std::to_string(opens_++)), opts));
    MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
    MOOD_ASSERT_OK_AND_ASSIGN(report_, paperdb::PopulatePaperData(&db_, 60));
    MOOD_ASSERT_OK(db_.CollectAllStatistics());
  }

  TempDir dir_;
  Database db_;
  paperdb::PopulateReport report_;
  int opens_ = 0;
};

TEST_F(PlanCacheFixture, HitMissAccounting) {
  const std::string sql = "SELECT e FROM VehicleEngine e WHERE e.cylinders > 4";
  const double miss0 = CounterOf(&db_, "cache.plan.misses");
  const double hit0 = CounterOf(&db_, "cache.plan.hits");

  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult cold, db_.Query(sql));
  EXPECT_EQ(CounterOf(&db_, "cache.plan.misses"), miss0 + 1);
  EXPECT_EQ(CounterOf(&db_, "cache.plan.hits"), hit0);
  EXPECT_EQ(db_.plan_cache()->size(), 1u);

  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult warm, db_.Query(sql));
  EXPECT_EQ(CounterOf(&db_, "cache.plan.hits"), hit0 + 1);
  EXPECT_EQ(cold.ToString(), warm.ToString());

  // Textually different but normalization-equivalent spellings share an entry.
  MOOD_ASSERT_OK(db_.Query("select e from VehicleEngine e where e.cylinders > 4;").status());
  EXPECT_EQ(CounterOf(&db_, "cache.plan.hits"), hit0 + 2);
  EXPECT_EQ(db_.plan_cache()->size(), 1u);

  // use_cache = false is the uncached oracle: no probe, no insert.
  QueryOptions no_cache;
  no_cache.use_cache = false;
  const double miss1 = CounterOf(&db_, "cache.plan.misses");
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult oracle, db_.Query(sql, no_cache));
  EXPECT_EQ(CounterOf(&db_, "cache.plan.misses"), miss1);
  EXPECT_EQ(oracle.ToString(), cold.ToString());
}

TEST_F(PlanCacheFixture, ResultCacheHitsAndParamValueKeying) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      PreparedStatement ps,
      db_.Prepare("SELECT e FROM VehicleEngine e WHERE e.cylinders > ?"));
  EXPECT_EQ(ps.param_count(), 1u);

  const double rhit0 = CounterOf(&db_, "cache.result.hits");
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult r4, ps.Query({MoodValue::Integer(4)}));
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult r4b, ps.Query({MoodValue::Integer(4)}));
  EXPECT_EQ(CounterOf(&db_, "cache.result.hits"), rhit0 + 1);
  EXPECT_EQ(r4.ToString(), r4b.ToString());

  // A different bound value may not reuse the ?=4 result.
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult r8, ps.Query({MoodValue::Integer(8)}));
  EXPECT_EQ(CounterOf(&db_, "cache.result.hits"), rhit0 + 1);
  QueryOptions no_cache;
  no_cache.use_cache = false;
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult r8_oracle,
                            ps.Query({MoodValue::Integer(8)}, no_cache));
  EXPECT_EQ(r8.ToString(), r8_oracle.ToString());
}

TEST_F(PlanCacheFixture, IntVsFloatParamSignaturesGetSeparatePlans) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      PreparedStatement ps,
      db_.Prepare("SELECT e FROM VehicleEngine e WHERE e.cylinders > ?"));
  const double miss0 = CounterOf(&db_, "cache.plan.misses");
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult ri, ps.Query({MoodValue::Integer(4)}));
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult rf, ps.Query({MoodValue::Float(4.0)}));
  // Same SQL, different type signature: two plan-cache entries, two misses.
  EXPECT_EQ(CounterOf(&db_, "cache.plan.misses"), miss0 + 2);
  EXPECT_EQ(db_.plan_cache()->size(), 2u);
  // 4 and 4.0 compare equally in MOODSQL, so the rows agree even though the
  // plans (and the result-cache keys) are distinct.
  EXPECT_EQ(ri.ToString(), rf.ToString());
}

TEST_F(PlanCacheFixture, LruEvictionAccounting) {
  OpenWith(/*plan_entries=*/2, /*result_bytes=*/0);
  const double evict0 = CounterOf(&db_, "cache.plan.evictions");
  MOOD_ASSERT_OK(db_.Query("SELECT v FROM Vehicle v").status());
  MOOD_ASSERT_OK(db_.Query("SELECT e FROM VehicleEngine e").status());
  EXPECT_EQ(db_.plan_cache()->size(), 2u);
  // Touch the first so the second is the LRU victim.
  MOOD_ASSERT_OK(db_.Query("SELECT v FROM Vehicle v").status());
  MOOD_ASSERT_OK(db_.Query("SELECT c FROM Company c").status());
  EXPECT_EQ(db_.plan_cache()->size(), 2u);
  EXPECT_EQ(CounterOf(&db_, "cache.plan.evictions"), evict0 + 1);

  const double hit0 = CounterOf(&db_, "cache.plan.hits");
  MOOD_ASSERT_OK(db_.Query("SELECT v FROM Vehicle v").status());  // survived (MRU)
  EXPECT_EQ(CounterOf(&db_, "cache.plan.hits"), hit0 + 1);
  const double miss0 = CounterOf(&db_, "cache.plan.misses");
  MOOD_ASSERT_OK(db_.Query("SELECT e FROM VehicleEngine e").status());  // evicted
  EXPECT_EQ(CounterOf(&db_, "cache.plan.misses"), miss0 + 1);
}

TEST_F(PlanCacheFixture, DdlInvalidatesAndReportsSchemaEpoch) {
  const std::string sql = "SELECT v FROM Vehicle v WHERE v.weight > 0";
  MOOD_ASSERT_OK(db_.Query(sql).status());
  MOOD_ASSERT_OK(db_.Query(sql).status());
  const double inval0 = CounterOf(&db_, "cache.plan.invalidations");

  // Any DDL bumps the schema epoch; the ExecResult reports the epoch produced
  // so invalidation is observable without poking internals.
  MOOD_ASSERT_OK_AND_ASSIGN(
      ExecResult ddl,
      db_.Execute("CREATE CLASS CacheProbe TUPLE ( n Integer )"));
  EXPECT_EQ(ddl.kind, ExecResult::Kind::kDdl);
  EXPECT_GT(ddl.schema_epoch, 0u);

  MOOD_ASSERT_OK_AND_ASSIGN(
      ExecResult idx, db_.Execute("CREATE INDEX probe_n ON CacheProbe(n) USING BTREE"));
  EXPECT_GT(idx.schema_epoch, ddl.schema_epoch);

  const double miss0 = CounterOf(&db_, "cache.plan.misses");
  MOOD_ASSERT_OK(db_.Query(sql).status());
  EXPECT_EQ(CounterOf(&db_, "cache.plan.invalidations"), inval0 + 1);
  EXPECT_EQ(CounterOf(&db_, "cache.plan.misses"), miss0 + 1);
}

TEST_F(PlanCacheFixture, WriteInvalidatesResultCacheBeforeNextRead) {
  MOOD_ASSERT_OK(db_.Execute("CREATE CLASS Gauge TUPLE ( n Integer )").status());
  MOOD_ASSERT_OK(db_.Execute("NEW Gauge <1>").status());
  const std::string sql = "SELECT g.n FROM Gauge g";
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult before, db_.Query(sql));
  MOOD_ASSERT_OK(db_.Query(sql).status());  // now served from the result cache
  ASSERT_EQ(before.rows.size(), 1u);
  EXPECT_EQ(before.rows[0][0].AsInteger(), 1);

  // The update moves the extent's write epoch: both caches must refuse the
  // stamped entries before the next statement can observe stale data.
  MOOD_ASSERT_OK(db_.Execute("UPDATE Gauge g SET n = 2").status());
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult after, db_.Query(sql));
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_EQ(after.rows[0][0].AsInteger(), 2);
}

TEST_F(PlanCacheFixture, DmlRowSelectionReusesOnePlanAcrossLiterals) {
  MOOD_ASSERT_OK(db_.Execute("CREATE INDEX veh_id ON Vehicle(id) USING BTREE").status());
  // Statistics newer than the DDL, so no auto-refresh re-plans mid-test.
  MOOD_ASSERT_OK(db_.CollectStatistics("Vehicle"));
  const double miss0 = CounterOf(&db_, "cache.plan.misses");
  const double hit0 = CounterOf(&db_, "cache.plan.hits");
  // Vehicle-class ids are multiples of 3; each statement updates one object.
  for (int id : {0, 3, 6, 9}) {
    MOOD_ASSERT_OK_AND_ASSIGN(
        ExecResult r, db_.Execute("UPDATE Vehicle v SET weight = 1111 WHERE v.id = " +
                                  std::to_string(id)));
    EXPECT_EQ(r.affected, 1u) << id;
  }
  EXPECT_EQ(CounterOf(&db_, "cache.plan.misses"), miss0 + 1);
  EXPECT_EQ(CounterOf(&db_, "cache.plan.hits"), hit0 + 3);
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult heavy,
                            db_.Query("SELECT v FROM Vehicle v WHERE v.weight = 1111"));
  EXPECT_EQ(heavy.rows.size(), 4u);

  // A statistics change re-plans once; so does a literal of another type.
  const double miss1 = CounterOf(&db_, "cache.plan.misses");
  MOOD_ASSERT_OK(db_.Execute("ANALYZE Vehicle").status());
  MOOD_ASSERT_OK(db_.Execute("DELETE FROM Vehicle v WHERE v.id = 0").status());
  MOOD_ASSERT_OK(db_.Execute("DELETE FROM Vehicle v WHERE v.id = 3").status());
  MOOD_ASSERT_OK_AND_ASSIGN(ExecResult none,
                            db_.Execute("DELETE FROM Vehicle v WHERE v.id = 6.5"));
  EXPECT_EQ(none.affected, 0u);
  EXPECT_EQ(CounterOf(&db_, "cache.plan.misses"), miss1 + 2);
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult left,
                            db_.Query("SELECT v FROM Vehicle v WHERE v.weight = 1111"));
  EXPECT_EQ(left.rows.size(), 2u);
}

TEST_F(PlanCacheFixture, FirstPlanAfterDdlIsStampedCurrent) {
  // No Collect after the DDL: the first statement's plan auto-refreshes the
  // statistics while it is optimized, and the plan it caches must be stamped
  // with the refreshed version, so the next three statements hit it.
  MOOD_ASSERT_OK(db_.Execute("CREATE INDEX veh_id ON Vehicle(id) USING BTREE").status());
  const double miss0 = CounterOf(&db_, "cache.plan.misses");
  const double hit0 = CounterOf(&db_, "cache.plan.hits");
  for (int id : {0, 3, 6, 9}) {
    MOOD_ASSERT_OK_AND_ASSIGN(
        ExecResult r, db_.Execute("UPDATE Vehicle v SET weight = 2222 WHERE v.id = " +
                                  std::to_string(id)));
    EXPECT_EQ(r.affected, 1u) << id;
  }
  EXPECT_EQ(CounterOf(&db_, "cache.plan.misses"), miss0 + 1);
  EXPECT_EQ(CounterOf(&db_, "cache.plan.hits"), hit0 + 3);
}

TEST_F(PlanCacheFixture, IndexSelectedUpdateReadsItsObjectOncePerAssignment) {
  MOOD_ASSERT_OK(db_.Execute("CREATE INDEX veh_id ON Vehicle(id) USING BTREE").status());
  MOOD_ASSERT_OK(db_.CollectStatistics("Vehicle"));
  // The first statement plans the row selection (a cost calibration may read
  // a few objects); the statements measured below reuse that plan.
  MOOD_ASSERT_OK(db_.Execute("UPDATE Vehicle v SET weight = 1000 WHERE v.id = 0").status());
  auto reads_of = [&](const std::string& sql) {
    const double before = CounterOf(&db_, "storage.record_reads");
    Result<ExecResult> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    EXPECT_EQ(r.ok() ? r.value().affected : 0u, 1u) << sql;
    return CounterOf(&db_, "storage.record_reads") - before;
  };
  // The index selects the object without reading it; each assignment then
  // reads it once (class and tuple together) and rewrites it.
  EXPECT_EQ(reads_of("UPDATE Vehicle v SET weight = 1001 WHERE v.id = 3"), 1);
  EXPECT_EQ(reads_of("UPDATE Vehicle v SET weight = 1002, id = 6 WHERE v.id = 6"), 2);
}

TEST_F(PlanCacheFixture, ExplainVerboseReportsCachedVsFresh) {
  const std::string sql = "SELECT e FROM VehicleEngine e WHERE e.cylinders > 4";
  ExplainOptions verbose;
  verbose.verbose = true;
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult fresh, db_.Explain(sql, verbose));
  EXPECT_NE(fresh.Render().find("plan: fresh"), std::string::npos);

  MOOD_ASSERT_OK(db_.Query(sql).status());
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult cached, db_.Explain(sql, verbose));
  EXPECT_NE(cached.Render().find("plan: cached"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Prepared-statement API surface
// ---------------------------------------------------------------------------

TEST_F(PlanCacheFixture, PreparedStatementArity) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      PreparedStatement ps,
      db_.Prepare("SELECT e FROM VehicleEngine e WHERE e.cylinders > ? AND e.size > ?"));
  EXPECT_EQ(ps.param_count(), 2u);
  EXPECT_TRUE(ps.valid());
  auto wrong = ps.Execute({MoodValue::Integer(4)});
  EXPECT_FALSE(wrong.ok());
  MOOD_ASSERT_OK(
      ps.Query({MoodValue::Integer(4), MoodValue::Integer(0)}).status());

  // Prepare is SELECT-only; other statements have no plan worth caching.
  EXPECT_FALSE(db_.Prepare("CREATE CLASS Nope TUPLE ( n Integer )").ok());
  // A default-constructed handle is empty, not a crash.
  PreparedStatement empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.Execute().ok());
}

TEST(PlanCacheLifetimeTest, PreparedHandleOutlivingDatabaseIsInert) {
  TempDir dir;
  PreparedStatement ps;
  {
    Database db;
    MOOD_ASSERT_OK(db.Open(dir.Path("mood")));
    MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db));
    MOOD_ASSERT_OK_AND_ASSIGN(ps, db.Prepare("SELECT v FROM Vehicle v"));
    MOOD_ASSERT_OK(ps.Execute().status());
  }
  // The database is gone; the handle watches its liveness flag (TxnHandle
  // pattern) and must fail cleanly instead of dereferencing freed memory.
  EXPECT_TRUE(ps.valid());
  auto r = ps.Execute();
  EXPECT_FALSE(r.ok());
}

TEST_F(PlanCacheFixture, SetDefaultQueryOptionsInheritChain) {
  // Session default: caches off. Per-call unset fields inherit it.
  QueryOptions session;
  session.use_cache = false;
  db_.SetDefaultQueryOptions(session);
  EXPECT_FALSE(db_.Resolve({}).use_cache);
  const std::string sql = "SELECT c FROM Company c";
  const size_t size0 = db_.plan_cache()->size();
  MOOD_ASSERT_OK(db_.Query(sql).status());
  EXPECT_EQ(db_.plan_cache()->size(), size0);

  // A per-call field overrides the session default...
  QueryOptions call;
  call.use_cache = true;
  EXPECT_TRUE(db_.Resolve(call).use_cache);
  MOOD_ASSERT_OK(db_.Query(sql, call).status());
  EXPECT_EQ(db_.plan_cache()->size(), size0 + 1);

  // ...and clearing the session default restores the Open-time behavior.
  db_.SetDefaultQueryOptions(QueryOptions{});
  EXPECT_TRUE(db_.Resolve({}).use_cache);
  ResolvedQueryOptions r = db_.Resolve({});
  EXPECT_EQ(r.batch_size, ExecOptions::kInheritBatch);
}

// ---------------------------------------------------------------------------
// Staleness-never: randomized differential vs the uncached oracle
// ---------------------------------------------------------------------------

/// Interleaves queries and writes in a deterministic random order, diffing a
/// cache-enabled database against `use_cache = false` on the same database
/// after every step. Any stale plan or result surfaces as a rendering diff.
TEST_F(PlanCacheFixture, RandomizedDifferentialVsUncached) {
  OpenWith(/*plan_entries=*/4, /*result_bytes=*/256 * 1024);
  const std::vector<std::string> pool = {
      "SELECT v FROM Vehicle v WHERE v.weight > 3000",
      "SELECT e FROM VehicleEngine e WHERE e.cylinders > 4",
      "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2",
      "SELECT c FROM Company c WHERE c.name = 'BMW'",
      "SELECT v FROM Vehicle v WHERE v.company.name = 'BMW'",
      paperdb::kExample82Query,
  };
  QueryOptions oracle_opts;
  oracle_opts.use_cache = false;
  Lcg rng(7);
  for (int step = 0; step < 120; step++) {
    const uint64_t roll = rng.Next() % 10;
    if (roll < 2) {
      // Mutate an extent the cached plans touch.
      const int cap = 2000 + static_cast<int>(rng.Next() % 4000);
      MOOD_ASSERT_OK(db_.Execute(
          "UPDATE Vehicle v SET weight = " + std::to_string(cap) +
          " WHERE v.weight > " + std::to_string(cap)).status());
    } else if (roll == 2) {
      // DDL churn: epoch bump without touching the queried extents.
      MOOD_ASSERT_OK(db_.Execute("CREATE CLASS Churn" + std::to_string(step) +
                                 " TUPLE ( n Integer )").status());
    }
    const std::string& sql = pool[rng.Next() % pool.size()];
    MOOD_ASSERT_OK_AND_ASSIGN(QueryResult cached, db_.Query(sql));
    MOOD_ASSERT_OK_AND_ASSIGN(QueryResult oracle, db_.Query(sql, oracle_opts));
    ASSERT_EQ(cached.ToString(), oracle.ToString())
        << "stale cache at step " << step << " for: " << sql;
    // use_cache=false shares the executor with the cached path; the naive
    // evaluator shares no plan or operator with either.
    ExpectNaiveMatch(&db_, sql);
  }
  // The workload must actually have exercised the caches.
  EXPECT_GT(CounterOf(&db_, "cache.plan.hits"), 0);
  EXPECT_GT(CounterOf(&db_, "cache.result.hits"), 0);
}

// ---------------------------------------------------------------------------
// Concurrent writer racing cached readers
// ---------------------------------------------------------------------------

/// One writer advances a counter object 1,2,3,...; reader threads run the same
/// cached/prepared query in a loop. Staleness-never means each reader's
/// observed sequence is non-decreasing: a cached result older than something
/// the reader already saw would be a served-stale bug.
TEST(PlanCacheConcurrencyTest, WriterRacingCachedReaders) {
  for (size_t threads : TestThreadCounts()) {
    TempDir dir;
    Database db;
    DatabaseOptions opts;
    opts.exec_threads = 1;  // intra-query parallelism off; the race is inter-query
    MOOD_ASSERT_OK(db.Open(dir.Path("mood"), opts));
    MOOD_ASSERT_OK(db.Execute("CREATE CLASS Tick TUPLE ( n Integer )").status());
    MOOD_ASSERT_OK(db.Execute("NEW Tick <0>").status());

    constexpr int kWrites = 60;
    const size_t readers = threads > 1 ? threads - 1 : 1;
    std::atomic<int> stale{0};
    std::atomic<int> errors{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> pool;
    for (size_t t = 0; t < readers; t++) {
      pool.emplace_back([&] {
        auto ps = db.Prepare("SELECT t.n FROM Tick t");
        if (!ps.ok()) {
          errors.fetch_add(1);
          return;
        }
        int last = 0;
        while (!done.load(std::memory_order_acquire)) {
          auto r = ps.value().Query();
          if (!r.ok() || r.value().rows.size() != 1) {
            errors.fetch_add(1);
            continue;
          }
          const int n = r.value().rows[0][0].AsInteger();
          if (n < last) stale.fetch_add(1);
          last = n;
        }
      });
    }
    for (int i = 1; i <= kWrites; i++) {
      auto w = db.Execute("UPDATE Tick t SET n = " + std::to_string(i));
      if (!w.ok()) errors.fetch_add(1);
    }
    done.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();

    EXPECT_EQ(stale.load(), 0) << "a reader observed a stale cached result @"
                               << threads << " threads";
    EXPECT_EQ(errors.load(), 0) << "@" << threads << " threads";
    MOOD_ASSERT_OK(db.Close());
  }
}

}  // namespace
}  // namespace mood
