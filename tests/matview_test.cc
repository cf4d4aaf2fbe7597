#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "core/paper_example.h"
#include "core/session.h"
#include "exec/plan_cache.h"
#include "mv/matview.h"
#include "obs/metrics.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::ExpectNaiveMatch;
using testing::TempDir;

/// Deterministic PRNG for the randomized differential (no global rand state).
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }
};

double CounterOf(Database* db, const std::string& name) {
  return db->metrics()->Snapshot().ValueOf(name, -1);
}

/// The uncached oracle: same statement, use_cache=false, so the MV rewrite,
/// the plan cache and the result cache are all bypassed.
Result<QueryResult> Oracle(Database* db, const std::string& sql) {
  QueryOptions o;
  o.use_cache = false;
  return db->Query(sql, o);
}

class MatViewFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.exec_threads = 1;
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood" + std::to_string(opens_++)), opts));
    MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
    MOOD_ASSERT_OK_AND_ASSIGN(report_, paperdb::PopulatePaperData(&db_, 48));
    MOOD_ASSERT_OK(db_.CollectAllStatistics());
    CollectOids();
  }

  void CollectOids() {
    drivetrains_.clear();
    companies_.clear();
    MOOD_ASSERT_OK(db_.objects()->ScanExtent(
        "VehicleDriveTrain", false, {}, [&](Oid oid, const MoodValue&) {
          drivetrains_.push_back(oid);
          return Status::OK();
        }));
    MOOD_ASSERT_OK(db_.objects()->ScanExtent(
        "Company", false, {}, [&](Oid oid, const MoodValue&) {
          companies_.push_back(oid);
          return Status::OK();
        }));
  }

  /// Inserts one vehicle-family object with valid references.
  void InsertVehicle(Lcg* rng, int32_t id) {
    static const char* kClasses[] = {"Vehicle", "Automobile", "JapaneseAuto"};
    MoodValue tuple = MoodValue::Tuple(
        {MoodValue::Integer(id),
         MoodValue::Integer(static_cast<int32_t>(800 + rng->Uniform(2000))),
         MoodValue::Reference(drivetrains_[rng->Uniform(drivetrains_.size())]),
         MoodValue::Reference(companies_[rng->Uniform(companies_.size())])});
    MOOD_ASSERT_OK(
        db_.objects()->CreateObject(kClasses[rng->Uniform(3)], std::move(tuple))
            .status());
  }

  /// Asserts every registered view's query answers byte-identically to the
  /// uncached oracle.
  void ExpectParity(const std::vector<std::string>& queries) {
    for (const std::string& sql : queries) {
      MOOD_ASSERT_OK_AND_ASSIGN(QueryResult served, db_.Query(sql));
      MOOD_ASSERT_OK_AND_ASSIGN(QueryResult oracle, Oracle(&db_, sql));
      ASSERT_EQ(served.ToString(), oracle.ToString()) << "divergence on: " << sql;
    }
  }

  TempDir dir_;
  Database db_;
  paperdb::PopulateReport report_;
  std::vector<Oid> drivetrains_;
  std::vector<Oid> companies_;
  int opens_ = 0;
};

// ---------------------------------------------------------------------------
// Basics: create, serve, explain, drop
// ---------------------------------------------------------------------------

TEST_F(MatViewFixture, CreateServesNormalizedMatches) {
  const std::string sql =
      "SELECT v, v.weight FROM Vehicle v WHERE v.drivetrain.engine.cylinders > 4";
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult before, Oracle(&db_, sql));
  MOOD_ASSERT_OK(db_.Execute("CREATE MATERIALIZED VIEW heavy AS " + sql).status());
  EXPECT_EQ(db_.matviews()->view_count(), 1u);

  const double hits0 = CounterOf(&db_, "mv.hits");
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult served, db_.Query(sql));
  EXPECT_EQ(CounterOf(&db_, "mv.hits"), hits0 + 1);
  EXPECT_EQ(served.ToString(), before.ToString());

  // Normalization-equivalent spellings hit the same view.
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult respelled,
      db_.Query("select   v, v.weight from Vehicle v "
                "where v.drivetrain.engine.cylinders > 4 ;"));
  EXPECT_EQ(CounterOf(&db_, "mv.hits"), hits0 + 2);
  EXPECT_EQ(respelled.ToString(), before.ToString());

  // The rewrite is visible in EXPLAIN VERBOSE.
  ExplainOptions eo;
  eo.verbose = true;
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult ex, db_.Explain(sql, eo));
  EXPECT_NE(ex.Render().find("mv: rewritten"), std::string::npos);

  // A different query is untouched.
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult other,
                            db_.Explain("SELECT v FROM Vehicle v", eo));
  EXPECT_EQ(other.Render().find("mv: rewritten"), std::string::npos);

  // DROP stops the rewrite; the query still answers (normal execution).
  MOOD_ASSERT_OK(db_.Execute("DROP MATERIALIZED VIEW heavy").status());
  EXPECT_EQ(db_.matviews()->view_count(), 0u);
  const double hits1 = CounterOf(&db_, "mv.hits");
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult after, db_.Query(sql));
  EXPECT_EQ(CounterOf(&db_, "mv.hits"), hits1);
  EXPECT_EQ(after.ToString(), before.ToString());
}

TEST_F(MatViewFixture, CreateValidation) {
  // Duplicate names: against other views and against classes.
  MOOD_ASSERT_OK(
      db_.Execute("CREATE MATERIALIZED VIEW mv1 AS SELECT v FROM Vehicle v")
          .status());
  EXPECT_EQ(db_.Execute("CREATE MATERIALIZED VIEW mv1 AS SELECT c FROM Company c")
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db_.Execute(
                   "CREATE MATERIALIZED VIEW Vehicle AS SELECT c FROM Company c")
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  // A second view over the same normalized statement would make the rewrite
  // ambiguous.
  EXPECT_EQ(db_.Execute("CREATE MATERIALIZED VIEW mv2 AS SELECT v FROM Vehicle v")
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  // Methods in the definition are rejected outright (dependency tracking
  // cannot see what a method body reads).
  EXPECT_EQ(db_.Execute("CREATE MATERIALIZED VIEW mvm AS "
                        "SELECT v.lbweight() FROM Vehicle v")
                .status()
                .code(),
            StatusCode::kNotSupported);
  // The failed creates must not leave catalog residue.
  EXPECT_EQ(db_.catalog()->AllViews().size(), 1u);
  EXPECT_EQ(db_.Execute("DROP MATERIALIZED VIEW nosuch").status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Delta maintenance
// ---------------------------------------------------------------------------

TEST_F(MatViewFixture, RootWritesMaintainWithoutFullRefresh) {
  const std::string sql =
      "SELECT v, v.weight, v.company.name FROM Vehicle v WHERE v.weight > 1000";
  MOOD_ASSERT_OK(db_.Execute("CREATE MATERIALIZED VIEW hv AS " + sql).status());
  ASSERT_TRUE(db_.matviews()->Views()[0].delta_maintainable)
      << db_.matviews()->Views()[0].refusal;
  MOOD_ASSERT_OK(db_.Query(sql).status());  // initial serve

  const double full0 = CounterOf(&db_, "mv.full_refreshes");
  const double maint0 = CounterOf(&db_, "mv.maintenance_rows");
  Lcg rng(7);

  // INSERT: new roots appear in the view.
  InsertVehicle(&rng, 9001);
  ExpectParity({sql});
  // UPDATE: rows move in and out of the predicate.
  MOOD_ASSERT_OK(
      db_.Execute("UPDATE Vehicle v SET weight = 100 WHERE v.weight > 2400")
          .status());
  MOOD_ASSERT_OK(
      db_.Execute("UPDATE Vehicle v SET weight = 2000 WHERE v.weight < 900")
          .status());
  ExpectParity({sql});
  // DELETE: rows disappear.
  MOOD_ASSERT_OK(db_.Execute("DELETE FROM Vehicle v WHERE v.id = 9001").status());
  ExpectParity({sql});

  // All of the above was per-object delta maintenance on root writes.
  EXPECT_EQ(CounterOf(&db_, "mv.full_refreshes"), full0);
  EXPECT_GT(CounterOf(&db_, "mv.maintenance_rows"), maint0);
}

TEST_F(MatViewFixture, HopWritesForceFullRefresh) {
  // The view's path hops through VehicleDriveTrain and VehicleEngine; a write
  // there cannot be localized to specific roots.
  const std::string sql =
      "SELECT v, v.drivetrain.engine.cylinders FROM Vehicle v "
      "WHERE v.drivetrain.engine.cylinders > 4";
  MOOD_ASSERT_OK(db_.Execute("CREATE MATERIALIZED VIEW pj AS " + sql).status());
  MOOD_ASSERT_OK(db_.Query(sql).status());

  const double full0 = CounterOf(&db_, "mv.full_refreshes");
  MOOD_ASSERT_OK(
      db_.Execute("UPDATE VehicleEngine e SET cylinders = 6 WHERE e.cylinders = 2")
          .status());
  ExpectParity({sql});
  EXPECT_EQ(CounterOf(&db_, "mv.full_refreshes"), full0 + 1);
}

TEST_F(MatViewFixture, NonMaintainableShapesFallBackFlagged) {
  // ORDER BY / DISTINCT / GROUP BY reorder or merge rows across roots: the
  // refusal matrix downgrades them to full refresh, never wrong answers.
  const std::vector<std::string> shapes = {
      "SELECT e.cylinders FROM VehicleEngine e ORDER BY e.cylinders",
      "SELECT DISTINCT e.cylinders FROM VehicleEngine e",
      "SELECT e.cylinders FROM VehicleEngine e GROUP BY e.cylinders "
      "HAVING e.cylinders > 2",
  };
  int i = 0;
  for (const std::string& sql : shapes) {
    MOOD_ASSERT_OK(db_.Execute("CREATE MATERIALIZED VIEW shape" +
                               std::to_string(i++) + " AS " + sql)
                       .status());
  }
  for (const auto& info : db_.matviews()->Views()) {
    EXPECT_FALSE(info.delta_maintainable) << info.name;
    EXPECT_FALSE(info.refusal.empty()) << info.name;
  }
  ExpectParity(shapes);
  const double full0 = CounterOf(&db_, "mv.full_refreshes");
  MOOD_ASSERT_OK(
      db_.Execute("UPDATE VehicleEngine e SET cylinders = 8 WHERE e.cylinders = 4")
          .status());
  ExpectParity(shapes);
  EXPECT_EQ(CounterOf(&db_, "mv.full_refreshes"), full0 + 3);
}

TEST_F(MatViewFixture, EveryScanWithExcludeIsMaintainable) {
  const std::string sql =
      "SELECT c, c.weight FROM EVERY Automobile - JapaneseAuto c "
      "WHERE c.weight > 900";
  MOOD_ASSERT_OK(db_.Execute("CREATE MATERIALIZED VIEW autos AS " + sql).status());
  ASSERT_TRUE(db_.matviews()->Views()[0].delta_maintainable)
      << db_.matviews()->Views()[0].refusal;
  ExpectParity({sql});
  MOOD_ASSERT_OK(
      db_.Execute("UPDATE Automobile a SET weight = 950 WHERE a.weight < 900")
          .status());
  ExpectParity({sql});
}

// ---------------------------------------------------------------------------
// DDL, transactions, snapshots, persistence
// ---------------------------------------------------------------------------

TEST_F(MatViewFixture, SchemaEpochBumpTriggersRebuildNotStaleRows) {
  const std::string sql = "SELECT v, v.weight FROM Vehicle v WHERE v.weight > 1000";
  MOOD_ASSERT_OK(db_.Execute("CREATE MATERIALIZED VIEW hv AS " + sql).status());
  MOOD_ASSERT_OK(db_.Query(sql).status());
  const double rebuilds0 = CounterOf(&db_, "mv.rebuilds");
  // Any DDL moves the schema epoch; the next serve re-binds and rebuilds.
  MOOD_ASSERT_OK(
      db_.Execute("CREATE CLASS Scratch TUPLE ( x Integer )").status());
  ExpectParity({sql});
  EXPECT_EQ(CounterOf(&db_, "mv.rebuilds"), rebuilds0 + 1);
}

TEST_F(MatViewFixture, DroppedBaseClassNeverServesStale) {
  MOOD_ASSERT_OK(db_.Execute("CREATE CLASS Standalone TUPLE ( x Integer )").status());
  MOOD_ASSERT_OK(db_.Execute("NEW Standalone <1>").status());
  const std::string sql = "SELECT s.x FROM Standalone s";
  MOOD_ASSERT_OK(db_.Execute("CREATE MATERIALIZED VIEW sv AS " + sql).status());
  MOOD_ASSERT_OK(db_.Query(sql).status());
  MOOD_ASSERT_OK(db_.Execute("DROP CLASS Standalone").status());
  // The view must not answer from its (stale) materialization: the query now
  // fails exactly like normal execution against a missing class.
  EXPECT_FALSE(db_.Query(sql).ok());
}

TEST_F(MatViewFixture, TransactionsSeeOwnWritesAndAbortLeavesNoTrace) {
  const std::string sql = "SELECT v, v.weight FROM Vehicle v WHERE v.weight > 1000";
  MOOD_ASSERT_OK(db_.Execute("CREATE MATERIALIZED VIEW hv AS " + sql).status());
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult before, db_.Query(sql));

  {
    // Inside a write transaction the MV path is bypassed (the txn must see its
    // own uncommitted writes).
    MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn, db_.Begin());
    MOOD_ASSERT_OK(db_.Execute("UPDATE Vehicle v SET weight = 5000").status());
    MOOD_ASSERT_OK_AND_ASSIGN(QueryResult inside, db_.Query(sql));
    MOOD_ASSERT_OK_AND_ASSIGN(QueryResult inside_oracle, Oracle(&db_, sql));
    EXPECT_EQ(inside.ToString(), inside_oracle.ToString());
    MOOD_ASSERT_OK(txn.Abort());
  }
  // After the abort the committed state is unchanged, and the view must agree.
  ExpectParity({sql});
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult after, db_.Query(sql));
  EXPECT_EQ(after.ToString(), before.ToString());

  {
    MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn, db_.Begin());
    MOOD_ASSERT_OK(
        db_.Execute("UPDATE Vehicle v SET weight = 1500 WHERE v.weight < 1000")
            .status());
    MOOD_ASSERT_OK(txn.Commit());
  }
  ExpectParity({sql});
}

TEST_F(MatViewFixture, PinnedSnapshotSessionsNeverSeeNewerViewState) {
  const std::string sql = "SELECT v, v.weight FROM Vehicle v WHERE v.weight > 1000";
  MOOD_ASSERT_OK(db_.Execute("CREATE MATERIALIZED VIEW hv AS " + sql).status());
  MOOD_ASSERT_OK(db_.Query(sql).status());

  auto reader = db_.CreateSession();
  MOOD_ASSERT_OK(reader->BeginSnapshot());
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult pinned_before, reader->Query(sql));

  // A commit after the pin: the pinned session must keep answering at its pin
  // (the view, now newer, must decline), while fresh statements see the write.
  MOOD_ASSERT_OK(db_.Execute("UPDATE Vehicle v SET weight = 5000").status());
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult pinned_after, reader->Query(sql));
  EXPECT_EQ(pinned_after.ToString(), pinned_before.ToString());
  MOOD_ASSERT_OK(reader->EndSnapshot());
  ExpectParity({sql});
}

/// The pending-at-pin rule, case by case: a reader may use a view serve or a
/// result-cache entry only for extents that had no uncommitted writes when it
/// pinned. Each case runs an MV-rewritten statement and a separate
/// result-cacheable statement twice on the reader, diffs every answer against
/// the reader's own use_cache=false run, and checks which counters moved.
TEST(PendingAtPinTest, ViewAndResultCacheFollowPinTimePendingBits) {
  struct Case {
    const char* name;
    bool writer_pending;    // another session's UPDATE is uncommitted...
    bool pin;               // ...when the reader (optionally) pins
    bool commit_after_pin;  // the writer then commits
    double mv_hits;         // expected mv.hits over the reader's reads
    double result_hits;     // expected cache.result.hits over the same
  };
  const Case cases[] = {
      {"pending, unpinned reader", true, false, false, 0, 0},
      {"pinned while pending, writer commits", true, true, true, 0, 0},
      {"pinned with nothing pending", false, true, false, 2, 1},
  };
  const std::string mv_sql = "SELECT a, a.val FROM Acc a WHERE a.val >= 0";
  const std::string rc_sql = "SELECT a.val FROM Acc a";
  QueryOptions uncached;
  uncached.use_cache = false;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TempDir dir;
    Database db;
    MOOD_ASSERT_OK(db.Open(dir.Path("mood")));
    MOOD_ASSERT_OK(db.Execute("CREATE CLASS Acc TUPLE (id Integer, val Integer)").status());
    for (int i = 0; i < 8; i++) {
      MOOD_ASSERT_OK(db.Execute("NEW Acc <" + std::to_string(i) + ", 0>").status());
    }
    MOOD_ASSERT_OK(db.Execute("CREATE MATERIALIZED VIEW accs AS " + mv_sql).status());

    std::unique_ptr<Session> writer = db.CreateSession();
    TxnHandle txn;
    if (c.writer_pending) {
      MOOD_ASSERT_OK_AND_ASSIGN(txn, writer->Begin());
      MOOD_ASSERT_OK(writer->Execute("UPDATE Acc a SET val = 7").status());
    }
    std::unique_ptr<Session> reader = db.CreateSession();
    if (c.pin) MOOD_ASSERT_OK(reader->BeginSnapshot());
    if (c.commit_after_pin) MOOD_ASSERT_OK(txn.Commit());

    const double mv0 = CounterOf(&db, "mv.hits");
    const double rc0 = CounterOf(&db, "cache.result.hits");
    for (int rep = 0; rep < 2; rep++) {
      for (const std::string& sql : {mv_sql, rc_sql}) {
        MOOD_ASSERT_OK_AND_ASSIGN(QueryResult got, reader->Query(sql));
        MOOD_ASSERT_OK_AND_ASSIGN(QueryResult want, reader->Query(sql, uncached));
        EXPECT_EQ(got.ToString(), want.ToString()) << sql << " rep " << rep;
      }
      // Every case reads the pre-image: the write is uncommitted, committed
      // after the pin, or absent.
      MOOD_ASSERT_OK_AND_ASSIGN(QueryResult vals, reader->Query(rc_sql, uncached));
      ASSERT_EQ(vals.rows.size(), 8u);
      for (const auto& row : vals.rows) EXPECT_EQ(row[0].AsInteger(), 0);
    }
    EXPECT_EQ(CounterOf(&db, "mv.hits") - mv0, c.mv_hits);
    EXPECT_EQ(CounterOf(&db, "cache.result.hits") - rc0, c.result_hits);

    if (c.pin) MOOD_ASSERT_OK(reader->EndSnapshot());
    if (c.commit_after_pin) {
      // A fresh session sees the commit, through the caches and without them.
      std::unique_ptr<Session> fresh = db.CreateSession();
      for (const std::string& sql : {mv_sql, rc_sql}) {
        MOOD_ASSERT_OK_AND_ASSIGN(QueryResult got, fresh->Query(sql));
        MOOD_ASSERT_OK_AND_ASSIGN(QueryResult want, fresh->Query(sql, uncached));
        EXPECT_EQ(got.ToString(), want.ToString()) << sql;
      }
      MOOD_ASSERT_OK_AND_ASSIGN(QueryResult vals, fresh->Query(rc_sql));
      ASSERT_EQ(vals.rows.size(), 8u);
      for (const auto& row : vals.rows) EXPECT_EQ(row[0].AsInteger(), 7);
    } else if (c.writer_pending) {
      MOOD_ASSERT_OK(txn.Abort());
    }
  }
}

TEST_F(MatViewFixture, ViewsPersistAcrossReopen) {
  const std::string sql = "SELECT v, v.weight FROM Vehicle v WHERE v.weight > 1000";
  MOOD_ASSERT_OK(db_.Execute("CREATE MATERIALIZED VIEW hv AS " + sql).status());
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult before, db_.Query(sql));
  const std::string path = dir_.Path("mood0");
  MOOD_ASSERT_OK(db_.Close());

  MOOD_ASSERT_OK(db_.Open(path, DatabaseOptions{}));
  ASSERT_EQ(db_.matviews()->view_count(), 1u);
  // First serve after reopen rematerializes (a rebuild, not a full refresh).
  const double hits0 = CounterOf(&db_, "mv.hits");
  const double full0 = CounterOf(&db_, "mv.full_refreshes");
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult served, db_.Query(sql));
  EXPECT_EQ(CounterOf(&db_, "mv.hits"), hits0 + 1);
  EXPECT_EQ(CounterOf(&db_, "mv.full_refreshes"), full0);
  EXPECT_EQ(served.ToString(), before.ToString());
  ExpectParity({sql});
}

// ---------------------------------------------------------------------------
// Randomized differential: MV-served results byte-identical to base execution
// under interleaved INSERT / UPDATE / DELETE / DDL
// ---------------------------------------------------------------------------

TEST_F(MatViewFixture, RandomizedDifferentialZeroDivergence) {
  const std::vector<std::string> queries = {
      // Delta-maintainable: root filter with a reference projection.
      "SELECT v, v.weight, v.company.name FROM Vehicle v WHERE v.weight > 1200",
      // Delta-maintainable: 2-hop path join over the EVERY hierarchy.
      "SELECT c, c.drivetrain.engine.cylinders FROM EVERY Vehicle c "
      "WHERE c.drivetrain.engine.cylinders > 4",
      // Full-refresh fallback: grouping across roots.
      "SELECT e.cylinders FROM VehicleEngine e GROUP BY e.cylinders",
  };
  int i = 0;
  for (const std::string& sql : queries) {
    MOOD_ASSERT_OK(db_.Execute("CREATE MATERIALIZED VIEW rv" +
                               std::to_string(i++) + " AS " + sql)
                       .status());
  }

  Lcg rng(20260809);
  int32_t next_id = 10000;
  int scratch = 0;
  for (int round = 0; round < 40; round++) {
    switch (rng.Uniform(6)) {
      case 0:
        InsertVehicle(&rng, next_id++);
        break;
      case 1:
        MOOD_ASSERT_OK(
            db_.Execute("UPDATE Vehicle v SET weight = " +
                        std::to_string(800 + rng.Uniform(2000)) +
                        " WHERE v.id = " + std::to_string(rng.Uniform(48)))
                .status());
        break;
      case 2:
        MOOD_ASSERT_OK(db_.Execute("DELETE FROM Vehicle v WHERE v.id = " +
                                   std::to_string(rng.Uniform(48)))
                           .status());
        break;
      case 3:
        // Hop write: engines feed both path views.
        MOOD_ASSERT_OK(
            db_.Execute("UPDATE VehicleEngine e SET cylinders = " +
                        std::to_string(2 + 2 * rng.Uniform(16)) +
                        " WHERE e.cylinders = " +
                        std::to_string(2 + 2 * rng.Uniform(16)))
                .status());
        break;
      case 4: {
        // DDL: schema epoch moves; dependents must refresh, never serve stale.
        MOOD_ASSERT_OK(db_.Execute("CREATE CLASS Scratch" +
                                   std::to_string(scratch++) +
                                   " TUPLE ( x Integer )")
                           .status());
        break;
      }
      case 5: {
        // A transaction that sometimes aborts: aborted writes must leave no
        // trace in any view.
        MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn, db_.Begin());
        MOOD_ASSERT_OK(
            db_.Execute("UPDATE Vehicle v SET weight = v.weight + 1 "
                        "WHERE v.weight > 1500")
                .status());
        if (rng.Uniform(2) == 0) {
          MOOD_ASSERT_OK(txn.Commit());
        } else {
          MOOD_ASSERT_OK(txn.Abort());
        }
        break;
      }
    }
    ExpectParity(queries);
    // The uncached oracle shares the executor with the served path; the naive
    // evaluator shares no plan or operator with either.
    for (const std::string& sql : queries) ExpectNaiveMatch(&db_, sql);
  }
  // The rewrite must actually have served (this test is vacuous otherwise).
  EXPECT_GT(CounterOf(&db_, "mv.hits"), 0);
  EXPECT_GT(CounterOf(&db_, "mv.maintenance_rows"), 0);
}

}  // namespace
}  // namespace mood
