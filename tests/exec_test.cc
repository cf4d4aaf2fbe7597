#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/database.h"
#include "core/paper_example.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::NaiveEnv;
using testing::NaiveEval;
using testing::NaiveEvalPredicate;
using testing::TempDir;

/// End-to-end MOODSQL execution over a populated paper database.
class ExecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood")));
    MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
    MOOD_ASSERT_OK_AND_ASSIGN(report_, paperdb::PopulatePaperData(&db_, 120));
    MOOD_ASSERT_OK(db_.CollectAllStatistics());
  }

  size_t Count(const std::string& sql) {
    auto r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? r.value().rows.size() : 0;
  }

  TempDir dir_;
  Database db_;
  paperdb::PopulateReport report_;
};

TEST_F(ExecFixture, ScanWholeExtent) {
  // Only plain Vehicles (their own extent).
  uint64_t plain = report_.vehicles - report_.automobiles - report_.japanese_autos;
  EXPECT_EQ(Count("SELECT v FROM Vehicle v"), plain);
}

TEST_F(ExecFixture, EveryIncludesSubclassesMinusExcludes) {
  EXPECT_EQ(Count("SELECT v FROM EVERY Vehicle v"), report_.vehicles);
  EXPECT_EQ(Count("SELECT v FROM EVERY Vehicle - JapaneseAuto v"),
            report_.vehicles - report_.japanese_autos);
  EXPECT_EQ(Count("SELECT v FROM EVERY Automobile - JapaneseAuto v"),
            report_.automobiles);
}

TEST_F(ExecFixture, ImmediateSelection) {
  // Verify against a manual count.
  size_t expected = 0;
  MOOD_ASSERT_OK(db_.objects()->ScanExtent(
      "VehicleEngine", false, {}, [&](Oid, const MoodValue& t) {
        if (t.elements()[1].AsInteger() == 4) expected++;
        return Status::OK();
      }));
  EXPECT_EQ(Count("SELECT e FROM VehicleEngine e WHERE e.cylinders = 4"), expected);
}

TEST_F(ExecFixture, PathPredicateThroughTwoHops) {
  // Count vehicles (all classes) whose engine has exactly 4 cylinders, manually.
  size_t expected = 0;
  MOOD_ASSERT_OK(db_.objects()->ScanExtent(
      "Vehicle", true, {}, [&](Oid oid, const MoodValue&) {
        return db_.objects()->TraversePath(oid, {"drivetrain", "engine", "cylinders"},
                                           [&](const MoodValue& v) {
                                             if (v.AsInteger() == 4) expected++;
                                             return Status::OK();
                                           });
      }));
  EXPECT_EQ(Count("SELECT v FROM EVERY Vehicle v WHERE "
                  "v.drivetrain.engine.cylinders = 4"),
            expected);
}

TEST_F(ExecFixture, Example81QueryExecutes) {
  // Exactly the paper's Example 8.1 query; company 0 is 'BMW'.
  size_t expected = 0;
  MOOD_ASSERT_OK(db_.objects()->ScanExtent(
      "Vehicle", false, {}, [&](Oid oid, const MoodValue&) -> Status {
        bool bmw = false, cyl2 = false;
        MOOD_RETURN_IF_ERROR(db_.objects()->TraversePath(
            oid, {"company", "name"}, [&](const MoodValue& v) {
              if (v.AsString() == "BMW") bmw = true;
              return Status::OK();
            }));
        MOOD_RETURN_IF_ERROR(db_.objects()->TraversePath(
            oid, {"drivetrain", "engine", "cylinders"}, [&](const MoodValue& v) {
              if (v.AsInteger() == 2) cyl2 = true;
              return Status::OK();
            }));
        if (bmw && cyl2) expected++;
        return Status::OK();
      }));
  EXPECT_EQ(Count(paperdb::kExample81Query), expected);
}

TEST_F(ExecFixture, Section31QueryShape) {
  // The Section 3.1 query: automobiles (minus JapaneseAuto) with automatic
  // transmission and > 4 cylinders, joined explicitly with VehicleEngine.
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult qr, db_.Query(paperdb::kSection31Query));
  // Validate every returned automobile satisfies the predicate.
  for (const auto& row : qr.rows) {
    ASSERT_EQ(row.size(), 1u);
    Oid oid = row[0].AsReference();
    MOOD_ASSERT_OK_AND_ASSIGN(std::string cls, db_.objects()->ClassOf(oid));
    EXPECT_EQ(cls, "Automobile");
    MOOD_ASSERT_OK_AND_ASSIGN(MoodValue dt, db_.objects()->GetAttribute(oid, "drivetrain"));
    MOOD_ASSERT_OK_AND_ASSIGN(MoodValue trans,
                              db_.objects()->GetAttribute(dt.AsReference(), "transmission"));
    EXPECT_EQ(trans.AsString(), "AUTOMATIC");
  }
}

TEST_F(ExecFixture, DisjunctionUnionsWithoutDuplicates) {
  size_t eq2 = Count("SELECT e FROM VehicleEngine e WHERE e.cylinders = 2");
  size_t eq4 = Count("SELECT e FROM VehicleEngine e WHERE e.cylinders = 4");
  size_t either =
      Count("SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 OR e.cylinders = 4");
  EXPECT_EQ(either, eq2 + eq4);
  // Overlapping terms must not double-count.
  size_t overlap = Count(
      "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 OR e.size >= 0");
  EXPECT_EQ(overlap, report_.engines);
}

TEST_F(ExecFixture, NotAndComparisonNegation) {
  size_t le8 = Count("SELECT e FROM VehicleEngine e WHERE e.cylinders <= 8");
  size_t not_gt8 = Count("SELECT e FROM VehicleEngine e WHERE NOT e.cylinders > 8");
  EXPECT_EQ(le8, not_gt8);
}

TEST_F(ExecFixture, ProjectionOfPathsAndArithmetic) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult qr,
      db_.Query("SELECT e.cylinders, e.cylinders * 2 + 1 FROM VehicleEngine e"));
  ASSERT_EQ(qr.columns.size(), 2u);
  ASSERT_EQ(qr.rows.size(), report_.engines);
  for (const auto& row : qr.rows) {
    EXPECT_EQ(row[1].AsInteger(), row[0].AsInteger() * 2 + 1);
  }
}

TEST_F(ExecFixture, MethodInvocationInQuery) {
  // lbweight() has an interpretable body `return weight * 2.2075;`.
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult qr, db_.Query("SELECT v.weight, v.lbweight() FROM Vehicle v"));
  ASSERT_GT(qr.rows.size(), 0u);
  for (const auto& row : qr.rows) {
    int32_t w = row[0].AsInteger();
    EXPECT_EQ(row[1].AsInteger(), static_cast<int32_t>(w * 2.2075));
  }
  // A registered compiled body overrides interpretation.
  MoodsFunction decl;
  decl.name = "lbweight";
  decl.return_type = TypeDesc::Basic(BasicType::kInteger);
  MOOD_ASSERT_OK(db_.functions()->Register(
      "Vehicle", decl,
      [](const MethodContext&, const std::vector<MoodValue>&) {
        return Result<MoodValue>(MoodValue::Integer(-1));
      }));
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult qr2,
                            db_.Query("SELECT v.lbweight() FROM Vehicle v"));
  ASSERT_GT(qr2.rows.size(), 0u);
  // Row order is the scan order, which the override does not change — every
  // row must see the compiled body, not just whichever happens to come first.
  for (const auto& row : qr2.rows) EXPECT_EQ(row[0].AsInteger(), -1);
}

TEST_F(ExecFixture, OrderByAscDesc) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult asc,
      db_.Query("SELECT e.size FROM VehicleEngine e ORDER BY e.size"));
  for (size_t i = 1; i < asc.rows.size(); i++) {
    EXPECT_LE(asc.rows[i - 1][0].AsInteger(), asc.rows[i][0].AsInteger());
  }
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult desc,
      db_.Query("SELECT e.size FROM VehicleEngine e ORDER BY e.size DESC"));
  for (size_t i = 1; i < desc.rows.size(); i++) {
    EXPECT_GE(desc.rows[i - 1][0].AsInteger(), desc.rows[i][0].AsInteger());
  }
}

TEST_F(ExecFixture, GroupByHavingDistinct) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult grouped,
      db_.Query("SELECT e.cylinders FROM VehicleEngine e GROUP BY e.cylinders"));
  std::set<int32_t> distinct_groups;
  for (const auto& row : grouped.rows) distinct_groups.insert(row[0].AsInteger());
  EXPECT_EQ(distinct_groups.size(), grouped.rows.size());

  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult having,
      db_.Query("SELECT e.cylinders FROM VehicleEngine e GROUP BY e.cylinders "
                "HAVING e.cylinders > 8"));
  for (const auto& row : having.rows) EXPECT_GT(row[0].AsInteger(), 8);

  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult dist,
      db_.Query("SELECT DISTINCT e.cylinders FROM VehicleEngine e"));
  EXPECT_EQ(dist.rows.size(), distinct_groups.size());
}

TEST_F(ExecFixture, IndexAndScanAgree) {
  size_t before = Count("SELECT e FROM VehicleEngine e WHERE e.cylinders = 6");
  MOOD_ASSERT_OK(
      db_.Execute("CREATE INDEX eng_cyl ON VehicleEngine(cylinders) USING BTREE")
          .status());
  MOOD_ASSERT_OK(db_.CollectStatistics("VehicleEngine"));
  size_t after = Count("SELECT e FROM VehicleEngine e WHERE e.cylinders = 6");
  EXPECT_EQ(before, after);
}

TEST_F(ExecFixture, NewUpdateDeleteStatements) {
  // NEW folds an arithmetic constant and stores the folded value.
  MOOD_ASSERT_OK_AND_ASSIGN(
      ExecResult created,
      db_.Execute("NEW Employee <999, 'Test Person', 30 + 3> AS tester"));
  ASSERT_TRUE(created.created_oid.has_value());
  EXPECT_TRUE(created.created_oid->valid());
  MOOD_ASSERT_OK_AND_ASSIGN(Oid bound, db_.catalog()->LookupName("tester"));
  EXPECT_EQ(bound, *created.created_oid);
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue made_age,
                            db_.objects()->GetAttribute(*created.created_oid, "age"));
  EXPECT_EQ(made_age.kind(), ValueKind::kInteger);
  EXPECT_EQ(made_age.AsInteger(), 33);
  // A value that is not a constant fails with the interpreter's error.
  for (const char* value : {"2 * 'a'", "x.age", "?"}) {
    Result<ExecResult> bad =
        db_.Execute(std::string("NEW Employee <1, 'Bad', ") + value + ">");
    MOOD_ASSERT_OK_AND_ASSIGN(ExprPtr expr, Parser::ParseExpression(value));
    Result<MoodValue> want = NaiveEval(*db_.evaluator(), expr, NaiveEnv{});
    ASSERT_FALSE(want.ok()) << value;
    ASSERT_FALSE(bad.ok()) << value;
    EXPECT_EQ(bad.status().ToString(), want.status().ToString()) << value;
  }

  // A later assignment sees what an earlier one wrote.
  MOOD_ASSERT_OK_AND_ASSIGN(
      ExecResult updated,
      db_.Execute("UPDATE Employee e SET age = e.age + 1, ssno = e.age * 1000 "
                  "WHERE e.ssno = 999"));
  EXPECT_EQ(updated.affected, 1u);
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue age,
                            db_.objects()->GetAttribute(*created.created_oid, "age"));
  EXPECT_EQ(age.AsInteger(), 34);
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue ssno,
                            db_.objects()->GetAttribute(*created.created_oid, "ssno"));
  EXPECT_EQ(ssno.AsInteger(), 34000);

  MOOD_ASSERT_OK_AND_ASSIGN(ExecResult deleted,
                            db_.Execute("DELETE FROM Employee e WHERE e.ssno = 34000"));
  EXPECT_EQ(deleted.affected, 1u);
  EXPECT_FALSE(db_.objects()->Fetch(*created.created_oid).ok());
}

/// <left, right> identifiers of a Join result's pair tuples, in result order.
std::vector<std::pair<Oid, Oid>> PairsOf(const Collection& c) {
  std::vector<std::pair<Oid, Oid>> out;
  for (const MoodValue& t : c.values()) {
    out.emplace_back(t.elements()[0].AsReference(), t.elements()[1].AsReference());
  }
  return out;
}

// The algebra runs the executor's kernels; each operator must return what a
// row-at-a-time loop over the test oracle's interpreter returns, including
// the first error in row order.
TEST_F(ExecFixture, AlgebraOperatorsMatchNaiveOracle) {
  MoodAlgebra* algebra = db_.algebra();
  const Evaluator& ev = *db_.evaluator();
  MOOD_ASSERT_OK_AND_ASSIGN(Collection vehicles, algebra->BindClass("Vehicle", false));
  MOOD_ASSERT_OK_AND_ASSIGN(Collection drivetrains,
                            algebra->BindClass("VehicleDriveTrain", false));
  MOOD_ASSERT_OK_AND_ASSIGN(Collection engines, algebra->BindClass("VehicleEngine", false));
  MOOD_ASSERT_OK_AND_ASSIGN(Collection companies, algebra->BindClass("Company", false));
  ASSERT_GT(vehicles.size(), 20u);

  // Select: a path, a method call, and a predicate whose rows fail with two
  // different errors partway through the extent.
  bool saw_error = false;
  for (const char* text :
       {"v.drivetrain.engine.cylinders >= 4", "v.lbweight() > 2000",
        "100 / (v.id - 30) + 100 % (v.id - 60) > 0"}) {
    MOOD_ASSERT_OK_AND_ASSIGN(ExprPtr pred, Parser::ParseExpression(text));
    std::vector<Oid> want;
    Status want_status;
    for (Oid o : vehicles.oids()) {
      NaiveEnv env;
      env.vars["v"] = o;
      Result<bool> keep = NaiveEvalPredicate(ev, pred, env);
      if (!keep.ok()) {
        want_status = keep.status();
        break;
      }
      if (keep.value()) want.push_back(o);
    }
    Result<Collection> got = algebra->Select(vehicles, pred, "v");
    ASSERT_EQ(got.ok(), want_status.ok()) << text << ": " << got.status().ToString();
    if (!got.ok()) {
      saw_error = true;
      EXPECT_EQ(got.status().ToString(), want_status.ToString()) << text;
      continue;
    }
    EXPECT_EQ(got.value().oids(), want) << text;
  }
  EXPECT_TRUE(saw_error);

  // Nested-loop Join: a reference comparison with a method call, and a
  // predicate that fails on the first pair whose inner engine has 4 cylinders.
  struct JoinCase {
    const Collection* left;
    const Collection* right;
    const char* pred;
  };
  for (const JoinCase& jc :
       {JoinCase{&vehicles, &companies, "v.company = c AND v.lbweight() > 1000"},
        JoinCase{&engines, &engines, "v.cylinders / (c.cylinders - 4) > v.size"}}) {
    MOOD_ASSERT_OK_AND_ASSIGN(ExprPtr pred, Parser::ParseExpression(jc.pred));
    std::vector<std::pair<Oid, Oid>> want;
    Status want_status;
    for (Oid l : jc.left->oids()) {
      for (Oid r : jc.right->oids()) {
        NaiveEnv env;
        env.vars["v"] = l;
        env.vars["c"] = r;
        Result<bool> keep = NaiveEvalPredicate(ev, pred, env);
        if (!keep.ok()) {
          want_status = keep.status();
          break;
        }
        if (keep.value()) want.emplace_back(l, r);
      }
      if (!want_status.ok()) break;
    }
    Result<Collection> got =
        algebra->Join(*jc.left, *jc.right, JoinMethod::kNestedLoop, pred, "v", "c");
    ASSERT_EQ(got.ok(), want_status.ok()) << jc.pred << ": " << got.status().ToString();
    if (!got.ok()) {
      EXPECT_EQ(got.status().ToString(), want_status.ToString()) << jc.pred;
      continue;
    }
    EXPECT_FALSE(want.empty()) << jc.pred;
    EXPECT_EQ(PairsOf(got.value()), want) << jc.pred;
  }

  // Pointer joins: every strategy, over an extent and over a list that
  // repeats objects (List x Set joins to a Set, so repeated pairs collapse).
  MOOD_ASSERT_OK(db_.objects()->CreateBinaryJoinIndex("v_dt", "Vehicle", "drivetrain"));
  std::vector<Oid> repeated = vehicles.oids();
  repeated.insert(repeated.end(), vehicles.oids().begin(), vehicles.oids().begin() + 5);
  Collection vehicle_list = Collection::List(repeated);
  Collection drivetrain_set = Collection::Set(drivetrains.oids());
  for (const Collection* left : {&vehicles, &vehicle_list}) {
    const Collection& right = left == &vehicles ? drivetrains : drivetrain_set;
    std::set<uint64_t> inner;
    for (Oid o : right.oids()) inner.insert(o.Pack());
    std::vector<std::pair<Oid, Oid>> want;
    for (Oid l : left->oids()) {
      MOOD_ASSERT_OK_AND_ASSIGN(MoodValue ref, db_.objects()->GetAttribute(l, "drivetrain"));
      if (ref.kind() != ValueKind::kReference || inner.count(ref.AsReference().Pack()) == 0) {
        continue;
      }
      std::pair<Oid, Oid> pair(l, ref.AsReference());
      const bool set_result = JoinReturnKind(left->kind(), right.kind()) == CollKind::kSet;
      if (set_result && std::find(want.begin(), want.end(), pair) != want.end()) continue;
      want.push_back(pair);
    }
    ASSERT_FALSE(want.empty());
    for (JoinMethod m : {JoinMethod::kForwardTraversal, JoinMethod::kBackwardTraversal,
                         JoinMethod::kHashPartition, JoinMethod::kIndexed}) {
      // The index is found through the extent's class; a list has none.
      if (m == JoinMethod::kIndexed && left != &vehicles) continue;
      MOOD_ASSERT_OK_AND_ASSIGN(
          Collection got, algebra->Join(*left, right, m, nullptr, "v", "d", "drivetrain"));
      std::vector<std::pair<Oid, Oid>> pairs = PairsOf(got);
      std::vector<std::pair<Oid, Oid>> expected = want;
      if (m == JoinMethod::kIndexed) {
        // The index answers in target order.
        std::sort(pairs.begin(), pairs.end());
        std::sort(expected.begin(), expected.end());
      }
      EXPECT_EQ(pairs, expected) << JoinMethodName(m);
    }
  }

  // DupElim: a list keeps first occurrences; an extent drops deep-equal
  // objects, here twins and companies whose presidents are distinct but
  // deep-equal twins.
  MOOD_ASSERT_OK_AND_ASSIGN(Collection listed, algebra->DupElim(vehicle_list));
  EXPECT_EQ(listed.oids(), vehicles.oids());
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid twin1, db_.objects()->CreateObject("Employee", MoodValue::Tuple({
                                                 MoodValue::Integer(7001),
                                                 MoodValue::String("Twin"),
                                                 MoodValue::Integer(40)})));
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid twin2, db_.objects()->CreateObject("Employee", MoodValue::Tuple({
                                                 MoodValue::Integer(7001),
                                                 MoodValue::String("Twin"),
                                                 MoodValue::Integer(40)})));
  for (Oid president : {twin1, twin2, twin1}) {
    MOOD_ASSERT_OK(db_.objects()
                       ->CreateObject("Company", MoodValue::Tuple({
                                          MoodValue::String("Twin Co"),
                                          MoodValue::String("Ankara"),
                                          MoodValue::Reference(president)}))
                       .status());
  }
  for (const char* cls : {"Employee", "Company"}) {
    MOOD_ASSERT_OK_AND_ASSIGN(Collection extent, algebra->BindClass(cls, false));
    std::vector<Oid> want;
    std::vector<MoodValue> kept;
    for (Oid o : extent.oids()) {
      MOOD_ASSERT_OK_AND_ASSIGN(MoodValue v, db_.objects()->Fetch(o));
      bool dup = false;
      for (const MoodValue& k : kept) {
        MOOD_ASSERT_OK_AND_ASSIGN(dup, db_.objects()->DeepEquals(v, k));
        if (dup) break;
      }
      if (dup) continue;
      want.push_back(o);
      kept.push_back(std::move(v));
    }
    MOOD_ASSERT_OK_AND_ASSIGN(Collection got, algebra->DupElim(extent));
    EXPECT_LT(want.size(), extent.size()) << cls;
    EXPECT_EQ(got.oids(), want) << cls;
  }
}

TEST_F(ExecFixture, PersistsAcrossReopen) {
  uint64_t engines = report_.engines;
  MOOD_ASSERT_OK(db_.Close());
  Database db2;
  MOOD_ASSERT_OK(db2.Open(dir_.Path("mood")));
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult qr, db2.Query("SELECT e FROM VehicleEngine e"));
  EXPECT_EQ(qr.rows.size(), engines);
  // Schema intact: methods still interpretable.
  MOOD_ASSERT_OK(db2.Query("SELECT v.lbweight() FROM Vehicle v").status());
}

TEST_F(ExecFixture, TransactionAbortRollsBackDml) {
  MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn, db_.Begin());
  MOOD_ASSERT_OK(db_.Execute("NEW Employee <555, 'Ghost', 1> AS ghost").status());
  EXPECT_EQ(Count("SELECT e FROM Employee e WHERE e.ssno = 555"), 1u);
  MOOD_ASSERT_OK(txn.Abort());
  EXPECT_FALSE(txn.active());
  EXPECT_EQ(Count("SELECT e FROM Employee e WHERE e.ssno = 555"), 0u);
  // Commit path.
  MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn2, db_.Begin());
  MOOD_ASSERT_OK(db_.Execute("NEW Employee <556, 'Real', 1>").status());
  MOOD_ASSERT_OK(txn2.Commit());
  EXPECT_EQ(Count("SELECT e FROM Employee e WHERE e.ssno = 556"), 1u);
}

TEST_F(ExecFixture, TxnHandleAutoAbortsOnDestruction) {
  {
    MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn, db_.Begin());
    MOOD_ASSERT_OK(db_.Execute("NEW Employee <557, 'Leaky', 1>").status());
    EXPECT_TRUE(db_.in_transaction());
    // Handle goes out of scope without Commit: the transaction must abort.
  }
  EXPECT_FALSE(db_.in_transaction());
  EXPECT_EQ(Count("SELECT e FROM Employee e WHERE e.ssno = 557"), 0u);
  // Locks released too: a fresh transaction can touch the same extent.
  MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn2, db_.Begin());
  MOOD_ASSERT_OK(db_.Execute("NEW Employee <558, 'Clean', 1>").status());
  MOOD_ASSERT_OK(txn2.Commit());
  EXPECT_EQ(Count("SELECT e FROM Employee e WHERE e.ssno = 558"), 1u);
}

TEST_F(ExecFixture, CrashRecoveryThroughDatabaseOpen) {
  // Checkpoint the base state (setup ran outside transactions), then commit a
  // change and "crash" (skip Close): the WAL replay must restore the committed
  // change even though its data pages were never flushed.
  MOOD_ASSERT_OK(db_.Checkpoint());
  MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn, db_.Begin());
  MOOD_ASSERT_OK(db_.Execute("NEW Employee <777, 'Survivor', 40>").status());
  MOOD_ASSERT_OK(txn.Commit());
  // Abandon db_ without a clean close: open a second handle on the same files.
  Database db2;
  MOOD_ASSERT_OK(db2.Open(dir_.Path("mood")));
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult qr, db2.Query("SELECT e FROM Employee e WHERE e.ssno = 777"));
  EXPECT_EQ(qr.rows.size(), 1u);
}

TEST_F(ExecFixture, DmlInsideTransactionHoldsLocks) {
  MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn, db_.Begin());
  MOOD_ASSERT_OK(db_.Execute("NEW Employee <600, 'Locker', 30>").status());
  MOOD_ASSERT_OK(
      db_.Execute("UPDATE Employee e SET age = 31 WHERE e.ssno = 600").status());
  // Strict 2PL: locks held until commit.
  LockManager* lm = db_.txn_manager()->locks();
  EXPECT_GT(lm->LockedResourceCount(), 0u);
  MOOD_ASSERT_OK(txn.Commit());
  EXPECT_EQ(lm->LockedResourceCount(), 0u);
  MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn2, db_.Begin());
  MOOD_ASSERT_OK(db_.Execute("DELETE FROM Employee e WHERE e.ssno = 600").status());
  MOOD_ASSERT_OK(txn2.Commit());
  EXPECT_EQ(Count("SELECT e FROM Employee e WHERE e.ssno = 600"), 0u);
}

TEST_F(ExecFixture, ErrorsAreReported) {
  EXPECT_TRUE(db_.Query("SELECT x FROM Nowhere x").status().IsNotFound());
  EXPECT_TRUE(db_.Query("SELECT v.nope FROM Vehicle v").status().code() ==
              StatusCode::kCatalogError);
  EXPECT_TRUE(db_.Execute("SELECT FROM").status().IsParseError());
  EXPECT_TRUE(db_.Execute("NEW Vehicle <'wrong-type'>").status().IsTypeError());
}

}  // namespace
}  // namespace mood
