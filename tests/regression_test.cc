#include <gtest/gtest.h>

#include <set>

#include "core/database.h"
#include "core/paper_example.h"
#include "index/key_codec.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::TempDir;

/// The paper's Section 3.1 DDL, verbatim — including its trailing commas after
/// the last tuple attribute and the METHODS colon syntax.
TEST(PaperVerbatimTest, Section31DdlParsesAndDefines) {
  TempDir dir;
  Database db;
  MOOD_ASSERT_OK(db.Open(dir.Path("mood")));
  MOOD_ASSERT_OK(db.ExecuteScript(R"SQL(
CREATE CLASS VehicleDriveTrain
TUPLE (
    engine REFERENCE (VehicleEngine),
    transmission String(32)
);
CREATE CLASS VehicleEngine
TUPLE (
    size Integer,
    cylinders Integer
);
CREATE CLASS Employee
TUPLE (
    ssno Integer,
    name String(32),
    age Integer
);
CREATE CLASS Company
TUPLE (
    name String(32),
    location String(32),
    president REFERENCE (Employee)
);
CREATE CLASS Vehicle
TUPLE (
    id Integer,
    weight Integer,
    drivetrain REFERENCE (VehicleDriveTrain),
    manufacturer REFERENCE (Company)
)
METHODS:
    lbweight () Integer,
    weightkg () Integer;
CREATE CLASS Automobile
    INHERITS FROM Vehicle;
CREATE CLASS JapaneseAuto
    INHERITS FROM Automobile;
)SQL").status());
  // Note: forward reference VehicleDriveTrain -> VehicleEngine is allowed at
  // definition time; the binder checks it at query time.
  MOOD_ASSERT_OK_AND_ASSIGN(auto attrs, db.catalog()->AllAttributes("JapaneseAuto"));
  EXPECT_EQ(attrs.size(), 4u);
  MOOD_ASSERT_OK_AND_ASSIGN(auto fns, db.catalog()->AllFunctions("JapaneseAuto"));
  EXPECT_EQ(fns.size(), 2u);
  // The paper's query over this schema parses and binds.
  MOOD_ASSERT_OK(db.Explain(
                       "SELECT c FROM EVERY Automobile - JapaneseAuto c, "
                       "VehicleEngine v WHERE c.drivetrain.transmission = "
                       "'AUTOMATIC' AND c.drivetrain.engine = v AND v.cylinders > 4",
                       ExplainOptions{})
                     .status());
}

class RegressionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood")));
    MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
    MOOD_ASSERT_OK(paperdb::PopulatePaperData(&db_, 60).status());
    MOOD_ASSERT_OK(db_.CollectAllStatistics());
  }
  TempDir dir_;
  Database db_;
};

TEST_F(RegressionFixture, GroupByMultipleKeys) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult qr,
      db_.Query("SELECT d.transmission, d.engine.cylinders FROM VehicleDriveTrain d "
                "GROUP BY d.transmission, d.engine.cylinders"));
  std::set<std::pair<std::string, int32_t>> keys;
  for (const auto& row : qr.rows) {
    EXPECT_TRUE(keys.emplace(row[0].AsString(), row[1].AsInteger()).second)
        << "duplicate group";
  }
}

TEST_F(RegressionFixture, OrderByPathAndMultipleKeys) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult qr,
      db_.Query("SELECT v.drivetrain.engine.cylinders, v.weight FROM Vehicle v "
                "ORDER BY v.drivetrain.engine.cylinders, v.weight DESC"));
  for (size_t i = 1; i < qr.rows.size(); i++) {
    int32_t c_prev = qr.rows[i - 1][0].AsInteger();
    int32_t c_cur = qr.rows[i][0].AsInteger();
    EXPECT_LE(c_prev, c_cur);
    if (c_prev == c_cur) {
      EXPECT_GE(qr.rows[i - 1][1].AsInteger(), qr.rows[i][1].AsInteger());
    }
  }
}

TEST_F(RegressionFixture, DistinctOverReferences) {
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult all,
                            db_.Query("SELECT v.drivetrain FROM Vehicle v"));
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult distinct,
                            db_.Query("SELECT DISTINCT v.drivetrain FROM Vehicle v"));
  EXPECT_LE(distinct.rows.size(), all.rows.size());
  std::set<uint64_t> seen;
  for (const auto& row : distinct.rows) {
    EXPECT_TRUE(seen.insert(row[0].AsReference().Pack()).second);
  }
}

TEST_F(RegressionFixture, UpdateGrowingStringKeepsIndexConsistent) {
  MOOD_ASSERT_OK(db_.Execute("CREATE INDEX comp_name ON Company(name) USING BTREE")
                     .status());
  // Grow one company's name so its record is forwarded; the index must follow.
  MOOD_ASSERT_OK_AND_ASSIGN(
      ExecResult up,
      db_.Execute("UPDATE Company c SET name = 'renamed-company-zero' "
                  "WHERE c.name = 'BMW'"));
  EXPECT_EQ(up.affected, 1u);
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult old_name,
                            db_.Query("SELECT c FROM Company c WHERE c.name = 'BMW'"));
  EXPECT_TRUE(old_name.rows.empty());
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult new_name,
      db_.Query("SELECT c FROM Company c WHERE c.name = 'renamed-company-zero'"));
  EXPECT_EQ(new_name.rows.size(), 1u);
}

TEST_F(RegressionFixture, ExplainOnDisjunctionShowsBothTerms) {
  ExplainOptions verbose;
  verbose.verbose = true;
  MOOD_ASSERT_OK_AND_ASSIGN(
      ExplainResult res,
      db_.Explain("SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 OR "
                  "e.cylinders = 30",
                  verbose));
  std::string text = res.Render();
  EXPECT_NE(text.find("AND-term 1"), std::string::npos);
  EXPECT_NE(text.find("AND-term 2"), std::string::npos);
}

TEST_F(RegressionFixture, ConstantFoldingInWhere) {
  // 2 + 2 folds; the predicate reduces to cylinders = 4.
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult folded,
      db_.Query("SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 + 2"));
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult direct,
      db_.Query("SELECT e FROM VehicleEngine e WHERE e.cylinders = 4"));
  EXPECT_EQ(folded.rows.size(), direct.rows.size());
}

TEST_F(RegressionFixture, ComparisonWithPathOnRightSide) {
  // Literal-on-left comparisons are normalized by the classifier.
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult a, db_.Query("SELECT e FROM VehicleEngine e WHERE 8 < e.cylinders"));
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult b, db_.Query("SELECT e FROM VehicleEngine e WHERE e.cylinders > 8"));
  EXPECT_EQ(a.rows.size(), b.rows.size());
}

TEST_F(RegressionFixture, EsmRegimeChangesIndexChoice) {
  // Under the ESM B+-tree-file regime the sequential scan loses its edge, so
  // indexes become attractive earlier (SEQCOST == RNDCOST).
  MOOD_ASSERT_OK(db_.Execute("CREATE INDEX eng_size ON VehicleEngine(size) USING BTREE")
                     .status());
  MOOD_ASSERT_OK(db_.CollectStatistics("VehicleEngine"));
  OptimizerOptions esm_opts;
  esm_opts.disk = PaperCalibratedDiskParameters();
  esm_opts.disk.esm_btree_files = true;
  QueryOptimizer esm_opt(db_.catalog(), db_.objects(), db_.stats(), esm_opts);
  auto stmt = Parser::Parse("SELECT e FROM VehicleEngine e WHERE e.size = 1001");
  MOOD_ASSERT_OK(stmt.status());
  MOOD_ASSERT_OK_AND_ASSIGN(auto optimized,
                            esm_opt.Optimize(std::get<SelectStmt>(stmt.value()),
                                             /*use_feedback=*/false));
  // With only ~30 engines over a couple of pages both choices are legal, but
  // the inequality must be computed with SEQCOST == RNDCOST.
  ASSERT_EQ(optimized.terms[0].imm.size(), 1u);
  MOOD_ASSERT_OK_AND_ASSIGN(ClassStats cls, db_.stats()->Class("VehicleEngine"));
  EXPECT_DOUBLE_EQ(optimized.terms[0].imm[0].sequential_access_cost,
                   RndCost(cls.nbpages, esm_opts.disk));
}

TEST_F(RegressionFixture, NamedObjectsSurviveReopen) {
  MOOD_ASSERT_OK(db_.Execute("NEW Employee <1, 'boss', 50> AS the_boss").status());
  MOOD_ASSERT_OK(db_.Close());
  Database db2;
  MOOD_ASSERT_OK(db2.Open(dir_.Path("mood")));
  MOOD_ASSERT_OK_AND_ASSIGN(Oid oid, db2.catalog()->LookupName("the_boss"));
  MOOD_ASSERT_OK_AND_ASSIGN(MoodValue name, db2.objects()->GetAttribute(oid, "name"));
  EXPECT_EQ(name.AsString(), "boss");
}

TEST_F(RegressionFixture, SelfReferenceJoinForm) {
  // v.drivetrain = d.self with an explicit .self suffix parses and joins.
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult with_self,
      db_.Query("SELECT v FROM Vehicle v, VehicleDriveTrain d "
                "WHERE v.drivetrain = d.self"));
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult bare,
      db_.Query("SELECT v FROM Vehicle v, VehicleDriveTrain d "
                "WHERE v.drivetrain = d"));
  EXPECT_EQ(with_self.rows.size(), bare.rows.size());
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult vehicles, db_.Query("SELECT v FROM Vehicle v"));
  EXPECT_EQ(with_self.rows.size(), vehicles.rows.size());  // fan = 1
}

TEST_F(RegressionFixture, SubclassObjectSatisfiesSuperclassReference) {
  // A REFERENCE (Vehicle) attribute may point at an Automobile (IS-A).
  MOOD_ASSERT_OK(
      db_.Execute("CREATE CLASS Garage TUPLE (slot REFERENCE (Vehicle))").status());
  Oid any_auto;
  MOOD_ASSERT_OK(db_.objects()->ScanExtent("Automobile", false, {},
                                           [&](Oid oid, const MoodValue&) {
                                             any_auto = oid;
                                             return Status::OK();
                                           }));
  ASSERT_TRUE(any_auto.valid());
  MOOD_ASSERT_OK(db_.objects()
                     ->CreateObject("Garage",
                                    MoodValue::Tuple({MoodValue::Reference(any_auto)}))
                     .status());
  MOOD_ASSERT_OK_AND_ASSIGN(
      QueryResult qr, db_.Query("SELECT g.slot.weight FROM Garage g"));
  ASSERT_EQ(qr.rows.size(), 1u);
  EXPECT_GT(qr.rows[0][0].AsInteger(), 0);
}

}  // namespace
}  // namespace mood
