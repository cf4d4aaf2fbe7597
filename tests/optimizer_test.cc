#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/random.h"
#include "core/database.h"
#include "core/paper_example.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::TempDir;

/// Plan-only optimization through the consolidated Explain API, in paper
/// mode (feedback off): the paper's cost model with its Table 10 constants,
/// never a calibration measured on the host.
Result<QueryOptimizer::Optimized> Optimize(Database& db, const std::string& sql) {
  ExplainOptions paper;
  paper.query.feedback = false;
  MOOD_ASSIGN_OR_RETURN(ExplainResult res, db.Explain(sql, paper));
  return std::move(res.optimized);
}

// --- Algorithm 8.1 / Appendix lemma: pure ordering properties --------------------

TEST(OrderingLemmaTest, TwoExpressionBaseCase) {
  // F1 + s1 F2 < F2 + s2 F1 iff F1/(1-s1) < F2/(1-s2).
  std::vector<double> F = {100, 50};
  std::vector<double> s = {0.9, 0.1};
  // Ranks: 100/0.1 = 1000; 50/0.9 = 55.6 -> order {1, 0}.
  auto order = QueryOptimizer::OrderByRank(F, s);
  EXPECT_EQ(order, (std::vector<size_t>{1, 0}));
  double best = QueryOptimizer::OrderingObjective(F, s, order);
  double other = QueryOptimizer::OrderingObjective(F, s, {0, 1});
  EXPECT_LT(best, other);
}

TEST(OrderingLemmaTest, SortOrderMinimizesObjectiveExhaustively) {
  // The Appendix lemma: the F/(1-s) sort minimizes f over ALL permutations.
  Random rng(31337);
  for (int trial = 0; trial < 200; trial++) {
    size_t m = 2 + rng.Uniform(5);  // up to 6 path expressions
    std::vector<double> F(m), s(m);
    for (size_t i = 0; i < m; i++) {
      F[i] = 1.0 + rng.NextDouble() * 1000;
      s[i] = rng.NextDouble() * 0.999;
    }
    auto order = QueryOptimizer::OrderByRank(F, s);
    double best = QueryOptimizer::OrderingObjective(F, s, order);
    std::vector<size_t> perm(m);
    std::iota(perm.begin(), perm.end(), 0);
    do {
      double f = QueryOptimizer::OrderingObjective(F, s, perm);
      ASSERT_GE(f + 1e-9 * std::abs(f), best)
          << "sorted order not optimal at trial " << trial;
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

TEST(OrderingLemmaTest, ObjectiveFormula) {
  // f = F1 + s1*F2 + s1*s2*F3 for identity permutation.
  std::vector<double> F = {10, 20, 30};
  std::vector<double> s = {0.5, 0.1, 0.7};
  double f = QueryOptimizer::OrderingObjective(F, s, {0, 1, 2});
  EXPECT_DOUBLE_EQ(f, 10 + 0.5 * 20 + 0.5 * 0.1 * 30);
}

// --- Optimizer behaviour on the paper's example database --------------------------

class OptimizerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood")));
    MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
    paperdb::InstallPaperStatistics(db_.stats());
  }
  TempDir dir_;
  Database db_;
};

TEST_F(OptimizerFixture, Example81PathOrderingMatchesTable16) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto optimized, Optimize(db_, paperdb::kExample81Query));
  ASSERT_EQ(optimized.terms.size(), 1u);
  const auto& paths = optimized.terms[0].paths;
  ASSERT_EQ(paths.size(), 2u);
  // P2 (company.name) is ordered first: smaller F/(1-s).
  EXPECT_EQ(paths[0].path.ToString(), "v.company.name");
  EXPECT_EQ(paths[1].path.ToString(), "v.drivetrain.engine.cylinders");
  // Table 16 numbers reproduce exactly.
  EXPECT_NEAR(paths[0].selectivity, 5.00e-5, 1e-12);
  EXPECT_NEAR(paths[1].selectivity, 6.25e-2, 1e-9);
  EXPECT_NEAR(paths[0].forward_traversal_cost, 520.825, 1e-6);
  EXPECT_NEAR(paths[1].forward_traversal_cost, 771.825, 1e-6);
  EXPECT_NEAR(paths[1].Rank(), 823.28, 1e-2);
}

TEST_F(OptimizerFixture, Example81PlanShapeMatchesPaper) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto optimized, Optimize(db_, paperdb::kExample81Query));
  std::string plan = optimized.plan->ToString();
  // The first subplan (T1): hash-partition join of Vehicle with the selected
  // Company — JOIN(BIND(Vehicle, v), SELECT(BIND(Company, ...), name='BMW'),
  // HASH_PARTITION, v.company = c.self).
  EXPECT_NE(plan.find("BIND(Vehicle, v)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("HASH_PARTITION, v.company ="), std::string::npos) << plan;
  EXPECT_NE(plan.find("= 'BMW'"), std::string::npos) << plan;
  // Then the P1 chain: forward traversals for v.drivetrain and d.engine.
  EXPECT_NE(plan.find("FORWARD_TRAVERSAL, v.drivetrain ="), std::string::npos) << plan;
  EXPECT_NE(plan.find("FORWARD_TRAVERSAL"), plan.rfind("FORWARD_TRAVERSAL")) << plan;
  EXPECT_NE(plan.find("cylinders = 2"), std::string::npos) << plan;
}

TEST_F(OptimizerFixture, Example82PlanShapeMatchesPaper) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto optimized, Optimize(db_, paperdb::kExample82Query));
  std::string plan = optimized.plan->ToString();
  // T1 = JOIN(BIND(VehicleDriveTrain, d), SELECT(BIND(VehicleEngine, e),
  // cylinders=2), HASH_PARTITION, d.engine = e.self) — the drivetrain/engine pair
  // is joined first (greedy jc/(1-js)), by hash partitioning.
  size_t dt_join = plan.find("HASH_PARTITION, _t");
  ASSERT_NE(dt_join, std::string::npos) << plan;
  // The inner-most JOIN pairs VehicleDriveTrain with the engine selection.
  size_t bind_dt = plan.find("BIND(VehicleDriveTrain");
  size_t bind_v = plan.find("BIND(Vehicle,");
  ASSERT_NE(bind_dt, std::string::npos);
  ASSERT_NE(bind_v, std::string::npos);
  // Final plan: JOIN(BIND(Vehicle, v), T1, HASH_PARTITION, v.drivetrain = d.self).
  EXPECT_NE(plan.find("HASH_PARTITION, v.drivetrain ="), std::string::npos) << plan;
  // Both joins use HASH_PARTITION; no forward traversal at 20000 roots.
  EXPECT_EQ(plan.find("FORWARD_TRAVERSAL"), std::string::npos) << plan;
}

TEST_F(OptimizerFixture, ImmediateSelectionDictionary) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      auto optimized,
      Optimize(db_, "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 AND "
                       "e.size > 2000"));
  ASSERT_EQ(optimized.terms.size(), 1u);
  const auto& imm = optimized.terms[0].imm;
  ASSERT_EQ(imm.size(), 2u);
  // Both sequential (no index registered); selectivity of cylinders = 1/16.
  for (const auto& e : imm) {
    EXPECT_EQ(e.access_type, "sequential");
    EXPECT_GT(e.sequential_access_cost, 0);
  }
  // Residual predicates are ordered ascending by selectivity: cylinders=2
  // (0.0625) before size>2000 (no stats for size -> default 1/3).
  const auto& plan = optimized.terms[0].plan;
  ASSERT_EQ(plan->op, PlanOp::kFilter);
  ASSERT_EQ(plan->predicates.size(), 2u);
  EXPECT_NE(plan->predicates[0]->ToString().find("cylinders"), std::string::npos);
}

TEST_F(OptimizerFixture, DisjunctionBecomesUnionOfAndTerms) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      auto optimized,
      Optimize(db_, "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 OR "
                       "e.cylinders = 4"));
  EXPECT_EQ(optimized.terms.size(), 2u);
  EXPECT_EQ(optimized.plan->op, PlanOp::kUnion);
  EXPECT_EQ(optimized.plan->children.size(), 2u);
}

TEST_F(OptimizerFixture, ExplicitJoinPredicateClassified) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto optimized, Optimize(db_, paperdb::kSection31Query));
  ASSERT_EQ(optimized.terms.size(), 1u);
  const auto& term = optimized.terms[0];
  // c.drivetrain.engine = v is a pointer-form join predicate.
  ASSERT_EQ(term.joins.size(), 1u);
  EXPECT_TRUE(term.joins[0].pointer_form);
  EXPECT_EQ(term.joins[0].ref_var, "c");
  EXPECT_EQ(term.joins[0].target_var, "v");
  // c.drivetrain.transmission = 'AUTOMATIC' is a path selection; v.cylinders > 4
  // is an immediate selection on v.
  EXPECT_EQ(term.paths.size(), 1u);
  ASSERT_EQ(term.imm.size(), 1u);
  EXPECT_EQ(term.imm[0].range_var, "v");
}

TEST_F(OptimizerFixture, NoWherePlanIsBareScan) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto optimized, Optimize(db_, "SELECT v FROM Vehicle v"));
  EXPECT_EQ(optimized.plan->op, PlanOp::kBindClass);
}

TEST_F(OptimizerFixture, CrossProductWhenNoJoinPredicate) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      auto optimized,
      Optimize(db_, "SELECT v FROM Vehicle v, Company c"));
  EXPECT_EQ(optimized.plan->op, PlanOp::kNestedLoopJoin);
  EXPECT_EQ(optimized.plan->join_pred, nullptr);
}

TEST_F(OptimizerFixture, ExplainRendersDictionariesAndPlan) {
  ExplainOptions verbose;
  verbose.verbose = true;
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult res,
                            db_.Explain(paperdb::kExample81Query, verbose));
  std::string text = res.Render();
  EXPECT_NE(text.find("PathSelInfo"), std::string::npos);
  EXPECT_NE(text.find("F/(1-s)"), std::string::npos);
  EXPECT_NE(text.find("Plan:"), std::string::npos);
}

class IndexChoiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood")));
    MOOD_ASSERT_OK(db_.Execute("CREATE CLASS Item TUPLE (id Integer, grade Integer, "
                               "label String(64))")
                       .status());
    // Large enough extent that a two-level index probe beats the sequential
    // scan under the Section 8.1 inequality.
    for (int i = 0; i < 2500; i++) {
      MOOD_ASSERT_OK(db_.objects()
                         ->CreateObject("Item", MoodValue::Tuple(
                                                    {MoodValue::Integer(i),
                                                     MoodValue::Integer(i % 10),
                                                     MoodValue::String(
                                                         "label-with-some-padding-" +
                                                         std::to_string(i))}))
                         .status());
    }
    MOOD_ASSERT_OK(db_.Execute("CREATE INDEX item_id ON Item(id) USING BTREE").status());
    MOOD_ASSERT_OK(db_.CollectStatistics("Item"));
  }
  TempDir dir_;
  Database db_;
};

TEST_F(IndexChoiceFixture, EqualityUsesIndexWhenCheaper) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto optimized,
                            Optimize(db_, "SELECT i FROM Item i WHERE i.id = 5"));
  const auto& imm = optimized.terms[0].imm;
  ASSERT_EQ(imm.size(), 1u);
  EXPECT_EQ(imm[0].access_type, "indexed");
  EXPECT_GE(imm[0].indexed_access_cost, 0);
  EXPECT_LT(imm[0].indexed_access_cost, imm[0].sequential_access_cost);
  EXPECT_EQ(optimized.plan->op, PlanOp::kIndexSelect);
}

TEST_F(IndexChoiceFixture, UnselectiveRangeFallsBackToScan) {
  // id > 0 selects ~everything: the Section 8.1 inequality rejects the index.
  MOOD_ASSERT_OK_AND_ASSIGN(auto optimized,
                            Optimize(db_, "SELECT i FROM Item i WHERE i.id >= 0"));
  const auto& imm = optimized.terms[0].imm;
  ASSERT_EQ(imm.size(), 1u);
  EXPECT_EQ(imm[0].access_type, "sequential");
  EXPECT_EQ(optimized.plan->op, PlanOp::kFilter);
  EXPECT_EQ(optimized.plan->child->op, PlanOp::kBindClass);
}

TEST_F(IndexChoiceFixture, SelectiveRangeUsesIndex) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      auto optimized, Optimize(db_, "SELECT i FROM Item i WHERE i.id < 3"));
  const auto& imm = optimized.terms[0].imm;
  ASSERT_EQ(imm.size(), 1u);
  EXPECT_EQ(imm[0].access_type, "indexed");
}

TEST_F(IndexChoiceFixture, UnindexedPredicateStaysResidual) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      auto optimized,
      Optimize(db_, "SELECT i FROM Item i WHERE i.id = 5 AND i.grade = 3"));
  // id=5 via index, grade=3 residual filter on top.
  ASSERT_EQ(optimized.plan->op, PlanOp::kFilter);
  EXPECT_EQ(optimized.plan->child->op, PlanOp::kIndexSelect);
  ASSERT_EQ(optimized.plan->predicates.size(), 1u);
  EXPECT_NE(optimized.plan->predicates[0]->ToString().find("grade"), std::string::npos);
}

TEST_F(IndexChoiceFixture, ParameterEqualityEstimatesFromStatistics) {
  // After ANALYZE a `?` equality estimates 1/dist(attr) whatever the value
  // binds to: grade has 10 distinct values over 2500 items.
  MOOD_ASSERT_OK_AND_ASSIGN(auto grade,
                            Optimize(db_, "SELECT i FROM Item i WHERE i.grade = ?"));
  ASSERT_EQ(grade.terms[0].imm.size(), 1u);
  EXPECT_DOUBLE_EQ(grade.terms[0].imm[0].selectivity, 0.1);
  EXPECT_DOUBLE_EQ(grade.plan->est_rows, 250);
  MOOD_ASSERT_OK_AND_ASSIGN(auto ne,
                            Optimize(db_, "SELECT i FROM Item i WHERE i.grade <> ?"));
  EXPECT_DOUBLE_EQ(ne.terms[0].imm[0].selectivity, 0.9);
  // id is a key in fact (2500 distinct values): one row, an index probe.
  MOOD_ASSERT_OK_AND_ASSIGN(auto id, Optimize(db_, "SELECT i FROM Item i WHERE i.id = ?"));
  EXPECT_DOUBLE_EQ(id.plan->est_rows, 1);
  EXPECT_EQ(id.plan->op, PlanOp::kIndexSelect);
  ExplainOptions paper;
  paper.query.feedback = false;
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult explain,
                            db_.Explain("SELECT i FROM Item i WHERE i.grade = ?", paper));
  EXPECT_NE(explain.Render().find("rows=250.00"), std::string::npos) << explain.Render();
}

TEST(ParameterEstimateTest, UniqueIndexEstimatesOneRowWithoutStatistics) {
  TempDir dir;
  Database db;
  MOOD_ASSERT_OK(db.Open(dir.Path("mood")));
  MOOD_ASSERT_OK(db.Execute("CREATE CLASS Key TUPLE (k Integer, v Integer)").status());
  for (int i = 0; i < 500; i++) {
    MOOD_ASSERT_OK(db.Execute("NEW Key <" + std::to_string(i) + ", 0>").status());
  }
  MOOD_ASSERT_OK(db.Execute("CREATE UNIQUE INDEX key_k ON Key(k) USING BTREE").status());
  // No ANALYZE: the textbook default (0.1) would estimate 50 rows.
  MOOD_ASSERT_OK_AND_ASSIGN(auto optimized,
                            Optimize(db, "SELECT x FROM Key x WHERE x.k = ?"));
  ASSERT_EQ(optimized.terms[0].imm.size(), 1u);
  EXPECT_DOUBLE_EQ(optimized.plan->est_rows, 1);
}

/// An index covers one class's extent: an EVERY range probes only when each
/// scanned class has its own index on the attribute, and then probes them all.
TEST(PointLookupPlanTest, EveryRangeProbesOnlyWhenEveryClassIsIndexed) {
  TempDir dir;
  Database db;
  MOOD_ASSERT_OK(db.Open(dir.Path("mood")));
  MOOD_ASSERT_OK(db.ExecuteScript("CREATE CLASS Item TUPLE (k Integer, pad String(64));"
                                  "CREATE CLASS SubItem INHERITS FROM Item;")
                     .status());
  for (int i = 0; i < 3000; i++) {
    for (const char* cls : {"Item", "SubItem"}) {
      MOOD_ASSERT_OK(db.Execute(std::string("NEW ") + cls + " <" + std::to_string(i) +
                                ", 'padding-padding-padding'>")
                         .status());
    }
  }
  MOOD_ASSERT_OK(db.Execute("CREATE INDEX item_k ON Item(k) USING BTREE").status());
  MOOD_ASSERT_OK(db.CollectAllStatistics());
  const std::string sql = "SELECT x FROM EVERY Item x WHERE x.k = 5";
  QueryOptions paper;
  paper.feedback = false;
  MOOD_ASSERT_OK_AND_ASSIGN(auto scan, Optimize(db, sql));
  EXPECT_NE(scan.plan->op, PlanOp::kIndexSelect) << scan.plan->Describe();
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult both, db.Query(sql, paper));
  EXPECT_EQ(both.rows.size(), 2u);

  MOOD_ASSERT_OK(db.Execute("CREATE INDEX sub_k ON SubItem(k) USING BTREE").status());
  MOOD_ASSERT_OK(db.CollectAllStatistics());
  MOOD_ASSERT_OK_AND_ASSIGN(auto probe, Optimize(db, sql));
  EXPECT_EQ(probe.plan->op, PlanOp::kIndexSelect) << probe.plan->Describe();
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult probed, db.Query(sql, paper));
  EXPECT_EQ(probed.rows.size(), 2u);
}

/// moodbench's set-up: populate, index, no ANALYZE, no profiled query. The
/// first feedback-mode plan runs the calibration probe, and the prepared
/// point lookup then probes the index instead of scanning 667 Vehicles.
TEST(PointLookupPlanTest, FreshDatabasePlansIndexProbeWithoutProfiling) {
  TempDir dir;
  Database db;
  MOOD_ASSERT_OK(db.Open(dir.Path("mood")));
  MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db));
  MOOD_ASSERT_OK(paperdb::PopulatePaperData(&db, 2000).status());
  MOOD_ASSERT_OK(db.Execute("CREATE INDEX veh_id ON Vehicle(id) USING BTREE").status());
  ASSERT_FALSE(db.stats()->calibration().Valid());

  const std::string sql = "SELECT v.id, v.weight FROM Vehicle v WHERE v.id = ?";
  MOOD_ASSERT_OK_AND_ASSIGN(PreparedStatement ps, db.Prepare(sql));
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult qr, ps.Query({MoodValue::Integer(300)}));
  ASSERT_EQ(qr.rows.size(), 1u);
  EXPECT_EQ(qr.rows[0][0].AsInteger(), 300);
  EXPECT_TRUE(db.stats()->calibration().Valid());

  ExplainOptions verbose;
  verbose.verbose = true;
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult explain, db.Explain(sql, verbose));
  EXPECT_EQ(explain.optimized.plan->op, PlanOp::kIndexSelect) << explain.Render();
  EXPECT_NE(explain.Render().find("plan: cached"), std::string::npos);
}

/// Plan choices follow the calibration constants, not the wall clock: with
/// seeded constants the same lookup flips between probe and scan.
TEST(PointLookupPlanTest, SeededCalibrationDecidesIndexVsScan) {
  TempDir dir;
  Database db;
  MOOD_ASSERT_OK(db.Open(dir.Path("mood")));
  MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db));
  MOOD_ASSERT_OK(paperdb::PopulatePaperData(&db, 2000).status());
  MOOD_ASSERT_OK(db.Execute("CREATE INDEX veh_id ON Vehicle(id) USING BTREE").status());
  const std::string sql = "SELECT v FROM Vehicle v WHERE v.id = ?";
  CostCalibration& cal = db.stats()->calibration();

  // Pages dear, dereferences cheap: the probe wins.
  cal.AddPage(1.0);
  cal.AddDeref(0.001);
  db.stats()->BumpPlansVersion();
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult probe, db.Explain(sql, {}));
  EXPECT_EQ(probe.optimized.plan->op, PlanOp::kIndexSelect);

  // Dereferences dearer than whole pages: the scan wins.
  cal.Reset();
  cal.AddPage(0.001);
  cal.AddDeref(1.0);
  db.stats()->BumpPlansVersion();
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult scan, db.Explain(sql, {}));
  EXPECT_NE(scan.optimized.plan->op, PlanOp::kIndexSelect) << scan.Render();
}

}  // namespace
}  // namespace mood
