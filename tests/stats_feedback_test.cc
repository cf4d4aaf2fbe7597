#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/paper_example.h"
#include "obs/query_profile.h"
#include "stats/feedback.h"
#include "stats/histogram.h"
#include "stats/selectivity.h"
#include "stats/sketch.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::TempDir;

// --- DistinctSketch ---------------------------------------------------------------

TEST(DistinctSketchTest, SparseModeIsExact) {
  DistinctSketch sk;
  for (int i = 0; i < 1000; i++) sk.Add("value-" + std::to_string(i));
  // Duplicates must not inflate the count.
  for (int i = 0; i < 1000; i++) sk.Add("value-" + std::to_string(i % 100));
  EXPECT_TRUE(sk.sparse());
  EXPECT_EQ(sk.Estimate(), 1000u);
}

TEST(DistinctSketchTest, DenseModeWithinErrorBound) {
  DistinctSketch sk;
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; i++) sk.Add("key-" + std::to_string(i));
  EXPECT_FALSE(sk.sparse());
  double est = static_cast<double>(sk.Estimate());
  // 1024 registers -> ~3.2% standard error; allow 4 sigma.
  EXPECT_NEAR(est, static_cast<double>(n), 0.13 * n);
}

TEST(DistinctSketchTest, DensifyPreservesCount) {
  // Straddle the sparse->dense transition: the converted estimate must stay
  // near the exact count at the crossover point.
  DistinctSketch sk;
  const uint64_t n = DistinctSketch::kSparseLimit + 500;
  for (uint64_t i = 0; i < n; i++) sk.Add(std::to_string(i * 2654435761u));
  EXPECT_FALSE(sk.sparse());
  double est = static_cast<double>(sk.Estimate());
  EXPECT_NEAR(est, static_cast<double>(n), 0.13 * n);
}

// --- EquiDepthHistogram -----------------------------------------------------------

TEST(EquiDepthHistogramTest, EmptyAndDegenerate) {
  EXPECT_TRUE(EquiDepthHistogram::Build({}, 8).empty());
  EXPECT_TRUE(EquiDepthHistogram::Build({1.0, 2.0}, 0).empty());
  // A single value: one bucket, FractionEq == 1.
  auto h = EquiDepthHistogram::Build(std::vector<double>(50, 7.0), 8);
  ASSERT_FALSE(h.empty());
  EXPECT_DOUBLE_EQ(h.FractionEq(7.0), 1.0);
  EXPECT_DOUBLE_EQ(h.FractionLE(7.0), 1.0);
  EXPECT_DOUBLE_EQ(h.FractionLE(6.9), 0.0);
}

TEST(EquiDepthHistogramTest, SkewedEqualityBeatsUniformity) {
  // 90% of rows carry the value 1; the rest spread over 2..101. The paper's
  // 1/dist formula would estimate ~1/101 for every equality predicate; the
  // histogram must report ~0.9 for the heavy value and a small fraction for a
  // light one.
  std::vector<double> values;
  for (int i = 0; i < 900; i++) values.push_back(1.0);
  for (int i = 0; i < 100; i++) values.push_back(2.0 + i);
  auto h = EquiDepthHistogram::Build(std::move(values), 16);
  ASSERT_FALSE(h.empty());
  double heavy = h.FractionEq(1.0);
  EXPECT_NEAR(heavy, 0.9, 0.05);
  double light = h.FractionEq(50.0);
  EXPECT_LT(light, 0.05);
  // The uniformity estimate is off by ~90x for the heavy value.
  double uniform = 1.0 / 101.0;
  EXPECT_GT(heavy / uniform, 50.0);
}

TEST(EquiDepthHistogramTest, FractionLEInterpolatesAndIsMonotone) {
  std::vector<double> values;
  for (int i = 0; i < 1000; i++) values.push_back(static_cast<double>(i));
  auto h = EquiDepthHistogram::Build(std::move(values), 10);
  EXPECT_DOUBLE_EQ(h.FractionLE(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionLE(999.0), 1.0);
  EXPECT_NEAR(h.FractionLE(499.0), 0.5, 0.05);
  double prev = 0;
  for (double c = 0; c <= 1000; c += 37) {
    double f = h.FractionLE(c);
    EXPECT_GE(f, prev);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

// --- FeedbackStore ----------------------------------------------------------------

TEST(FeedbackStoreTest, RecordLookupAndLRUEviction) {
  FeedbackStore store;
  FeedbackOptions opts;
  opts.max_entries = 3;
  store.Configure(opts);
  store.Record("a", 0.1, /*schema=*/1, /*file=*/5, /*write=*/10);
  store.Record("b", 0.2, 1, 5, 10);
  store.Record("c", 0.3, 1, 5, 10);
  double sel = 0;
  ASSERT_TRUE(store.Lookup("a", 1, 5, 10, &sel));
  EXPECT_DOUBLE_EQ(sel, 0.1);
  // "b" is now least-recently-used; inserting "d" evicts it.
  store.Record("d", 0.4, 1, 5, 10);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_FALSE(store.Lookup("b", 1, 5, 10, &sel));
  ASSERT_TRUE(store.Lookup("a", 1, 5, 10, &sel));
  ASSERT_TRUE(store.Lookup("d", 1, 5, 10, &sel));
}

TEST(FeedbackStoreTest, SchemaEpochMismatchInvalidates) {
  FeedbackStore store;
  store.Configure({});
  store.Record("sig", 0.5, /*schema=*/7, /*file=*/1, /*write=*/0);
  double sel = 0;
  EXPECT_FALSE(store.Lookup("sig", /*cur schema=*/8, 1, 0, &sel));
  EXPECT_EQ(store.invalidations(), 1u);
  EXPECT_EQ(store.size(), 0u);  // stale entry erased, not retried
}

TEST(FeedbackStoreTest, WriteEpochChurnInvalidates) {
  FeedbackStore store;
  FeedbackOptions opts;
  opts.refresh_epoch_delta = 16;
  store.Configure(opts);
  store.Record("sig", 0.5, 1, /*file=*/3, /*write=*/100);
  double sel = 0;
  // Within the churn budget: still valid.
  ASSERT_TRUE(store.Lookup("sig", 1, 3, 100 + 16, &sel));
  // Past it: dropped.
  EXPECT_FALSE(store.Lookup("sig", 1, 3, 100 + 17, &sel));
  EXPECT_EQ(store.invalidations(), 1u);
  // An epoch below the stamp is not "no churn": the stamp no longer names
  // the extent it measured, so the entry is dropped as stale too.
  store.Record("sig", 0.5, 1, /*file=*/3, /*write=*/100);
  EXPECT_FALSE(store.Lookup("sig", 1, 3, 99, &sel));
  EXPECT_EQ(store.invalidations(), 2u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(CostCalibrationTest, RunningMeansAndValidity) {
  CostCalibration cal;
  EXPECT_FALSE(cal.Valid());
  cal.AddPage(2.0);
  cal.AddPage(4.0);
  EXPECT_FALSE(cal.Valid());  // no deref samples yet
  cal.AddDeref(0.5);
  EXPECT_TRUE(cal.Valid());
  EXPECT_DOUBLE_EQ(cal.MsPerPage(), 3.0);
  EXPECT_DOUBLE_EQ(cal.MsPerDeref(), 0.5);
  cal.Reset();
  EXPECT_FALSE(cal.Valid());
}

// --- End-to-end: histograms, ANALYZE, feedback convergence ------------------------

class FeedbackFixture : public ::testing::Test {
 protected:
  void SetUp() override { Reopen({}); }

  void Reopen(DatabaseOptions options) {
    if (db_.is_open()) MOOD_ASSERT_OK(db_.Close());
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood"), options));
  }

  double Metric(const std::string& name) {
    return db_.metrics()->Snapshot().ValueOf(name, 0);
  }

  /// Max q-error over all profiled operators that carry estimates.
  static double MaxQError(const QueryProfile& p) {
    double q = 1.0;
    if (p.has_estimates && p.est_rows > 0) {
      double actual = std::max<double>(p.rows_out, 0.5);
      double est = std::max(p.est_rows, 0.5);
      q = std::max(q, std::max(actual / est, est / actual));
    }
    for (const auto& c : p.children) q = std::max(q, MaxQError(*c));
    return q;
  }

  TempDir dir_;
  Database db_;
};

TEST_F(FeedbackFixture, CalibrationProbeRunsOnceAndStaysBounded) {
  MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
  MOOD_ASSERT_OK(paperdb::PopulatePaperData(&db_, /*scale=*/2000).status());
  const std::string sql = "SELECT v FROM Vehicle v WHERE v.weight > 1000";
  CostCalibration& cal = db_.stats()->calibration();
  ASSERT_FALSE(cal.Valid());
  const uint64_t v0 = db_.stats()->plans_version();

  // Paper mode never measures the host.
  ExplainOptions paper;
  paper.query.feedback = false;
  MOOD_ASSERT_OK(db_.Explain(sql, paper).status());
  EXPECT_FALSE(cal.Valid());
  EXPECT_EQ(db_.stats()->plans_version(), v0);

  // The first feedback-mode plan probes: a few pages and fetches, one bump.
  const double pages0 = Metric("storage.scan_pages");
  const double reads0 = Metric("storage.record_reads");
  MOOD_ASSERT_OK(db_.Explain(sql, {}).status());
  EXPECT_TRUE(cal.Valid());
  EXPECT_GT(cal.MsPerPage(), 0);
  EXPECT_GT(cal.MsPerDeref(), 0);
  EXPECT_EQ(db_.stats()->plans_version(), v0 + 1);
  EXPECT_LE(Metric("storage.scan_pages") - pages0, StatisticsManager::kCalibrationPages);
  EXPECT_LE(Metric("storage.record_reads") - reads0, StatisticsManager::kCalibrationDerefs);

  // Never again, and profiled runs still refine the constants.
  MOOD_ASSERT_OK(db_.Explain(sql, {}).status());
  EXPECT_EQ(db_.stats()->plans_version(), v0 + 1);
  EXPECT_EQ(Metric("storage.scan_pages") - pages0, StatisticsManager::kCalibrationPages);
  ExplainOptions analyze;
  analyze.analyze = true;
  MOOD_ASSERT_OK(db_.Explain(sql, analyze).status());
  EXPECT_GT(db_.stats()->plans_version(), v0 + 1);
}

TEST_F(FeedbackFixture, AnalyzeStatementCollectsStatistics) {
  MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
  MOOD_ASSERT_OK(paperdb::PopulatePaperData(&db_, /*scale=*/64).status());
  // Named class.
  MOOD_ASSERT_OK_AND_ASSIGN(ExecResult r1, db_.Execute("ANALYZE Vehicle"));
  EXPECT_NE(r1.message.find("Vehicle"), std::string::npos);
  MOOD_ASSERT_OK_AND_ASSIGN(ClassStats cs, db_.stats()->Class("Vehicle"));
  EXPECT_GT(cs.cardinality, 0u);
  // All classes.
  MOOD_ASSERT_OK(db_.Execute("ANALYZE").status());
  MOOD_ASSERT_OK(db_.stats()->Class("Company").status());
  // Unknown class is an error.
  EXPECT_FALSE(db_.Execute("ANALYZE NoSuchClass").status().ok());
}

TEST_F(FeedbackFixture, HistogramBeatsUniformityOnSkewedExtent) {
  MOOD_ASSERT_OK(db_.Execute("CREATE CLASS Reading TUPLE (sensor Integer)").status());
  // 90% of readings come from sensor 1.
  for (int i = 0; i < 180; i++) {
    MOOD_ASSERT_OK(db_.Execute("NEW Reading <1>").status());
  }
  for (int i = 0; i < 20; i++) {
    MOOD_ASSERT_OK(
        db_.Execute("NEW Reading <" + std::to_string(2 + i) + ">").status());
  }
  MOOD_ASSERT_OK(db_.Execute("ANALYZE Reading").status());

  SelectivityEstimator est(db_.stats());
  SelSource src = SelSource::kDefault;
  MOOD_ASSERT_OK_AND_ASSIGN(
      double sel, est.AtomicSelectivity("Reading", "sensor", BinaryOp::kEq,
                                        MoodValue::Integer(1), &src));
  EXPECT_EQ(src, SelSource::kHistogram);
  EXPECT_NEAR(sel, 0.9, 0.05);
  // The uniformity fallback would say 1/dist = 1/21 — off by ~19x.
  MOOD_ASSERT_OK_AND_ASSIGN(AttributeStats as,
                            db_.stats()->Attribute("Reading", "sensor"));
  EXPECT_GT(sel * as.dist, 10.0);
  // Provenance surfaces in EXPLAIN VERBOSE.
  ExplainOptions eo;
  eo.verbose = true;
  MOOD_ASSERT_OK_AND_ASSIGN(
      ExplainResult ex,
      db_.Explain("SELECT r FROM Reading r WHERE r.sensor = 1", eo));
  EXPECT_NE(ex.Render().find("[sel: histogram]"), std::string::npos) << ex.Render();
}

TEST_F(FeedbackFixture, FeedbackConvergesQErrorWithinTwoRuns) {
  MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
  MOOD_ASSERT_OK(paperdb::PopulatePaperData(&db_, /*scale=*/128).status());
  MOOD_ASSERT_OK(db_.CollectAllStatistics());

  ExplainOptions eo;
  eo.analyze = true;  // profiled run; feedback defaults on
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult run1,
                            db_.Explain(paperdb::kExample82Query, eo));
  ASSERT_NE(run1.profile, nullptr);
  EXPECT_GT(Metric("stats.feedback_writes"), 0);
  EXPECT_GT(Metric("stats.feedback_absorbed"), 0);

  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult run2,
                            db_.Explain(paperdb::kExample82Query, eo));
  ASSERT_NE(run2.profile, nullptr);
  // The second optimization consults the measured selectivities...
  EXPECT_GT(Metric("stats.feedback_hits"), 0);
  // ...and its estimates now track the observed cardinalities.
  EXPECT_LE(MaxQError(*run2.profile), 2.0)
      << run2.profile->Render();
}

TEST_F(FeedbackFixture, SchemaEpochBumpDropsFeedbackEntries) {
  MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
  MOOD_ASSERT_OK(paperdb::PopulatePaperData(&db_, /*scale=*/64).status());
  MOOD_ASSERT_OK(db_.CollectAllStatistics());

  ExplainOptions eo;
  eo.analyze = true;
  MOOD_ASSERT_OK(db_.Explain(paperdb::kExample82Query, eo).status());
  ASSERT_GT(db_.stats()->feedback().size(), 0u);

  // DDL bumps the catalog schema epoch; the next lookup must refuse the
  // now-stale measurements instead of steering the plan with them.
  MOOD_ASSERT_OK(db_.Execute("CREATE CLASS EpochBump TUPLE (x Integer)").status());
  double before = Metric("stats.feedback_invalidations");
  MOOD_ASSERT_OK(db_.Explain(paperdb::kExample82Query, eo).status());
  EXPECT_GT(Metric("stats.feedback_invalidations"), before);
}

TEST_F(FeedbackFixture, WriteEpochChurnTriggersAutoRefresh) {
  DatabaseOptions options;
  options.stats_refresh_epoch_delta = 4;  // refresh after a handful of writes
  Reopen(options);
  MOOD_ASSERT_OK(db_.Execute("CREATE CLASS Hot TUPLE (x Integer)").status());
  for (int i = 0; i < 8; i++) {
    MOOD_ASSERT_OK(
        db_.Execute("NEW Hot <" + std::to_string(i) + ">").status());
  }
  MOOD_ASSERT_OK(db_.Execute("ANALYZE Hot").status());
  // Churn exactly equal to the threshold keeps the collected statistics.
  for (int i = 0; i < 4; i++) {
    MOOD_ASSERT_OK(
        db_.Execute("NEW Hot <" + std::to_string(50 + i) + ">").status());
  }
  const double at_delta = Metric("stats.refreshes");
  MOOD_ASSERT_OK(db_.Query("SELECT h FROM Hot h WHERE h.x = 1", {}).status());
  EXPECT_EQ(Metric("stats.refreshes"), at_delta);
  MOOD_ASSERT_OK_AND_ASSIGN(ClassStats stale, db_.stats()->Class("Hot"));
  EXPECT_EQ(stale.cardinality, 8u);
  // Churn the extent well past the refresh threshold.
  for (int i = 0; i < 28; i++) {
    MOOD_ASSERT_OK(
        db_.Execute("NEW Hot <" + std::to_string(100 + i) + ">").status());
  }
  double before = Metric("stats.refreshes");
  // A feedback-enabled optimization notices the churn and re-collects.
  MOOD_ASSERT_OK(db_.Query("SELECT h FROM Hot h WHERE h.x = 1", {}).status());
  EXPECT_GT(Metric("stats.refreshes"), before);
  // The refreshed statistics see the full extent.
  MOOD_ASSERT_OK_AND_ASSIGN(ClassStats cs, db_.stats()->Class("Hot"));
  EXPECT_EQ(cs.cardinality, 40u);
}

}  // namespace
}  // namespace mood
