#include <gtest/gtest.h>

#include <atomic>
#include <regex>
#include <sstream>
#include <thread>

#include "core/database.h"
#include "core/paper_example.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::TempDir;

// ---------------------------------------------------------------------------
// MetricsRegistry unit behavior
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry reg;
  MetricCounter* c = reg.Counter("test.count");
  c->Add(3);
  c->Add(2);
  EXPECT_EQ(c->value(), 5u);
  // Same name returns the same instrument.
  EXPECT_EQ(reg.Counter("test.count"), c);

  MetricGauge* g = reg.Gauge("test.gauge");
  g->Set(10);
  g->Add(5);
  g->Sub(3);
  EXPECT_EQ(g->value(), 12);

  MetricHistogram* h = reg.Histogram("test.lat");
  h->Record(1);
  h->Record(100);
  h->Record(100000);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum(), 100101u);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_DOUBLE_EQ(snap.ValueOf("test.count", -1), 5);
  EXPECT_DOUBLE_EQ(snap.ValueOf("test.gauge", -1), 12);
  EXPECT_DOUBLE_EQ(snap.ValueOf("test.lat.count", -1), 3);
  EXPECT_DOUBLE_EQ(snap.ValueOf("test.lat.sum", -1), 100101);
  EXPECT_TRUE(snap.Has("test.lat.p99"));
  // Snapshots are sorted by name so exports are diffable.
  for (size_t i = 1; i < snap.values.size(); i++) {
    EXPECT_LT(snap.values[i - 1].first, snap.values[i].first);
  }
  // Text/JSON exports carry every entry.
  std::string text = snap.ToText();
  std::string json = snap.ToJson();
  EXPECT_NE(text.find("test.count"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\""), std::string::npos);
}

TEST(MetricsRegistry, ProbesFoldIntoSnapshot) {
  MetricsRegistry reg;
  reg.RegisterProbe("widget", [](std::vector<std::pair<std::string, double>>* out) {
    out->emplace_back("widget.live", 7);
  });
  EXPECT_DOUBLE_EQ(reg.Snapshot().ValueOf("widget.live", -1), 7);
  reg.UnregisterProbe("widget");
  EXPECT_FALSE(reg.Snapshot().Has("widget.live"));
}

// Concurrent instrument lookup, updates and snapshots must not tear or race.
TEST(MetricsRegistry, SnapshotHammer) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&reg, &go, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kIters; i++) {
        reg.Counter("hammer.c" + std::to_string(t % 4))->Add(1);
        reg.Histogram("hammer.h")->Record(static_cast<uint64_t>(i));
        if (i % 64 == 0) {
          MetricsSnapshot snap = reg.Snapshot();
          EXPECT_GE(snap.ValueOf("hammer.h.count", 0), 0);
        }
      }
    });
  }
  go.store(true);
  for (auto& w : workers) w.join();
  MetricsSnapshot snap = reg.Snapshot();
  double total = 0;
  for (int c = 0; c < 4; c++) {
    total += snap.ValueOf("hammer.c" + std::to_string(c), 0);
  }
  EXPECT_DOUBLE_EQ(total, kThreads * kIters);
  EXPECT_DOUBLE_EQ(snap.ValueOf("hammer.h.count", 0), kThreads * kIters);
}

// ---------------------------------------------------------------------------
// Engine wiring: component probes and invariants over a real workload
// ---------------------------------------------------------------------------

class ObsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.slow_query_ms = 0.000001;  // everything is "slow"
    options.slow_query_log_size = 4;
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood"), options));
    MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
    MOOD_ASSERT_OK_AND_ASSIGN(report_, paperdb::PopulatePaperData(&db_, 80));
    MOOD_ASSERT_OK(db_.CollectAllStatistics());
  }

  TempDir dir_;
  Database db_;
  paperdb::PopulateReport report_;
};

TEST_F(ObsFixture, BufferPoolInvariantHitsPlusMissesIsFetches) {
  MOOD_ASSERT_OK(db_.Query(paperdb::kExample81Query).status());
  MetricsSnapshot snap = db_.metrics()->Snapshot();
  double hits = snap.ValueOf("bufferpool.hits", -1);
  double misses = snap.ValueOf("bufferpool.misses", -1);
  double fetches = snap.ValueOf("bufferpool.fetches", -1);
  EXPECT_GE(hits, 0);
  EXPECT_GE(misses, 0);
  EXPECT_GT(fetches, 0);
  EXPECT_DOUBLE_EQ(fetches, hits + misses);
  // Per-shard counters sum to the totals.
  double shard_hits = 0, shard_misses = 0;
  size_t shards = static_cast<size_t>(snap.ValueOf("bufferpool.shards", 0));
  ASSERT_GT(shards, 0u);
  for (size_t s = 0; s < shards; s++) {
    shard_hits += snap.ValueOf("bufferpool.shard" + std::to_string(s) + ".hits", 0);
    shard_misses +=
        snap.ValueOf("bufferpool.shard" + std::to_string(s) + ".misses", 0);
  }
  EXPECT_DOUBLE_EQ(shard_hits, hits);
  EXPECT_DOUBLE_EQ(shard_misses, misses);
}

TEST_F(ObsFixture, ComponentProbesReport) {
  MOOD_ASSERT_OK(db_.Query(paperdb::kExample81Query).status());
  MetricsSnapshot snap = db_.metrics()->Snapshot();
  EXPECT_GT(snap.ValueOf("storage.records", 0), 0);
  EXPECT_GT(snap.ValueOf("storage.record_reads", 0), 0);
  EXPECT_GT(snap.ValueOf("objects.created", 0), 0);
  EXPECT_GT(snap.ValueOf("exec.statements", 0), 0);
  EXPECT_GT(snap.ValueOf("exec.queries", 0), 0);
  EXPECT_GT(snap.ValueOf("exec.query_us.count", 0), 0);
  EXPECT_TRUE(snap.Has("funcman.cold_loads"));
  EXPECT_TRUE(snap.Has("lockman.acquires"));
}

TEST_F(ObsFixture, SlowQueryRingBuffer) {
  for (int i = 0; i < 6; i++) {
    MOOD_ASSERT_OK(db_.Query("SELECT v FROM Vehicle v").status());
  }
  std::vector<SlowQueryRecord> slow = db_.SlowQueries();
  // Ring capacity is 4; the oldest entries fell out.
  ASSERT_EQ(slow.size(), 4u);
  for (const auto& rec : slow) {
    EXPECT_EQ(rec.sql, "SELECT v FROM Vehicle v");
    EXPECT_GT(rec.elapsed_ms, 0);
    EXPECT_GT(rec.threads, 0u);
  }
  MetricsSnapshot snap = db_.metrics()->Snapshot();
  EXPECT_GE(snap.ValueOf("exec.slow_queries", 0), 6);
}

// ---------------------------------------------------------------------------
// EXPLAIN / EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

TEST_F(ObsFixture, ExplainStatementPlanOnly) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      ExecResult res, db_.Execute(std::string("EXPLAIN ") + paperdb::kExample81Query));
  EXPECT_EQ(res.kind, ExecResult::Kind::kExplain);
  EXPECT_NE(res.message.find("Plan:"), std::string::npos);
  EXPECT_NE(res.message.find("cost="), std::string::npos);
  EXPECT_NE(res.message.find("rows="), std::string::npos);
  EXPECT_EQ(res.message.find("actual rows="), std::string::npos);
  EXPECT_EQ(res.profile, nullptr);
}

TEST_F(ObsFixture, ExplainAnalyzeStatementHasActuals) {
  MOOD_ASSERT_OK_AND_ASSIGN(
      ExecResult res,
      db_.Execute(std::string("EXPLAIN ANALYZE ") + paperdb::kExample81Query));
  EXPECT_EQ(res.kind, ExecResult::Kind::kExplain);
  EXPECT_NE(res.message.find("EXPLAIN ANALYZE:"), std::string::npos);
  EXPECT_NE(res.message.find("actual rows="), std::string::npos);
  EXPECT_NE(res.message.find("time="), std::string::npos);
  EXPECT_NE(res.message.find("pool hits="), std::string::npos);
  ASSERT_NE(res.profile, nullptr);
  EXPECT_EQ(res.profile->label, "RESULT");
}

// Golden shape: every plan operator line carries estimates and actuals, and
// the deterministic rendering is identical across worker-thread counts, at one
// row per batch and at the default batch size.
TEST_F(ObsFixture, ExplainAnalyzeGoldenShapeAndThreadDeterminism) {
  for (const char* sql : {paperdb::kExample81Query, paperdb::kExample82Query}) {
    for (size_t batch : {size_t{1}, size_t{1024}}) {
      QueryProfile::RenderOptions stable;
      stable.timing = false;
      stable.buffer = false;
      std::string baseline;
      for (size_t threads : {1u, 2u, 8u}) {
        ExplainOptions options;
        options.analyze = true;
        // Feedback writeback would change the plan between profiled runs;
        // this test is about render determinism, not plan evolution.
        options.query.feedback = false;
        options.query.exec_threads = threads;
        options.query.batch_size = batch;
        MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult res, db_.Explain(sql, options));
        ASSERT_TRUE(res.analyzed);
        ASSERT_NE(res.profile, nullptr);
        // Optimizer temp-variable names (_tN) come from a counter that advances
        // across queries; normalize them so only real shape differences count.
        std::string rendered = std::regex_replace(res.profile->Render(stable),
                                                  std::regex("_t[0-9]+"), "_t#");
        // Each operator line pairs (est ...) with (actual ...); operators that
        // produced RowBatches also report batches=.
        size_t lines = 0;
        bool saw_batches = false;
        std::istringstream in(rendered);
        std::string line;
        while (std::getline(in, line)) {
          lines++;
          EXPECT_NE(line.find("actual rows="), std::string::npos) << line;
          if (line.find("batches=") != std::string::npos) saw_batches = true;
          if (line.find("RESULT") == std::string::npos &&
              line.find("PROJECT") == std::string::npos &&
              line.find("ORDER BY") == std::string::npos &&
              line.find("GROUP BY") == std::string::npos &&
              line.find("HAVING") == std::string::npos &&
              line.find("DISTINCT") == std::string::npos) {
            EXPECT_NE(line.find("est rows="), std::string::npos) << line;
          }
        }
        EXPECT_GE(lines, 3u) << rendered;
        EXPECT_TRUE(saw_batches) << rendered;
        if (baseline.empty()) {
          baseline = rendered;
        } else {
          EXPECT_EQ(rendered, baseline)
              << sql << " render differs at threads=" << threads << " batch=" << batch;
        }
        // The analyzed run also returns the query's rows.
        EXPECT_EQ(res.result.rows.size(), res.profile->rows_out);
      }
    }
  }
}

TEST_F(ObsFixture, ExplainJsonFormat) {
  ExplainOptions options;
  options.analyze = true;
  options.format = ExplainOptions::Format::kJson;
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult res,
                            db_.Explain(paperdb::kExample82Query, options));
  std::string json = res.Render();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"label\":\"RESULT\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  EXPECT_NE(json.find("\"est_rows\":"), std::string::npos);

  // Plan-only JSON renders the estimate skeleton.
  ExplainOptions plain;
  plain.format = ExplainOptions::Format::kJson;
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult res2,
                            db_.Explain(paperdb::kExample82Query, plain));
  std::string json2 = res2.Render();
  EXPECT_EQ(json2.front(), '{');
  EXPECT_NE(json2.find("\"est_cost\":"), std::string::npos);
  EXPECT_EQ(json2.find("time_ms"), std::string::npos);
}

TEST_F(ObsFixture, ConsolidatedExplainCoversLegacyShapes) {
  // The verbose rendering carries the historical "dictionaries + plan" text...
  ExplainOptions verbose;
  verbose.verbose = true;
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult res,
                            db_.Explain(paperdb::kExample81Query, verbose));
  std::string text = res.Render();
  EXPECT_NE(text.find("Plan:"), std::string::npos);
  EXPECT_NE(text.find("PathSelInfo"), std::string::npos);
  // ...and the plain result exposes the raw optimizer output.
  MOOD_ASSERT_OK_AND_ASSIGN(ExplainResult plain,
                            db_.Explain(paperdb::kExample81Query, ExplainOptions{}));
  EXPECT_NE(plain.optimized.plan, nullptr);
  EXPECT_FALSE(plain.analyzed);
}

// ---------------------------------------------------------------------------
// Per-call QueryOptions and ExecResult shape
// ---------------------------------------------------------------------------

TEST_F(ObsFixture, QueryOptionsPerCallThreadsMatchDefault) {
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult base, db_.Query(paperdb::kExample81Query));
  for (size_t threads : {1u, 2u, 8u}) {
    QueryOptions options;
    options.exec_threads = threads;
    MOOD_ASSERT_OK_AND_ASSIGN(QueryResult got,
                              db_.Query(paperdb::kExample81Query, options));
    ASSERT_EQ(got.rows.size(), base.rows.size()) << "threads=" << threads;
    EXPECT_EQ(got.ToString(), base.ToString()) << "threads=" << threads;
  }
}

TEST_F(ObsFixture, CollectProfileAttachesProfile) {
  QueryOptions options;
  options.collect_profile = true;
  MOOD_ASSERT_OK_AND_ASSIGN(ExecResult res,
                            db_.Execute(paperdb::kExample82Query, options));
  EXPECT_EQ(res.kind, ExecResult::Kind::kQuery);
  ASSERT_NE(res.profile, nullptr);
  EXPECT_EQ(res.profile->rows_out, res.query.rows.size());
  EXPECT_FALSE(res.profile->children.empty());
  // Off by default.
  MOOD_ASSERT_OK_AND_ASSIGN(ExecResult plain, db_.Execute(paperdb::kExample82Query));
  EXPECT_EQ(plain.profile, nullptr);
}

TEST_F(ObsFixture, CreatedOidIsOptional) {
  MOOD_ASSERT_OK_AND_ASSIGN(ExecResult sel, db_.Execute("SELECT v FROM Vehicle v"));
  EXPECT_FALSE(sel.created_oid.has_value());
  MOOD_ASSERT_OK_AND_ASSIGN(
      ExecResult created,
      db_.Execute("NEW Employee <998, 'Obs Person', 44>"));
  ASSERT_TRUE(created.created_oid.has_value());
  EXPECT_TRUE(created.created_oid->valid());
}

}  // namespace
}  // namespace mood
