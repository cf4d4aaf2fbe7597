// End-to-end value of the Section 7/8 optimizer: runs the paper's example
// queries through (a) the optimized plan and (b) a naive executor that scans
// the cross product of the FROM extents and evaluates the whole WHERE clause
// per row, and reports wall-clock times and result parity.

#include <algorithm>
#include <chrono>

#include "bench/bench_util.h"
#include "core/session.h"
#include "exec/parallel.h"
#include "sql/parser.h"
#include "tests/naive_oracle.h"

using namespace mood;
using namespace mood::bench;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

/// Naive execution: cross product of FROM extents, full WHERE per row.
Result<size_t> NaiveCount(Database* db, const std::string& sql) {
  MOOD_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  const auto& select = std::get<SelectStmt>(stmt);
  std::vector<std::vector<Oid>> extents;
  for (const auto& fe : select.from) {
    std::vector<Oid> oids;
    MOOD_RETURN_IF_ERROR(db->objects()->ScanExtent(fe.class_name, fe.every,
                                                   fe.excludes,
                                                   [&](Oid oid, const MoodValue&) {
                                                     oids.push_back(oid);
                                                     return Status::OK();
                                                   }));
    extents.push_back(std::move(oids));
  }
  size_t count = 0;
  std::vector<size_t> idx(extents.size(), 0);
  std::function<Result<size_t>(size_t, mood::testing::NaiveEnv&)> rec =
      [&](size_t depth, mood::testing::NaiveEnv& env) -> Result<size_t> {
    if (depth == extents.size()) {
      if (select.where == nullptr) return size_t{1};
      MOOD_ASSIGN_OR_RETURN(
          bool keep, mood::testing::NaiveEvalPredicate(*db->evaluator(), select.where, env));
      return keep ? size_t{1} : size_t{0};
    }
    size_t sub = 0;
    for (Oid oid : extents[depth]) {
      env.vars[select.from[depth].var] = oid;
      MOOD_ASSIGN_OR_RETURN(size_t n, rec(depth + 1, env));
      sub += n;
    }
    return sub;
  };
  mood::testing::NaiveEnv env;
  MOOD_ASSIGN_OR_RETURN(count, rec(0, env));
  return count;
}

/// Collects per-operator q-errors (max(actual/est, est/actual), 0.5 floors on
/// both sides) over every profiled operator that carries estimates.
void CollectQErrors(const QueryProfile& p, std::vector<double>* out) {
  if (p.has_estimates && p.est_rows > 0) {
    double actual = std::max<double>(p.rows_out, 0.5);
    double est = std::max(p.est_rows, 0.5);
    out->push_back(std::max(actual / est, est / actual));
  }
  for (const auto& c : p.children) CollectQErrors(*c, out);
}

struct QErrorSummary {
  double median = 1.0;
  double max = 1.0;
};

QErrorSummary SummarizeQErrors(const QueryProfile& p) {
  std::vector<double> q;
  CollectQErrors(p, &q);
  QErrorSummary s;
  if (q.empty()) return s;
  std::sort(q.begin(), q.end());
  s.median = q[q.size() / 2];
  s.max = q.back();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = WantJson(argc, argv);
  JsonReport report_json("bench_query_e2e");
  BenchDb scratch("query_e2e");
  Database db;
  Check(db.Open(scratch.Path("mood")), "open");
  Check(paperdb::CreatePaperSchema(&db), "schema");
  auto report = CheckV(paperdb::PopulatePaperData(&db, 800), "populate");
  Check(db.CollectAllStatistics(), "collect");
  Check(db.Execute("CREATE INDEX eng_cyl ON VehicleEngine(cylinders) USING BTREE")
            .status(),
        "index");
  Check(db.CollectStatistics("VehicleEngine"), "recollect");
  // The timing sections below measure parse/optimize/execute work, so the
  // plan/result caches must stay out of the way; the repeated-query section
  // at the end opts back in per call to measure exactly the caches' effect.
  QueryOptions no_cache_default;
  no_cache_default.use_cache = false;
  db.SetDefaultQueryOptions(no_cache_default);

  std::printf("scale: %llu vehicles, %llu engines, %llu companies\n",
              (unsigned long long)report.vehicles, (unsigned long long)report.engines,
              (unsigned long long)report.companies);

  struct Query {
    const char* label;
    const char* key;  ///< short metric name for --json output
    std::string sql;
    bool run_naive;
  };
  std::vector<Query> queries = {
      {"Example 8.1 (two path predicates)", "example81", paperdb::kExample81Query, true},
      {"Example 8.2 (one path predicate)", "example82", paperdb::kExample82Query, true},
      {"Section 3.1 (explicit join, cross product for naive)", "section31",
       paperdb::kSection31Query, true},
      {"indexed immediate selection", "indexed_select",
       "SELECT e FROM VehicleEngine e WHERE e.cylinders = 4", true},
      {"filter scan (no index)", "filter_scan",
       "SELECT e FROM VehicleEngine e WHERE e.size % 7 < 3", true},
  };

  Checks checks;

  // --- Feedback warmup: one profiled run per query writes measured
  // selectivities and per-operation costs back into the statistics manager;
  // a second profiled run shows the q-errors after the loop closes. Every
  // later section runs against the warmed-up optimizer.
  Banner("Feedback warmup (profiled; q-error cold vs warm)");
  Table ft({"query", "cold ms", "cold qerr med/max", "warm qerr med/max"});
  for (const auto& q : queries) {
    ExplainOptions eo;
    eo.analyze = true;
    auto start = std::chrono::steady_clock::now();
    auto cold = CheckV(db.Explain(q.sql, eo), q.label);
    double cold_ms = MillisSince(start);
    report_json.Metric("optimized_cold_ms", q.key, cold_ms);
    QErrorSummary cold_q = SummarizeQErrors(*cold.profile);
    auto warm = CheckV(db.Explain(q.sql, eo), q.label);
    QErrorSummary warm_q = SummarizeQErrors(*warm.profile);
    report_json.Metric("qerror_median", q.key, warm_q.median);
    report_json.Metric("qerror_max", q.key, warm_q.max);
    ft.AddRow({q.label, Fmt(cold_ms, 1),
               Fmt(cold_q.median, 2) + " / " + Fmt(cold_q.max, 1),
               Fmt(warm_q.median, 2) + " / " + Fmt(warm_q.max, 1)});
  }
  ft.Print();
  std::printf(
      "the first profiled run executes on pure model estimates and records\n"
      "observed cardinalities keyed by predicate signature; the second run's\n"
      "estimates come from those measurements, so its q-errors sit near 1.\n");

  Banner("Optimized vs naive execution (post-warmup, min of 5/3)");
  Table t({"query", "optimized ms", "naive ms", "speedup", "rows", "naive rows"});
  for (const auto& q : queries) {
    double opt_ms = 1e300;
    QueryResult qr;
    for (int i = 0; i < 5; i++) {
      auto start = std::chrono::steady_clock::now();
      qr = CheckV(db.Query(q.sql), q.label);
      opt_ms = std::min(opt_ms, MillisSince(start));
    }
    report_json.Metric("optimized_ms", q.key, opt_ms);

    std::string naive_ms = "-", naive_rows = "-", speedup = "-";
    if (q.run_naive) {
      double ms = 1e300;
      size_t n = 0;
      for (int i = 0; i < 3; i++) {
        auto start = std::chrono::steady_clock::now();
        n = CheckV(NaiveCount(&db, q.sql), "naive");
        ms = std::min(ms, MillisSince(start));
      }
      report_json.Metric("naive_ms", q.key, ms);
      naive_ms = Fmt(ms, 1);
      naive_rows = std::to_string(n);
      speedup = Fmt(ms / std::max(opt_ms, 0.001), 1) + "x";
      checks.Expect(n == qr.rows.size(),
                    std::string(q.label) + ": naive and optimized agree");
      // The point of the feedback loop: after one profiled warmup the
      // optimizer must never lose to the naive cross-product evaluator
      // (pre-feedback, example81 ran ~20x slower optimized than naive).
      checks.Expect(opt_ms <= 1.1 * ms + 0.1,
                    std::string(q.label) + ": optimized <= 1.1x naive (" +
                        Fmt(opt_ms, 2) + " vs " + Fmt(ms, 2) + ")");
    }
    t.AddRow({q.label, Fmt(opt_ms, 1), naive_ms, speedup, std::to_string(qr.rows.size()),
              naive_rows});
  }
  t.Print();
  std::printf(
      "the optimizer's win shows on multi-variable queries, where the naive\n"
      "evaluator pays the cross product (Section 3.1's two range variables).\n"
      "On single-variable path queries the feedback loop is what keeps the\n"
      "optimized plan honest: measured selectivities and per-operation costs\n"
      "replace the paper's 1994 disk model, so chain expansion is only chosen\n"
      "when it actually beats a residual filter over the bound extent.\n");

  // --- Morsel-driven parallelism: the same optimized plans at 1/2/4/8 workers.
  Banner("Intra-query parallelism (threads axis)");
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  Table pt({"query", "t=1 ms", "t=2 ms", "t=4 ms", "t=8 ms", "rows"});
  for (const auto& q : queries) {
    QueryOptions serial_opts;
    serial_opts.exec_threads = 1;
    auto serial = CheckV(db.Query(q.sql, serial_opts), q.label);
    std::vector<std::string> cells = {q.label};
    for (size_t threads : thread_counts) {
      QueryOptions opts;
      opts.exec_threads = threads;
      auto start = std::chrono::steady_clock::now();
      auto qr = CheckV(db.Query(q.sql, opts), q.label);
      double par_ms = MillisSince(start);
      report_json.Metric(std::string("parallel_ms_t") + std::to_string(threads),
                         q.key, par_ms);
      cells.push_back(Fmt(par_ms, 2));
      // Parity is the hard assertion; wall-clock scaling depends on the host's
      // core count (this table is informative, not pass/fail).
      checks.Expect(qr.ToString() == serial.ToString(),
                    std::string(q.label) + ": identical at " +
                        std::to_string(threads) + " threads");
    }
    cells.push_back(std::to_string(serial.rows.size()));
    pt.AddRow(cells);
  }
  pt.Print();
  std::printf(
      "hardware_concurrency on this host: %zu. Results are merged in morsel\n"
      "order, so every thread count returns byte-identical rows; speedup needs\n"
      "real cores and working sets past the hot-cache regime.\n",
      DefaultExecThreads());
  // --- Batch-at-a-time execution: the same plans across the batch-size axis,
  // diffed against the geometry reference (one row per batch, one thread).
  Banner("Batched execution (batch-size axis, reference parity, t=1)");
  const std::vector<size_t> batch_axis = {1, 256, 1024, 4096};
  Table bt({"query", "b=1 ms", "b=256 ms", "b=1024 ms", "b=4096 ms", "b1024 t2 ms",
            "b1024 t8 ms", "rows"});
  for (const auto& q : queries) {
    QueryOptions oracle_opts;
    oracle_opts.exec_threads = 1;
    oracle_opts.batch_size = 1;
    auto oracle = CheckV(db.Query(q.sql, oracle_opts), q.label);
    std::vector<std::string> cells = {q.label};
    for (size_t batch : batch_axis) {
      QueryOptions opts;
      opts.exec_threads = 1;
      opts.batch_size = batch;
      auto start = std::chrono::steady_clock::now();
      auto qr = CheckV(db.Query(q.sql, opts), q.label);
      double ms = MillisSince(start);
      report_json.Metric("batch_ms_b" + std::to_string(batch), q.key, ms);
      cells.push_back(Fmt(ms, 2));
      checks.Expect(qr.ToString() == oracle.ToString(),
                    std::string(q.label) + ": batch=" + std::to_string(batch) +
                        " matches the batch=1 reference");
    }
    // Default batch size at 2 and 8 workers: whole batches are the morsel unit.
    for (size_t threads : {2u, 8u}) {
      QueryOptions opts;
      opts.exec_threads = threads;
      opts.batch_size = 1024;
      auto start = std::chrono::steady_clock::now();
      auto qr = CheckV(db.Query(q.sql, opts), q.label);
      double ms = MillisSince(start);
      report_json.Metric("batch_ms_b1024_t" + std::to_string(threads), q.key, ms);
      cells.push_back(Fmt(ms, 2));
      checks.Expect(qr.ToString() == oracle.ToString(),
                    std::string(q.label) + ": batch=1024 t=" +
                        std::to_string(threads) + " matches the batch=1 reference");
    }
    cells.push_back(std::to_string(oracle.rows.size()));
    bt.AddRow(cells);
  }
  bt.Print();
  std::printf(
      "the morsel merge contract uses RowBatches as the work unit, so every\n"
      "(batch size, thread count) cell is byte-identical to the one-row-per-\n"
      "batch reference; timings separate dispatch overhead (small batches)\n"
      "from columnar evaluation (large batches).\n");

  // --- Repeated-query traffic: the same statement issued over and over, as a
  // hot OLTP-ish workload would. Cold re-runs the whole lex/parse/optimize/
  // compile pipeline per call (use_cache = false); warm goes through
  // Execute(sql) with the plan + result caches on; prepared skips even the
  // re-parse via Database::Prepare.
  Banner("Repeated-query traffic (cold vs warm-cache vs prepared)");
  const int kRepeat = 200;
  QueryOptions cached_opts;
  cached_opts.use_cache = true;
  double speedup_min = 1e300;
  Table rt({"query", "cold q/s", "warm q/s", "prepared q/s", "warm x", "prepared x"});
  for (const auto& q : queries) {
    auto cold_ref = CheckV(db.Query(q.sql), q.label);  // session default: uncached
    auto time_qps = [&](auto&& body) {
      auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kRepeat; i++) body();
      double ms = MillisSince(start);
      return kRepeat / std::max(ms, 1e-6) * 1000.0;
    };
    double cold_qps = time_qps([&] { CheckV(db.Query(q.sql), q.label); });
    double warm_qps =
        time_qps([&] { CheckV(db.Query(q.sql, cached_opts), q.label); });
    auto ps = CheckV(db.Prepare(q.sql), q.label);
    double prep_qps = time_qps([&] { CheckV(ps.Query({}, cached_opts), q.label); });
    // Parity: the cached paths must return exactly the uncached rows.
    auto warm_res = CheckV(db.Query(q.sql, cached_opts), q.label);
    auto prep_res = CheckV(ps.Query({}, cached_opts), q.label);
    checks.Expect(warm_res.ToString() == cold_ref.ToString(),
                  std::string(q.label) + ": warm-cache rows identical to uncached");
    checks.Expect(prep_res.ToString() == cold_ref.ToString(),
                  std::string(q.label) + ": prepared rows identical to uncached");
    report_json.Metric("repeat_cold_qps", q.key, cold_qps);
    report_json.Metric("repeat_warm_qps", q.key, warm_qps);
    report_json.Metric("repeat_prepared_qps", q.key, prep_qps);
    const double warm_x = warm_qps / std::max(cold_qps, 0.001);
    const double prep_x = prep_qps / std::max(cold_qps, 0.001);
    report_json.Metric("repeat_prepared_speedup", q.key, prep_x);
    speedup_min = std::min(speedup_min, prep_x);
    rt.AddRow({q.label, Fmt(cold_qps, 0), Fmt(warm_qps, 0), Fmt(prep_qps, 0),
               Fmt(warm_x, 1) + "x", Fmt(prep_x, 1) + "x"});
  }
  rt.Print();
  checks.Expect(speedup_min >= 5.0,
                "warm-cache prepared execution >= 5x cold on every query (min " +
                    Fmt(speedup_min, 1) + "x)");
  std::printf(
      "cold pays lex+parse+optimize+compile per call; warm hits the plan cache\n"
      "(and, for these read-only statements, the result cache) through the\n"
      "same Execute(sql) the REPL uses; prepared also skips re-parsing.\n");

  // --- Point lookups on a fresh database: no profiled run and no ANALYZE
  // (moodbench's set-up), so the plan rests on the calibration probe alone.
  // The result cache is off, so every lookup executes; the writer phase
  // holds one uncommitted UPDATE of a Vehicle, whose version chain every
  // snapshot probe of the extent must compensate for.
  Banner("Point lookup on a fresh database (unprofiled plan; open writer)");
  {
    BenchDb lookup_dir("query_e2e_lookup");
    DatabaseOptions lookup_opts;
    lookup_opts.result_cache_bytes = 0;
    Database ldb;
    Check(ldb.Open(lookup_dir.Path("mood"), lookup_opts), "open lookup db");
    Check(paperdb::CreatePaperSchema(&ldb), "lookup schema");
    auto lrep = CheckV(paperdb::PopulatePaperData(&ldb, 2000), "lookup populate");
    Check(ldb.Execute("CREATE INDEX veh_id ON Vehicle(id) USING BTREE").status(),
          "lookup index");
    const std::string lookup_sql = "SELECT v.id, v.weight FROM Vehicle v WHERE v.id = ?";
    auto plan = CheckV(ldb.Explain(lookup_sql, {}), "explain lookup");
    const std::string shape = plan.optimized.plan->Describe();
    const bool indsel = plan.optimized.plan->op == PlanOp::kIndexSelect;
    report_json.Metric("lookup_unprofiled_indsel", "vehicle_id", indsel ? 1 : 0);
    checks.Expect(indsel, "fresh unprofiled prepared point lookup plans INDSEL (" +
                              shape + ")");
    auto ps = CheckV(ldb.Prepare(lookup_sql), "prepare lookup");
    const int kLookups = 300;
    // Vehicle-class ids are the multiples of 3 below the population scale.
    const int vehicles = static_cast<int>(lrep.vehicles / 3);
    auto p50_us = [&](int offset) {
      std::vector<double> us;
      for (int i = 0; i < kLookups; i++) {
        const int id = 3 * ((offset + i) % vehicles);
        auto start = std::chrono::steady_clock::now();
        auto qr = CheckV(ps.Query({MoodValue::Integer(id)}), "lookup");
        us.push_back(MillisSince(start) * 1000.0);
        if (qr.rows.size() != 1) checks.Expect(false, "lookup id " + std::to_string(id));
      }
      std::sort(us.begin(), us.end());
      return us[us.size() / 2];
    };
    const double idle_p50 = p50_us(0);
    auto writer = ldb.CreateSession();
    auto txn = CheckV(writer->Begin(), "writer begin");
    Check(writer->Execute("UPDATE Vehicle v SET weight = 1234 WHERE v.id = 3").status(),
          "writer update");
    const double writer_p50 = p50_us(kLookups);
    Check(txn.Abort(), "writer abort");
    report_json.Metric("lookup_p50_us", "no_writer", idle_p50);
    report_json.Metric("lookup_p50_us", "open_writer", writer_p50);
    Table lt({"plan", "p50 us (no writer)", "p50 us (open writer)", "ratio"});
    lt.AddRow({shape, Fmt(idle_p50, 1), Fmt(writer_p50, 1),
               Fmt(writer_p50 / std::max(idle_p50, 1e-3), 2) + "x"});
    lt.Print();
    checks.Expect(writer_p50 <= 2.0 * idle_p50,
                  "point-lookup p50 with an open writer within 2x of no writer (" +
                      Fmt(writer_p50, 1) + " vs " + Fmt(idle_p50, 1) + " us)");
  }
  std::printf(
      "the calibration probe times a few extent pages and fetches on first\n"
      "plan, so a one-row index probe wins without a profiled warm-up; under\n"
      "an open writer the snapshot probe re-tests only the chained objects.\n");

  if (json) {
    AddMetricsSnapshot(&report_json, db.metrics());
    report_json.Emit(JsonPath(argc, argv));
  }
  return checks.ExitCode();
}
