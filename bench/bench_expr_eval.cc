// Compiled batch kernels vs the interpreter: runs filter-heavy single-extent
// queries through the engine (the compiled ExprPrograms are its only
// evaluator) and through a plan-free loop that scans the FROM extent and
// applies the test oracle's interpreter (tests/naive_oracle.h) per object — the loop
// bench_query_e2e times as naive_ms. Reports per-query medians, speedups and
// result parity. Every timed run has the plan and result caches off, so each
// one parses, optimizes, compiles and executes. Separates pure scalar
// predicates (slot + arithmetic, no pointer chasing) from path-bound ones
// (multi-step deref), whose time goes to plan shape and object fetches.

#include <algorithm>
#include <chrono>
#include <functional>

#include "bench/bench_util.h"
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

/// The interpreter loop: scan the single FROM extent, keep the objects the
/// WHERE clause accepts, evaluate the projection on them. Rows come back as
/// rendered lines, sorted (plans may legitimately reorder unordered rows).
Result<std::vector<std::string>> InterpretedRows(Database* db, const std::string& sql) {
  MOOD_ASSIGN_OR_RETURN(Statement parsed, Parser::Parse(sql));
  const auto& select = std::get<SelectStmt>(parsed);
  if (select.from.size() != 1) {
    return Status::InvalidArgument("interpreter loop takes one FROM entry");
  }
  const FromEntry& fe = select.from[0];
  const Evaluator& ev = *db->evaluator();
  mood::testing::NaiveEnv env;
  std::vector<std::string> rows;
  MOOD_RETURN_IF_ERROR(db->objects()->ScanExtent(
      fe.class_name, fe.every, fe.excludes, [&](Oid oid, const MoodValue&) -> Status {
        env.vars[fe.var] = oid;
        if (select.where != nullptr) {
          MOOD_ASSIGN_OR_RETURN(bool keep,
                                mood::testing::NaiveEvalPredicate(ev, select.where, env));
          if (!keep) return Status::OK();
        }
        std::string line;
        for (const ExprPtr& p : select.projection) {
          MOOD_ASSIGN_OR_RETURN(MoodValue v, mood::testing::NaiveEval(ev, p, env));
          line += v.ToString() + " | ";
        }
        rows.push_back(std::move(line));
        return Status::OK();
      }));
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> SortedRows(const QueryResult& r) {
  std::vector<std::string> out;
  for (const auto& row : r.rows) {
    std::string line;
    for (const MoodValue& v : row) line += v.ToString() + " | ";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

template <typename Fn>
double MedianMs(int iters, Fn&& run) {
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; i++) {
    auto start = std::chrono::steady_clock::now();
    run();
    ms.push_back(MillisSince(start));
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = WantJson(argc, argv);
  JsonReport report_json("bench_expr_eval");
  BenchDb scratch("expr_eval");
  Database db;
  Check(db.Open(scratch.Path("mood")), "open");
  Check(paperdb::CreatePaperSchema(&db), "schema");
  auto report = CheckV(paperdb::PopulatePaperData(&db, 800), "populate");
  Check(db.CollectAllStatistics(), "collect");
  std::printf("scale: %llu vehicles, %llu engines\n",
              (unsigned long long)report.vehicles,
              (unsigned long long)report.engines);

  struct Query {
    const char* label;
    const char* key;
    std::string sql;
  };
  // No secondary indexes exist in this bench, so every WHERE clause is
  // evaluated row by row — exactly the path under measurement. `size` has no
  // index either, so the filter-heavy queries stay full scans.
  std::vector<Query> queries = {
      {"scalar arithmetic filter", "scalar_arith",
       "SELECT e FROM VehicleEngine e WHERE e.cylinders * 3 + 1 > 10 AND "
       "e.cylinders < 12"},
      {"scalar comparison chain", "scalar_cmp",
       "SELECT e FROM VehicleEngine e WHERE e.cylinders >= 2 AND e.cylinders <= 8 "
       "AND NOT (e.cylinders = 5) AND e.size > 0 AND e.size < 100000"},
      {"const-foldable filter", "const_fold",
       "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 + 2 AND 1 + 1 = 2"},
      {"single path step", "path1",
       "SELECT v FROM Vehicle v WHERE v.company.name = 'BMW'"},
      {"three path steps (Example 8.2)", "path3", paperdb::kExample82Query},
      {"projection-heavy select", "projection",
       "SELECT e.cylinders, e.cylinders * 2, e.cylinders + 100 FROM VehicleEngine e "
       "WHERE e.cylinders > 0"},
      {"filter-heavy scalar arithmetic", "filter_scalar",
       "SELECT e FROM VehicleEngine e WHERE "
       "(e.size * 3 + e.size / 2 - 7) % 1000 > 100 AND "
       "e.size * 2 - e.size / 4 > 500"},
      {"filter-heavy comparison chain", "filter_chain",
       "SELECT e FROM VehicleEngine e WHERE "
       "e.size >= 1100 AND e.size <= 1350 AND NOT (e.size = 1200)"},
  };

  const int kIters = 15;
  QueryOptions uncached;
  uncached.use_cache = false;
  uncached.exec_threads = 1;  // isolate eval cost from morsel scheduling
  Checks checks;
  Banner("Compiled kernels vs interpreter loop (median of 15, t=1, caches off)");
  Table t({"query", "interpreted ms", "compiled ms", "speedup", "rows"});
  for (const auto& q : queries) {
    auto oracle = CheckV(InterpretedRows(&db, q.sql), q.label);
    auto compiled_res = CheckV(db.Query(q.sql, uncached), q.label);
    checks.Expect(SortedRows(compiled_res) == oracle,
                  std::string(q.label) + ": compiled matches the interpreter loop");

    double interp_ms =
        MedianMs(kIters, [&] { CheckV(InterpretedRows(&db, q.sql), q.label); });
    double comp_ms = MedianMs(kIters, [&] { CheckV(db.Query(q.sql, uncached), q.label); });
    report_json.Metric("interpreted_ms", q.key, interp_ms);
    report_json.Metric("compiled_ms", q.key, comp_ms);
    report_json.Metric("speedup", q.key, interp_ms / std::max(comp_ms, 0.001));
    t.AddRow({q.label, Fmt(interp_ms, 3), Fmt(comp_ms, 3),
              Fmt(interp_ms / std::max(comp_ms, 0.001), 2) + "x",
              std::to_string(oracle.size())});
  }
  t.Print();

  // Layer view of the path-bound queries: buffer-pool fetches (pool-stat
  // deltas, hits + misses) of one run per row of the FROM extent. The
  // interpreter loop pins a page per object per hop; the engine's path steps
  // read each hop of a batch in page order, pinning every page once.
  Banner("Buffer-pool fetches per FROM row (one run, t=1, caches off)");
  Table ft({"query", "interpreted fetches/row", "compiled fetches/row", "from rows"});
  BufferPool* pool = db.storage()->buffer_pool();
  auto fetches_of = [&](const std::function<void()>& run) {
    const BufferPoolStats before = pool->stats();
    run();
    const BufferPoolStats after = pool->stats();
    return static_cast<double>((after.hits + after.misses) - (before.hits + before.misses));
  };
  for (const auto& q : queries) {
    const std::string key = q.key;
    if (key != "path1" && key != "path3") continue;
    Statement parsed = CheckV(Parser::Parse(q.sql), q.label);
    const FromEntry& fe = std::get<SelectStmt>(parsed).from[0];
    const auto rows =
        static_cast<double>(CheckV(db.objects()->ExtentCount(fe.class_name, fe.every), "count"));
    const double interp =
        fetches_of([&] { CheckV(InterpretedRows(&db, q.sql), q.label); }) / rows;
    const double comp = fetches_of([&] { CheckV(db.Query(q.sql, uncached), q.label); }) / rows;
    report_json.Metric("interpreted_fetches_per_row", q.key, interp);
    report_json.Metric("compiled_fetches_per_row", q.key, comp);
    ft.AddRow({q.label, Fmt(interp, 3), Fmt(comp, 3), Fmt(rows, 0)});
  }
  ft.Print();
  std::printf(
      "interpreted = the oracle interpreter over the scanned extent, no plan (the\n"
      "bench_query_e2e naive loop);\n"
      "compiled = the whole uncached engine path, parse through projection.\n"
      "Scalar filters isolate the eval loop (slot load + arithmetic per row).\n"
      "Path-bound queries run the optimizer's plan, which may expand the path\n"
      "into joins that scan the target extents; the loop only chases the\n"
      "references of each scanned object.\n");
  if (json) {
    AddMetricsSnapshot(&report_json, db.metrics());
    report_json.Emit(JsonPath(argc, argv));
  }
  return checks.ExitCode();
}
