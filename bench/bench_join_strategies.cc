// Section 6 — cost of the implicit join under the four strategies.
// Sweeps k_c (selected objects of the referencing class) on the paper's example
// statistics and prints each strategy's modeled cost and the winner, under both
// the Salzberg-default and the paper-calibrated disk profiles. The paper's
// qualitative claims to hold: forward traversal wins at tiny k_c (if the source
// objects are in memory), hash-partition wins at large k_c, the binary join
// index wins in between when present, and backward traversal only pays off when
// the D side is tiny and CPU is cheap.
// A measured section forces each strategy on the optimizer's plan for the same
// join, runs it through the executor on a cold buffer pool smaller than the
// data, and reports actual page reads per strategy.

#include <chrono>
#include <functional>

#include "bench/bench_util.h"
#include "cost/join_costs.h"
#include "sql/parser.h"

using namespace mood;
using namespace mood::bench;

namespace {

void ModelSweep(StatisticsManager* stats, const DiskParameters& disk,
                const char* profile, bool c_accessed) {
  Banner(std::string("Model sweep (") + profile + ", join Vehicle.drivetrain -> "
         "VehicleDriveTrain, k_d = |D|, source " +
         (c_accessed ? "in memory" : "on disk") + ")");
  ClassStats cs = CheckV(stats->Class("Vehicle"), "c");
  ClassStats ds = CheckV(stats->Class("VehicleDriveTrain"), "d");
  ReferenceStats rs = CheckV(stats->Reference("Vehicle", "drivetrain"), "ref");
  BTreeCostParams bji;  // a plausible two-level join index over 20000 pairs
  bji.order = 200;
  bji.levels = 2;
  bji.leaves = 100;

  Table t({"k_c", "forward", "backward", "hash-partition", "join-index", "winner"});
  for (double k_c : {1.0, 10.0, 100.0, 1000.0, 5000.0, 20000.0}) {
    ImplicitJoinInput in;
    in.k_c = k_c;
    in.k_d = static_cast<double>(ds.cardinality);
    in.card_c = static_cast<double>(cs.cardinality);
    in.card_d = static_cast<double>(ds.cardinality);
    in.nbpages_c = cs.nbpages;
    in.nbpages_d = ds.nbpages;
    in.fan = rs.fan;
    in.totref = static_cast<double>(rs.totref);
    in.c_accessed_previously = c_accessed;
    double ftc = ForwardTraversalCost(in, disk);
    double btc = BackwardTraversalCost(in, disk);
    double hhc = HashPartitionJoinCost(in, disk);
    double bjc = BinaryJoinIndexCost(std::min(in.k_c, in.k_d), bji, disk);
    double best = std::min({ftc, btc, hhc, bjc});
    const char* winner = best == ftc   ? "forward"
                         : best == bjc ? "join-index"
                         : best == hhc ? "hash-partition"
                                       : "backward";
    t.AddRow({Fmt(k_c, 0), Fmt(ftc, 1), Fmt(btc, 1), Fmt(hhc, 1), Fmt(bjc, 1),
              winner});
  }
  t.Print();
}

/// The first pointer-join node of a plan (null when the plan has none).
PlanNode* FindPointerJoin(const PlanPtr& node) {
  if (node == nullptr) return nullptr;
  if (node->op == PlanOp::kPointerJoin) return node.get();
  for (const PlanPtr& c : {node->child, node->left, node->right}) {
    if (PlanNode* found = FindPointerJoin(c)) return found;
  }
  for (const PlanPtr& c : node->children) {
    if (PlanNode* found = FindPointerJoin(c)) return found;
  }
  return nullptr;
}

}  // namespace

int main() {
  BenchDb scratch("join_strategies");
  Database db;
  Check(db.Open(scratch.Path("mood")), "open");
  Check(paperdb::CreatePaperSchema(&db), "schema");
  paperdb::InstallPaperStatistics(db.stats());

  DiskParameters salzberg;  // textbook defaults
  DiskParameters calibrated = PaperCalibratedDiskParameters();
  ModelSweep(db.stats(), calibrated, "paper-calibrated", true);
  ModelSweep(db.stats(), calibrated, "paper-calibrated", false);
  ModelSweep(db.stats(), salzberg, "salzberg-defaults", false);

  Checks checks;
  Banner("Shape checks (who wins where)");
  {
    ClassStats cs = CheckV(db.stats()->Class("Vehicle"), "c");
    ClassStats ds = CheckV(db.stats()->Class("VehicleDriveTrain"), "d");
    ReferenceStats rs = CheckV(db.stats()->Reference("Vehicle", "drivetrain"), "ref");
    auto costs = [&](double k_c, bool accessed) {
      ImplicitJoinInput in;
      in.k_c = k_c;
      in.k_d = static_cast<double>(ds.cardinality);
      in.card_c = static_cast<double>(cs.cardinality);
      in.card_d = static_cast<double>(ds.cardinality);
      in.nbpages_c = cs.nbpages;
      in.nbpages_d = ds.nbpages;
      in.fan = rs.fan;
      in.totref = static_cast<double>(rs.totref);
      in.c_accessed_previously = accessed;
      return std::make_tuple(ForwardTraversalCost(in, calibrated),
                             BackwardTraversalCost(in, calibrated),
                             HashPartitionJoinCost(in, calibrated));
    };
    auto [f1, b1, h1] = costs(1, true);
    checks.Expect(f1 < h1 && f1 < b1, "k_c = 1 (in memory): forward traversal wins");
    auto [f2, b2, h2] = costs(20000, false);
    checks.Expect(h2 < f2 && h2 < b2, "k_c = |C|: hash-partition wins");
    // Crossover exists somewhere in between.
    bool crossover = false;
    const char* prev = nullptr;
    for (double k : {1.0, 10.0, 100.0, 1000.0, 5000.0, 20000.0}) {
      auto [f, b, h] = costs(k, true);
      const char* w = f <= h && f <= b ? "f" : (h <= b ? "h" : "b");
      if (prev != nullptr && w != prev) crossover = true;
      prev = w;
    }
    checks.Expect(crossover, "a forward/hash crossover exists as k_c grows");
  }

  // Measured: each JoinMethod forced on the optimizer's plan and run through
  // Executor::ExecutePlan. Every strategy starts from a freshly opened
  // database, so its buffer pool is cold, and the pool is smaller than the two
  // joined extents, so the join has to read pages from disk.
  const std::string join_sql =
      "SELECT v FROM Vehicle v, VehicleDriveTrain d WHERE v.drivetrain = d";
  constexpr uint64_t kScale = 4000;
  constexpr size_t kPoolPages = 16;
  Banner("Measured page reads (scale = " + std::to_string(kScale) +
         ", cold buffer pool of " + std::to_string(kPoolPages) + " pages per strategy)");
  {
    BenchDb scratch2("join_measured");
    const std::string path = scratch2.Path("mood");
    DatabaseOptions opts;
    opts.pool_pages = kPoolPages;
    size_t data_pages = 0;
    {
      Database mdb;
      Check(mdb.Open(path, opts), "open measured");
      Check(paperdb::CreatePaperSchema(&mdb), "schema");
      Check(paperdb::PopulatePaperData(&mdb, kScale).status(), "populate");
      Check(mdb.CollectAllStatistics(), "collect");
      Check(mdb.objects()->CreateBinaryJoinIndex("v_dt", "Vehicle", "drivetrain"),
            "bji");
      for (const char* cls : {"Vehicle", "VehicleDriveTrain"}) {
        data_pages += CheckV(mdb.objects()->ExtentPageIds(cls), "pages").size();
      }
      Check(mdb.Close(), "close measured");
    }
    std::printf("joined extents: %zu pages; buffer pool: %zu pages\n", data_pages,
                kPoolPages);
    checks.Expect(data_pages > kPoolPages, "the joined extents do not fit in the pool");
    Statement parsed = CheckV(Parser::Parse(join_sql), "parse");
    const auto& select = std::get<SelectStmt>(parsed);

    Table t({"strategy", "pairs", "disk reads", "pool hits", "pool misses"});
    size_t pairs0 = 0;
    for (JoinMethod m : {JoinMethod::kForwardTraversal, JoinMethod::kHashPartition,
                         JoinMethod::kBackwardTraversal, JoinMethod::kIndexed}) {
      Database mdb;
      Check(mdb.Open(path, opts), "reopen measured");
      auto optimized = CheckV(mdb.optimizer()->Optimize(select, false), "optimize");
      PlanNode* join = FindPointerJoin(optimized.plan);
      checks.Expect(join != nullptr, "the optimizer plans a pointer join");
      if (join == nullptr) break;
      join->method = m;
      mdb.storage()->disk()->ResetStats();
      mdb.storage()->buffer_pool()->ResetStats();
      BatchSet rows = CheckV(mdb.executor()->ExecutePlan(optimized.plan), "execute");
      const uint64_t reads = mdb.storage()->disk()->stats().reads;
      t.AddRow({std::string(JoinMethodName(m)), std::to_string(rows.ActiveRows()),
                std::to_string(reads),
                std::to_string(mdb.storage()->buffer_pool()->stats().hits),
                std::to_string(mdb.storage()->buffer_pool()->stats().misses)});
      if (pairs0 == 0) pairs0 = rows.ActiveRows();
      checks.Expect(rows.ActiveRows() == pairs0 && pairs0 > 0,
                    std::string(JoinMethodName(m)) + " returns the same pairs");
      checks.Expect(reads > 0, std::string(JoinMethodName(m)) + " reads pages from disk");
    }
    t.Print();
    std::printf(
        "note: forward traversal, backward traversal and hash partitioning run\n"
        "one reference chase in the executor, so they read the same pages; it\n"
        "reads each hop of a left batch in page order, pinning every page once.\n"
        "Only the binary join index probes differently. The modeled costs above\n"
        "price the three access patterns of Section 6, which is what the\n"
        "optimizer decides on.\n");
  }

  {
    BenchDb scratch3("join_parallel");
    Database mdb;
    Check(mdb.Open(scratch3.Path("mood")), "open parallel");
    Check(paperdb::CreatePaperSchema(&mdb), "schema");
    Check(paperdb::PopulatePaperData(&mdb, 400).status(), "populate");
    Check(mdb.CollectAllStatistics(), "collect");

    // Probe-side parallelism: the same implicit join end-to-end through the
    // executor at 1/2/4 worker threads. The probe (reference-chasing) side
    // partitions into row morsels; results must match serial exactly.
    Banner("Parallel probe scaling (implicit join via executor)");
    QueryOptions serial_opts;
    serial_opts.exec_threads = 1;
    auto serial = CheckV(mdb.Query(join_sql, serial_opts), "serial join");
    Table pt({"threads", "ms", "pairs"});
    for (size_t threads : {1u, 2u, 4u}) {
      QueryOptions opts;
      opts.exec_threads = threads;
      auto start = std::chrono::steady_clock::now();
      auto qr = CheckV(mdb.Query(join_sql, opts), "parallel join");
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      checks.Expect(qr.ToString() == serial.ToString(),
                    "parallel probe identical at " + std::to_string(threads) +
                        " threads");
      pt.AddRow({std::to_string(threads), Fmt(ms, 2),
                 std::to_string(qr.rows.size())});
    }
    pt.Print();
  }
  return checks.ExitCode();
}
