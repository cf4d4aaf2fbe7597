// Reproduces Example 8.2 (Algorithm 8.2, implicit join ordering):
//   Table 17's role — the initial per-pair cost and selectivity estimations for
//   all four join strategies — and the paper's two-step plan:
//     T1    = JOIN(BIND(VehicleDriveTrain,d), SELECT(BIND(VehicleEngine,e),
//             cylinders=2), HASH_PARTITION, d.engine = e.self)
//     final = JOIN(BIND(Vehicle,v), T1, HASH_PARTITION, v.drivetrain = d.self)

#include "bench/bench_util.h"
#include "cost/join_costs.h"

using namespace mood;
using namespace mood::bench;

namespace {

struct PairCosts {
  double ftc, btc, hhc;
};

PairCosts CostPair(const Database& db, StatisticsManager* stats,
                   const std::string& c_cls, const std::string& attr,
                   const std::string& d_cls, double k_c, double k_d, bool c_acc,
                   bool d_acc, const DiskParameters& disk) {
  ImplicitJoinInput in;
  ClassStats cs = CheckV(stats->Class(c_cls), "cs");
  ClassStats ds = CheckV(stats->Class(d_cls), "ds");
  ReferenceStats rs = CheckV(stats->Reference(c_cls, attr), "rs");
  in.k_c = k_c;
  in.k_d = k_d;
  in.card_c = static_cast<double>(cs.cardinality);
  in.card_d = static_cast<double>(ds.cardinality);
  in.nbpages_c = cs.nbpages;
  in.nbpages_d = ds.nbpages;
  in.fan = rs.fan;
  in.totref = static_cast<double>(rs.totref);
  in.c_accessed_previously = c_acc;
  in.d_accessed_previously = d_acc;
  (void)db;
  return PairCosts{ForwardTraversalCost(in, disk), BackwardTraversalCost(in, disk),
                   HashPartitionJoinCost(in, disk)};
}

}  // namespace

int main() {
  BenchDb scratch("example82");
  Database db;
  Check(db.Open(scratch.Path("mood")), "open");
  Check(paperdb::CreatePaperSchema(&db), "schema");
  paperdb::InstallPaperStatistics(db.stats());
  DiskParameters disk = PaperCalibratedDiskParameters();

  std::printf("Query (Example 8.2):\n  %s\n", paperdb::kExample82Query);

  Banner("Table 17 (reconstructed): initial jc / js estimations per adjacent pair");
  {
    // Initial candidate pairs of the path v.drivetrain.engine with the terminal
    // selection cylinders=2 applied to VehicleEngine (k = 10000/16 = 625).
    Table t({"pair <C_i, C_i+1>", "k_c", "k_d", "ftc", "btc", "hhc", "min jc",
             "js", "jc/(1-js)"});
    struct Row {
      const char* label;
      const char* c_cls;
      const char* attr;
      const char* d_cls;
      double k_c, k_d;
      bool c_acc, d_acc;
    };
    Row rows[] = {
        {"<Vehicle, DriveTrain>", "Vehicle", "drivetrain", "VehicleDriveTrain", 20000,
         10000, false, false},
        {"<DriveTrain, Engine(sel)>", "VehicleDriveTrain", "engine", "VehicleEngine",
         10000, 625, false, true},
    };
    for (const Row& r : rows) {
      PairCosts c = CostPair(db, db.stats(), r.c_cls, r.attr, r.d_cls, r.k_c, r.k_d,
                             r.c_acc, r.d_acc, disk);
      double jc = std::min({c.ftc, c.btc, c.hhc});
      ClassStats ds = CheckV(db.stats()->Class(r.d_cls), "d");
      ReferenceStats rs = CheckV(db.stats()->Reference(r.c_cls, r.attr), "r");
      double js = std::min(0.99, rs.fan * r.k_d / static_cast<double>(ds.cardinality));
      t.AddRow({r.label, Fmt(r.k_c, 0), Fmt(r.k_d, 0), Fmt(c.ftc, 1), Fmt(c.btc, 1),
                Fmt(c.hhc, 1), Fmt(jc, 1), Fmt(js, 4), Fmt(jc / (1 - js), 1)});
    }
    t.Print();
    std::printf(
        "greedy pick: the <DriveTrain, Engine(sel)> pair has the lower jc/(1-js)\n"
        "(the Vehicle pair's js ~ 1 makes it useless as a filter), matching the\n"
        "paper's T1.\n");
  }

  auto optimized = CheckV(db.Explain(paperdb::kExample82Query, {}), "optimize").optimized;
  Banner("Access plan (paper: both joins HASH_PARTITION, engine selection first)");
  std::printf("%s\n", optimized.plan->Explain().c_str());
  std::printf("compact: %s\n", optimized.plan->ToString().c_str());

  Checks checks;
  Banner("Paper conformance checks");
  std::string plan = optimized.plan->ToString();
  checks.Expect(plan.find("SELECT(BIND(VehicleEngine") != std::string::npos,
                "engine selection (cylinders=2) pushed into the leaf");
  checks.Expect(plan.find("HASH_PARTITION, v.drivetrain =") != std::string::npos,
                "final join v.drivetrain = d.self uses HASH_PARTITION");
  size_t first_hash = plan.find("HASH_PARTITION");
  size_t last_hash = plan.rfind("HASH_PARTITION");
  checks.Expect(first_hash != std::string::npos && first_hash != last_hash,
                "both implicit joins use HASH_PARTITION");
  checks.Expect(plan.find("FORWARD_TRAVERSAL") == std::string::npos,
                "no forward traversal at 20000 unselected roots");
  // The inner join (T1) must appear inside the left or right child of the final
  // join, pairing VehicleDriveTrain with the engine selection.
  size_t t1 = plan.find("JOIN(BIND(VehicleDriveTrain");
  checks.Expect(t1 != std::string::npos,
                "T1 = JOIN(BIND(VehicleDriveTrain, ...), SELECT(...engine...))");

  // Measured: run the same query on real data and verify result correctness.
  Banner("Measured execution (scale = 300)");
  {
    BenchDb scratch2("example82_measured");
    Database mdb;
    Check(mdb.Open(scratch2.Path("mood")), "open measured");
    Check(paperdb::CreatePaperSchema(&mdb), "schema measured");
    Check(paperdb::PopulatePaperData(&mdb, 300).status(), "populate");
    Check(mdb.CollectAllStatistics(), "collect");
    auto qr = CheckV(mdb.Query(paperdb::kExample82Query), "query");
    // Brute-force reference count.
    size_t expected = 0;
    ObjectManager* objects = mdb.objects();
    Check(objects->ScanExtent("Vehicle", false, {},
                              [&](Oid oid, const MoodValue&) {
                                return objects->ChaseRefs(
                                    oid, {"drivetrain", "engine"}, nullptr,
                                    [&](Oid engine) -> Status {
                                      MOOD_ASSIGN_OR_RETURN(
                                          MoodValue v,
                                          objects->GetAttribute(engine, "cylinders"));
                                      if (v.AsInteger() == 2) expected++;
                                      return Status::OK();
                                    });
                              }),
          "scan");
    std::printf("  optimizer plan rows = %zu, brute force = %zu\n", qr.rows.size(),
                expected);
    checks.Expect(qr.rows.size() == expected, "optimized plan returns exact result");
  }
  return checks.ExitCode();
}
