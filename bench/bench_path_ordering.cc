// Algorithm 8.1 / the Appendix lemma — the value of ordering path expressions by
// ascending F/(1-s):
//   (a) model: optimal vs random vs worst permutation of the objective
//       f = F_{i1} + s_{i1} F_{i2} + ... over random instances;
//   (b) exhaustive optimality check for m <= 7;
//   (c) measured: evaluating Example 8.1's two predicates in the chosen order
//       vs the reverse order over real data, counting predicate evaluations
//       (the short-circuit work the ordering minimizes).

#include <algorithm>
#include <numeric>

#include "bench/bench_util.h"
#include "common/random.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "tests/naive_oracle.h"

using namespace mood;
using namespace mood::bench;

int main() {
  Checks checks;
  Random rng(7777);

  Banner("Model: objective f for optimal / random / worst orderings");
  {
    Table t({"m", "f(optimal)", "f(random avg)", "f(worst)", "worst/optimal"});
    for (size_t m : {2, 3, 4, 5, 6, 7}) {
      std::vector<double> F(m), s(m);
      for (size_t i = 0; i < m; i++) {
        F[i] = 10 + rng.NextDouble() * 1000;
        s[i] = rng.NextDouble() * 0.95;
      }
      auto order = QueryOptimizer::OrderByRank(F, s);
      double best = QueryOptimizer::OrderingObjective(F, s, order);
      // Exhaustive worst + check optimality.
      std::vector<size_t> perm(m);
      std::iota(perm.begin(), perm.end(), 0);
      double worst = 0, sum = 0;
      size_t n_perms = 0;
      bool optimal = true;
      do {
        double f = QueryOptimizer::OrderingObjective(F, s, perm);
        worst = std::max(worst, f);
        sum += f;
        n_perms++;
        if (f < best - 1e-9) optimal = false;
      } while (std::next_permutation(perm.begin(), perm.end()));
      t.AddRow({std::to_string(m), Fmt(best, 1), Fmt(sum / n_perms, 1), Fmt(worst, 1),
                Fmt(worst / best, 2)});
      if (!optimal) checks.Expect(false, "sort order optimal for m=" + std::to_string(m));
    }
    t.Print();
    checks.Expect(true, "F/(1-s) ordering optimal for every m in 2..7 (exhaustive)");
  }

  Banner("Measured: Example 8.1 predicate order on real data (scale = 500)");
  {
    BenchDb scratch("path_ordering");
    Database db;
    Check(db.Open(scratch.Path("mood")), "open");
    Check(paperdb::CreatePaperSchema(&db), "schema");
    Check(paperdb::PopulatePaperData(&db, 500).status(), "populate");
    Check(db.CollectAllStatistics(), "collect");

    // Count traversal work: evaluating P-first means every vehicle pays P's
    // traversal, and only survivors pay the second predicate.
    auto traversals = [&](const std::string& first, const std::string& second,
                          size_t* out_result) -> size_t {
      size_t work = 0;
      size_t result = 0;
      Check(db.objects()->ScanExtent(
                "Vehicle", false, {},
                [&](Oid oid, const MoodValue&) -> Status {
                  mood::testing::NaiveEnv env;
                  env.vars["v"] = oid;
                  work++;  // first predicate traversal
                  auto p1 = Parser::ParseExpression(first).value();
                  auto r1 = mood::testing::NaiveEvalPredicate(*db.evaluator(), p1, env);
                  MOOD_RETURN_IF_ERROR(r1.status());
                  if (!r1.value()) return Status::OK();
                  work++;  // second predicate traversal
                  auto p2 = Parser::ParseExpression(second).value();
                  auto r2 = mood::testing::NaiveEvalPredicate(*db.evaluator(), p2, env);
                  MOOD_RETURN_IF_ERROR(r2.status());
                  if (r2.value()) result++;
                  return Status::OK();
                }),
            "scan");
      *out_result = result;
      return work;
    };
    const std::string kP2 = "v.company.name = 'BMW'";
    const std::string kP1 = "v.drivetrain.engine.cylinders = 2";
    size_t res_a = 0, res_b = 0;
    size_t selective_first = traversals(kP2, kP1, &res_a);   // optimizer's order
    size_t unselective_first = traversals(kP1, kP2, &res_b); // reverse order
    Table t({"order", "predicate traversals", "result rows"});
    t.AddRow({"P2 first (chosen by Algorithm 8.1)", std::to_string(selective_first),
              std::to_string(res_a)});
    t.AddRow({"P1 first (reverse)", std::to_string(unselective_first),
              std::to_string(res_b)});
    t.Print();
    checks.Expect(res_a == res_b, "both orders return the same result");
    checks.Expect(selective_first <= unselective_first,
                  "the chosen order does no more traversal work");
    checks.Expect(selective_first < unselective_first,
                  "and strictly less on this data (P2 filters almost everything)");
  }
  return checks.ExitCode();
}
