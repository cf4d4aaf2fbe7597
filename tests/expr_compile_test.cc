#include "exec/expr_compile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/paper_example.h"
#include "sql/parser.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::ExpectNaiveMatch;
using testing::TempDir;

/// Paper database at a small scale. Two differential references: the
/// plan-free naive oracle (tests/naive_oracle.h) for whole queries, and
/// Evaluator::Eval row by row for the compiled batch kernels themselves.
class ExprCompileFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood")));
    MOOD_ASSERT_OK(paperdb::CreatePaperSchema(&db_));
    MOOD_ASSERT_OK_AND_ASSIGN(report_, paperdb::PopulatePaperData(&db_, 90));
    MOOD_ASSERT_OK(db_.CollectAllStatistics());
  }

  /// The query-level contract on the fixed queries: the engine and the naive
  /// oracle agree on success, on the sorted rows and on the status text.
  void ExpectDifferentialMatch(const std::string& sql) {
    ExpectNaiveMatch(&db_, sql, /*same_error=*/true);
  }

  /// For queries the binder rejects statically (a CatalogError before any
  /// plan runs; the naive oracle has no binder): the comparison moves to the
  /// kernel level, where each row must match the interpreter exactly.
  void ExpectBinderRejects(const std::string& sql) {
    auto engine = db_.Query(sql);
    ASSERT_FALSE(engine.ok()) << sql;
    EXPECT_EQ(engine.status().code(), StatusCode::kCatalogError) << sql;
    ExpectKernelMatch(sql);
  }

  /// The kernel-level contract: the WHERE clause of `sql`, compiled against
  /// its single FROM entry, evaluated over that extent in batches of 1, 7 and
  /// 64 rows, yields for every row the value (byte-identical encoding) or the
  /// status that Evaluator::Eval yields for that row alone.
  void ExpectKernelMatch(const std::string& sql) {
    SCOPED_TRACE(sql);
    auto parsed = Parser::Parse(sql);
    MOOD_ASSERT_OK(parsed.status());
    const SelectStmt& stmt = std::get<SelectStmt>(parsed.value());
    ASSERT_EQ(stmt.from.size(), 1u);
    const FromEntry& fe = stmt.from[0];
    ExprCompileEnv env;
    env.vars[fe.var] = {0, fe.class_name};
    auto prog = ExprCompiler(db_.evaluator()).Compile(stmt.where, env);
    ASSERT_NE(prog, nullptr);
    std::vector<Oid> extent;
    MOOD_ASSERT_OK(db_.objects()->ScanExtent(fe.class_name, fe.every, fe.excludes,
                                             [&](Oid oid, const MoodValue&) {
                                               extent.push_back(oid);
                                               return Status::OK();
                                             }));
    ASSERT_FALSE(extent.empty());
    auto encode = [](const MoodValue& v) {
      std::string out;
      v.EncodeTo(&out);
      return out;
    };
    for (size_t batch : {1u, 7u, 64u}) {
      ExprProgram::BatchScratch scratch;
      for (size_t start = 0; start < extent.size(); start += batch) {
        RowBatch b(1, batch);
        for (size_t i = start; i < std::min(start + batch, extent.size()); i++) {
          b.PushRow(&extent[i], 1);
        }
        prog->EvalBatch(b, SnapshotView{}, &scratch);
        for (size_t k = 0; k < b.ActiveRows(); k++) {
          testing::NaiveEnv row_env;
          row_env.vars[fe.var] = extent[start + k];
          auto want = testing::NaiveEval(*db_.evaluator(), stmt.where, row_env);
          const std::string where = "batch " + std::to_string(batch) + " row " +
                                    std::to_string(start + k);
          if (!want.ok()) {
            ASSERT_EQ(scratch.flags[k], ExprProgram::kRowError) << where;
            EXPECT_EQ(scratch.errors[k].ToString(), want.status().ToString()) << where;
          } else {
            ASSERT_EQ(scratch.flags[k], ExprProgram::kRowOk)
                << where << ": " << scratch.errors[k].ToString();
            EXPECT_EQ(encode(scratch.values[k]), encode(want.value()))
                << where << ": " << scratch.values[k].ToString() << " vs "
                << want.value().ToString();
          }
        }
      }
    }
  }

  /// Parses `SELECT ... WHERE <pred>` and compiles the WHERE clause directly.
  ExprPtr ParseWhere(const std::string& sql) {
    auto stmt = Parser::Parse(sql);
    EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
    if (!stmt.ok()) return nullptr;
    return std::get<SelectStmt>(stmt.value()).where;
  }

  std::unique_ptr<ExprProgram> CompileWhere(const std::string& sql,
                                            const ExprCompileEnv& env) {
    ExprPtr where = ParseWhere(sql);
    if (where == nullptr) return nullptr;
    return ExprCompiler(db_.evaluator()).Compile(where, env);
  }

  static ExprCompileEnv EngineEnv() {
    ExprCompileEnv env;
    env.vars["e"] = {0, "VehicleEngine"};
    return env;
  }

  static ExprCompileEnv VehicleEnv() {
    ExprCompileEnv env;
    env.vars["v"] = {0, "Vehicle"};
    return env;
  }

  /// One Company with a `scaled(n Integer) Integer` method (returns n * 2)
  /// and a Vehicle with id 777 whose company is Null, for receiver tests.
  void AddScaledMethodAndNullCompanyVehicle() {
    MoodsFunction decl;
    decl.name = "scaled";
    decl.return_type = TypeDesc::Basic(BasicType::kInteger);
    decl.params = {{"n", TypeDesc::Basic(BasicType::kInteger)}};
    MOOD_ASSERT_OK(db_.functions()->Register(
        "Company", decl, [](const MethodContext&, const std::vector<MoodValue>& args) {
          return Result<MoodValue>(MoodValue::Integer(args[0].AsInteger() * 2));
        }));
    MOOD_ASSERT_OK(db_.objects()
                       ->CreateObject("Vehicle",
                                      MoodValue::Tuple({MoodValue::Integer(777),
                                                        MoodValue::Integer(1500),
                                                        MoodValue::Null(),
                                                        MoodValue::Null()}))
                       .status());
  }

  TempDir dir_;
  Database db_;
  paperdb::PopulateReport report_;
};

// ---------------------------------------------------------------------------
// Golden bytecode dumps
// ---------------------------------------------------------------------------

TEST_F(ExprCompileFixture, GoldenSimpleComparison) {
  auto prog = CompileWhere("SELECT e FROM VehicleEngine e WHERE e.cylinders = 4",
                           EngineEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(),
            "0000 LoadAttr    s0 a0 (VehicleEngine.cylinders)\n"
            "0001 PushConst   c0 Integer(4)\n"
            "0002 Compare     =\n");
  EXPECT_EQ(prog->const_folded(), 0u);
}

TEST_F(ExprCompileFixture, GoldenConstantSubtreeFolds) {
  // `2 + 2` disappears at compile time; the dump is identical to `= 4`.
  auto prog = CompileWhere(
      "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2 + 2", EngineEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(),
            "0000 LoadAttr    s0 a0 (VehicleEngine.cylinders)\n"
            "0001 PushConst   c0 Integer(4)\n"
            "0002 Compare     =\n");
  EXPECT_EQ(prog->const_folded(), 1u);
}

TEST_F(ExprCompileFixture, GoldenWholePredicateFolds) {
  auto prog =
      CompileWhere("SELECT e FROM VehicleEngine e WHERE 1 + 1 = 2", EngineEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(), "0000 PushConst   c0 Boolean(true)\n");
  EXPECT_EQ(prog->const_folded(), 1u);
}

TEST_F(ExprCompileFixture, GoldenShortCircuitJumps) {
  auto prog = CompileWhere(
      "SELECT e FROM VehicleEngine e WHERE e.cylinders > 2 AND e.size < 100",
      EngineEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(),
            "0000 LoadAttr    s0 a0 (VehicleEngine.cylinders)\n"
            "0001 PushConst   c0 Integer(2)\n"
            "0002 Compare     >\n"
            "0003 JumpIfFalse -> 0008\n"
            "0004 LoadAttr    s0 a1 (VehicleEngine.size)\n"
            "0005 PushConst   c1 Integer(100)\n"
            "0006 Compare     <\n"
            "0007 CoerceBool  \n");
}

TEST_F(ExprCompileFixture, GoldenMultiStepPath) {
  auto prog = CompileWhere(
      "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2",
      VehicleEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(),
            "0000 LoadAttr    s0 a0 (Vehicle.drivetrain)\n"
            "0001 DerefAttr   a1 (VehicleDriveTrain.engine)\n"
            "0002 DerefAttr   a2 (VehicleEngine.cylinders)\n"
            "0003 PushConst   c0 Integer(2)\n"
            "0004 Compare     =\n");
}

TEST_F(ExprCompileFixture, NonDecidingConstLhsElides) {
  // `1 = 1 AND p` reduces to CoerceBool(p): the constant conjunct vanishes
  // but the node still coerces its result to Boolean like the interpreter.
  auto prog = CompileWhere(
      "SELECT e FROM VehicleEngine e WHERE 1 = 1 AND e.cylinders > 2",
      EngineEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(),
            "0000 LoadAttr    s0 a0 (VehicleEngine.cylinders)\n"
            "0001 PushConst   c0 Integer(2)\n"
            "0002 Compare     >\n"
            "0003 CoerceBool  \n");
  EXPECT_EQ(prog->const_folded(), 1u);
}

TEST_F(ExprCompileFixture, ErroringConstSubtreeStaysInBytecode) {
  // 1 / 0 must error at run time exactly like the interpreter, so the folder
  // abstains and the division survives into bytecode.
  auto prog = CompileWhere(
      "SELECT e FROM VehicleEngine e WHERE e.cylinders = 1 / 0", EngineEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->const_folded(), 0u);
  EXPECT_NE(prog->ToString().find("Arith       /"), std::string::npos);
  ExpectDifferentialMatch("SELECT e FROM VehicleEngine e WHERE e.cylinders = 1 / 0");
}

// ---------------------------------------------------------------------------
// Dynamic constructs: every expression compiles; the kernels run them
// ---------------------------------------------------------------------------

TEST_F(ExprCompileFixture, MethodCallsCompileToCall) {
  // `v.lbweight()` and bare `v.lbweight` (a name outside Vehicle's layout,
  // which resolves to the parameterless method) both step through kCall.
  auto call = CompileWhere("SELECT v FROM Vehicle v WHERE v.lbweight() > 0",
                           VehicleEnv());
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->ToString(),
            "0000 LoadSlot    s0\n"
            "0001 Call        m0 argc=0 (lbweight())\n"
            "0002 PushConst   c0 Integer(0)\n"
            "0003 Compare     >\n");
  auto bare = CompileWhere("SELECT v FROM Vehicle v WHERE v.lbweight > 0",
                           VehicleEnv());
  ASSERT_NE(bare, nullptr);
  EXPECT_NE(bare->ToString().find("Call        m0 argc=0 (lbweight)"),
            std::string::npos)
      << bare->ToString();
  for (const char* sql : {"SELECT v FROM Vehicle v WHERE v.lbweight() > 3000",
                          "SELECT v FROM Vehicle v WHERE v.lbweight > 3000",
                          "SELECT v FROM Vehicle v WHERE v.lbweight() - v.weight > 0"}) {
    ExpectKernelMatch(sql);
    ExpectDifferentialMatch(sql);
  }
  ExpectDifferentialMatch("SELECT v.weight, v.lbweight, v.lbweight() FROM Vehicle v");
}

TEST_F(ExprCompileFixture, MethodArgumentsRunOnlyWhereTheReceiverReachesTheCall) {
  AddScaledMethodAndNullCompanyVehicle();
  // The argument divides by zero exactly on vehicle 777, whose company is
  // Null: the interpreter never evaluates it there, so neither may the kernel.
  const std::string call = "v.company.scaled(100 / (v.id - 777))";
  auto prog = CompileWhere("SELECT v FROM Vehicle v WHERE " + call + " > 0",
                           VehicleEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(),
            "0000 LoadAttr    s0 a0 (Vehicle.company)\n"
            "0001 GuardCall   -> 0008 m0\n"
            "0002 PushConst   c0 Integer(100)\n"
            "0003 LoadAttr    s0 a1 (Vehicle.id)\n"
            "0004 PushConst   c1 Integer(777)\n"
            "0005 Arith       -\n"
            "0006 Arith       /\n"
            "0007 Call        m0 argc=1 (scaled())\n"
            "0008 PushConst   c2 Integer(0)\n"
            "0009 Compare     >\n");
  ExpectKernelMatch("SELECT v FROM Vehicle v WHERE " + call + " > 0");
  ExpectKernelMatch("SELECT v FROM Vehicle v WHERE v.company.scaled(v.weight) > 0");
  ExpectDifferentialMatch("SELECT v.id, " + call + " FROM Vehicle v");
  // Where the receiver is not Null the argument error surfaces, identically.
  ExpectKernelMatch("SELECT v FROM Vehicle v WHERE v.company.scaled(1 / (v.id - v.id)) > 0");
  ExpectDifferentialMatch("SELECT v.company.scaled(1 / (v.id - v.id)) FROM Vehicle v");
}

TEST_F(ExprCompileFixture, UnboundRangeVarFailsEveryRow) {
  auto prog = CompileWhere("SELECT e FROM VehicleEngine e WHERE x.cylinders = 4",
                           EngineEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(),
            "0000 Unbound     (x)\n"
            "0001 PushConst   c1 Integer(4)\n"
            "0002 Compare     =\n");
  ExpectKernelMatch("SELECT e FROM VehicleEngine e WHERE x.cylinders = 4");
  // Short-circuited rows never reach the unbound variable.
  ExpectKernelMatch(
      "SELECT e FROM VehicleEngine e WHERE e.cylinders > 8 AND x.cylinders = 4");
}

TEST_F(ExprCompileFixture, PolymorphicRootCompilesAgainstTheFromClass) {
  // EVERY Vehicle binds Automobile and JapaneseAuto instances too: ordinals
  // bound against Vehicle's layout re-resolve by name for them.
  auto prog = CompileWhere("SELECT v FROM EVERY Vehicle v WHERE v.weight > 0",
                           VehicleEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(),
            "0000 LoadAttr    s0 a0 (Vehicle.weight)\n"
            "0001 PushConst   c0 Integer(0)\n"
            "0002 Compare     >\n");
  for (const char* sql :
       {"SELECT v FROM EVERY Vehicle v WHERE v.weight > 0",
        "SELECT v FROM EVERY Vehicle v WHERE v.drivetrain.engine.cylinders = 4",
        "SELECT v FROM EVERY Vehicle v WHERE v.lbweight() > 3000",
        "SELECT v FROM EVERY Automobile - JapaneseAuto v WHERE v.weight > 1000"}) {
    ExpectKernelMatch(sql);
    ExpectDifferentialMatch(sql);
  }
}

TEST_F(ExprCompileFixture, BareVarAndRootSelfLoadTheSlot) {
  // `v` (and `v.self`) need no layout — just the slot's reference.
  auto prog = CompileWhere("SELECT v FROM Vehicle v WHERE v = v.self", VehicleEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(),
            "0000 LoadSlot    s0\n"
            "0001 LoadSlot    s0\n"
            "0002 Compare     =\n");
}

TEST_F(ExprCompileFixture, NonRootSelfStepsThroughCall) {
  auto prog = CompileWhere(
      "SELECT v FROM Vehicle v WHERE v.drivetrain.self.engine.cylinders = 4",
      VehicleEnv());
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(),
            "0000 LoadAttr    s0 a0 (Vehicle.drivetrain)\n"
            "0001 Call        m0 argc=0 (self)\n"
            "0002 Call        m1 argc=0 (engine)\n"
            "0003 Call        m2 argc=0 (cylinders)\n"
            "0004 PushConst   c0 Integer(4)\n"
            "0005 Compare     =\n");
  // The binder admits `self` only as a path's last step; the kernels handle
  // it anywhere.
  ExpectKernelMatch("SELECT v FROM Vehicle v WHERE v.drivetrain.self = v.drivetrain");
  ExpectDifferentialMatch("SELECT v FROM Vehicle v WHERE v.drivetrain.self = v.drivetrain");
  ExpectDifferentialMatch("SELECT v.company.self, v.drivetrain.engine.self FROM Vehicle v");
  ExpectBinderRejects(
      "SELECT v FROM Vehicle v WHERE v.drivetrain.self.engine.cylinders = 4");
  ExpectBinderRejects("SELECT v FROM Vehicle v WHERE v.weight.self = 1");
}

TEST_F(ExprCompileFixture, MidPathCollectionFanOut) {
  MOOD_ASSERT_OK(db_.Execute("CREATE CLASS Garage TUPLE ("
                             "cars SET (REFERENCE (Vehicle)))")
                     .status());
  std::vector<Oid> vehicles;
  MOOD_ASSERT_OK(db_.objects()->ScanExtent("Vehicle", false, {},
                                           [&](Oid oid, const MoodValue&) {
                                             vehicles.push_back(oid);
                                             return Status::OK();
                                           }));
  ASSERT_GE(vehicles.size(), 12u);
  // Garages of 0, 1, 2, ... cars, and one holding a Null element.
  for (size_t g = 0; g < 5; g++) {
    MoodValue::ValueList cars;
    for (size_t c = 0; c < g; c++) cars.push_back(MoodValue::Reference(vehicles[g + c]));
    if (g == 3) cars.push_back(MoodValue::Null());
    MOOD_ASSERT_OK(db_.objects()
                       ->CreateObject("Garage",
                                      MoodValue::Tuple({MoodValue::Set(std::move(cars))}))
                       .status());
  }
  ExprCompileEnv env;
  env.vars["g"] = {0, "Garage"};
  // The step through the set fans out in the shared path step; the static
  // class is gone after it, so later steps are shared steps too.
  auto prog = CompileWhere("SELECT g FROM Garage g WHERE g.cars.weight > 1000", env);
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->ToString(),
            "0000 LoadAttr    s0 a0 (Garage.cars)\n"
            "0001 Call        m0 argc=0 (weight)\n"
            "0002 PushConst   c0 Integer(1000)\n"
            "0003 Compare     >\n");
  ExpectKernelMatch("SELECT g FROM Garage g WHERE g.cars.weight > 1000");
  ExpectKernelMatch(
      "SELECT g FROM Garage g WHERE g.cars.drivetrain.engine.cylinders = 4");
  // Query level. A `path op constant` WHERE through the set is expanded by the
  // optimizer into pointer joins (one row per matching car, not one per
  // garage), so the query-level cases keep the path inside the kernels: the
  // SELECT list, and predicates the optimizer leaves whole.
  for (const char* sql :
       {"SELECT g FROM Garage g WHERE g.cars = g.cars",
        "SELECT g FROM Garage g WHERE g.cars.lbweight() > 3000",
        "SELECT g FROM Garage g WHERE g.cars.weight = g.cars.weight"}) {
    ExpectKernelMatch(sql);
    ExpectDifferentialMatch(sql);
  }
  ExpectDifferentialMatch(
      "SELECT g.cars.weight, g.cars.company.name, g.cars.lbweight FROM Garage g");
  ExpectBinderRejects("SELECT g FROM Garage g WHERE g.cars.weight.nope = 1");
}

TEST_F(ExprCompileFixture, ShortCircuitParksDecidedRows) {
  // The right-hand sides divide by zero exactly on the cylinders = 8 rows,
  // which the left-hand sides decide: those rows park with their Boolean and
  // rejoin at the jump target, so no error may surface.
  for (const char* pred :
       {"e.cylinders = 8 OR 100 / (e.cylinders - 8) > 0",
        "e.cylinders <> 8 AND 100 / (e.cylinders - 8) > 0",
        "(e.cylinders = 8 OR 100 / (e.cylinders - 8) > 0) AND "
        "(e.cylinders <> 8 AND e.size / (e.cylinders - 8) > 1 OR e.cylinders = 8)",
        "NOT (e.cylinders <> 8 AND 100 / (e.cylinders - 8) < 0) OR e.size < 0"}) {
    ExpectKernelMatch(std::string("SELECT e FROM VehicleEngine e WHERE ") + pred);
    // A SELECT-list Boolean is evaluated whole (no DNF split), so the query
    // level must not error either.
    ExpectDifferentialMatch(std::string("SELECT e.cylinders, ") + pred +
                            " FROM VehicleEngine e");
  }
}

// ---------------------------------------------------------------------------
// Differential: fixed workload
// ---------------------------------------------------------------------------

TEST_F(ExprCompileFixture, PaperQueriesMatch) {
  ExpectDifferentialMatch(paperdb::kExample81Query);
  ExpectDifferentialMatch(paperdb::kExample82Query);
  ExpectDifferentialMatch(paperdb::kSection31Query);
}

TEST_F(ExprCompileFixture, ScalarAndProjectionQueriesMatch) {
  ExpectDifferentialMatch("SELECT e FROM VehicleEngine e WHERE e.cylinders = 4");
  ExpectDifferentialMatch(
      "SELECT e.size, e.cylinders * 2 + 1 FROM VehicleEngine e "
      "WHERE e.cylinders >= 2 AND NOT (e.cylinders = 6)");
  ExpectDifferentialMatch(
      "SELECT e.cylinders FROM VehicleEngine e WHERE 8 < e.cylinders OR "
      "e.size % 7 = 3");
  ExpectDifferentialMatch(
      "SELECT DISTINCT e.cylinders FROM VehicleEngine e ORDER BY e.cylinders");
  ExpectDifferentialMatch("SELECT v.weight, v.lbweight() FROM Vehicle v");
  ExpectDifferentialMatch("SELECT v FROM EVERY Vehicle - JapaneseAuto v "
                          "WHERE v.weight > 1000");
}

TEST_F(ExprCompileFixture, ErrorStatusesMatch) {
  // Type errors and arithmetic errors must surface identically.
  ExpectDifferentialMatch(
      "SELECT e FROM VehicleEngine e WHERE e.cylinders = 'four'");
  ExpectDifferentialMatch(
      "SELECT e FROM VehicleEngine e WHERE e.size / (e.cylinders - e.cylinders) = 1");
  ExpectBinderRejects("SELECT v FROM Vehicle v WHERE v.id.cylinders = 2");
}

// ---------------------------------------------------------------------------
// Differential: fixed-seed randomized expressions
// ---------------------------------------------------------------------------

TEST_F(ExprCompileFixture, RandomizedExpressionsMatch) {
  std::mt19937 rng(20260807);  // fixed seed: failures must reproduce
  auto pick = [&](int n) { return static_cast<int>(rng() % static_cast<uint32_t>(n)); };
  const char* arith[] = {"+", "-", "*", "/", "%"};
  const char* cmp[] = {"=", "<>", "<", "<=", ">", ">="};

  std::function<std::string(int)> term = [&](int depth) -> std::string {
    int c = pick(depth > 0 ? 6 : 4);
    switch (c) {
      case 0: return "e.cylinders";
      case 1: return "e.size";
      case 2: return std::to_string(pick(40) - 5);
      case 3: return "'BMW'";  // type-error fodder
      case 4:
        return "(" + term(depth - 1) + " " + arith[pick(5)] + " " +
               term(depth - 1) + ")";
      default: return "(-" + term(depth - 1) + ")";
    }
  };
  std::function<std::string(int)> pred = [&](int depth) -> std::string {
    if (depth == 0 || pick(3) == 0) {
      return "(" + term(depth) + " " + cmp[pick(6)] + " " + term(depth) + ")";
    }
    switch (pick(3)) {
      case 0: return "(" + pred(depth - 1) + " AND " + pred(depth - 1) + ")";
      case 1: return "(" + pred(depth - 1) + " OR " + pred(depth - 1) + ")";
      default: return "NOT " + pred(depth - 1);
    }
  };

  // Query level: plan-time errors legitimately differ from the naive oracle
  // (DNF splits and reorders conjuncts, constants fold), so rows are compared
  // when both sides succeed; the floor keeps that from going vacuous. Kernel
  // level: every row's value or status must match the interpreter exactly.
  int compared = 0;
  for (int i = 0; i < 120; i++) {
    std::string sql = "SELECT e FROM VehicleEngine e WHERE " + pred(3);
    SCOPED_TRACE("iteration " + std::to_string(i) + ": " + sql);
    ExpectKernelMatch(sql);
    if (HasFatalFailure()) return;
    auto engine = db_.Query(sql);
    auto naive = testing::NaiveSelect(&db_, sql);
    if (!engine.ok() || !naive.ok()) continue;
    compared++;
    EXPECT_EQ(testing::SortedRows(engine.value()), testing::SortedRows(naive.value()));
  }
  EXPECT_GE(compared, 20);
}

// ---------------------------------------------------------------------------
// Metrics and thread counts
// ---------------------------------------------------------------------------

TEST_F(ExprCompileFixture, MetricsCountCompiledAndFoldedPrograms) {
  auto counter = [&](const char* name) { return db_.metrics()->Counter(name)->value(); };
  uint64_t compiled0 = counter("exec.expr.compiled");
  uint64_t folded0 = counter("exec.expr.const_folded");
  QueryOptions opts;
  opts.exec_threads = 1;
  opts.use_cache = false;
  // WHERE constants are pre-folded by the optimizer's DNF normalization, so
  // the compiler's own folding shows up in SELECT-list programs.
  MOOD_ASSERT_OK(db_.Query("SELECT e.cylinders + 2 * 3 FROM VehicleEngine e "
                           "WHERE e.cylinders = 4",
                           opts)
                     .status());
  EXPECT_GT(counter("exec.expr.compiled"), compiled0);
  EXPECT_GT(counter("exec.expr.const_folded"), folded0);
}

TEST_F(ExprCompileFixture, ExplainAnalyzeIdenticalAcrossThreadCounts) {
  // The acceptance bar: EXPLAIN ANALYZE output (modulo timings, which the
  // renderer embeds — so compare the query *results*, byte for byte) is
  // identical at 1/2/8 threads. The result cache is off: its key does not
  // include the thread count.
  QueryOptions base;
  base.exec_threads = 1;
  base.use_cache = false;
  auto serial = db_.Query(paperdb::kExample81Query, base);
  MOOD_ASSERT_OK(serial.status());
  for (size_t threads : {2u, 8u}) {
    QueryOptions opts;
    opts.exec_threads = threads;
    opts.use_cache = false;
    auto par = db_.Query(paperdb::kExample81Query, opts);
    MOOD_ASSERT_OK(par.status());
    EXPECT_EQ(serial.value().ToString(), par.value().ToString()) << threads;
  }
}

// ---------------------------------------------------------------------------
// Layout cache invalidation on DDL
// ---------------------------------------------------------------------------

TEST_F(ExprCompileFixture, SchemaEpochBumpsOnDdl) {
  uint64_t e0 = db_.catalog()->schema_epoch();
  MOOD_ASSERT_OK(db_.catalog()->AddAttribute(
      "VehicleEngine", {"extra", TypeDesc::Basic(BasicType::kFloat)}));
  EXPECT_GT(db_.catalog()->schema_epoch(), e0);
}

TEST_F(ExprCompileFixture, AddAttributeInvalidatesLayouts) {
  QueryOptions opts;
  opts.exec_threads = 1;
  // Warm the layout cache through a compiled query.
  MOOD_ASSERT_OK(
      db_.Query("SELECT e FROM VehicleEngine e WHERE e.cylinders = 4", opts)
          .status());
  MOOD_ASSERT_OK(db_.catalog()->AddAttribute(
      "VehicleEngine", {"extra", TypeDesc::Basic(BasicType::kFloat)}));
  // Existing objects predate the attribute: both sides serve the default.
  ExpectDifferentialMatch(
      "SELECT e.extra FROM VehicleEngine e WHERE e.cylinders >= 2");
  ExpectDifferentialMatch("SELECT e FROM VehicleEngine e WHERE e.extra = 0.0");
}

TEST_F(ExprCompileFixture, RenameAttributeInvalidatesLayouts) {
  QueryOptions opts;
  opts.exec_threads = 1;
  MOOD_ASSERT_OK(
      db_.Query("SELECT e FROM VehicleEngine e WHERE e.size > 0", opts).status());
  MOOD_ASSERT_OK(
      db_.catalog()->RenameAttribute("VehicleEngine", "size", "displacement"));
  ExpectDifferentialMatch(
      "SELECT e.displacement FROM VehicleEngine e WHERE e.displacement > 0");
  // The old name fails on both sides, and per row in the kernels exactly as in
  // the interpreter.
  ExpectBinderRejects("SELECT e FROM VehicleEngine e WHERE e.size > 0");
}

// ---------------------------------------------------------------------------
// Subclass instances behind statically-typed references
// ---------------------------------------------------------------------------

TEST_F(ExprCompileFixture, SubclassInstanceResolvesByName) {
  MOOD_ASSERT_OK(db_.Execute("CREATE CLASS TurboEngine INHERITS FROM "
                             "VehicleEngine TUPLE (boost Integer)")
                     .status());
  ObjectManager* om = db_.objects();
  // A TurboEngine behind a REFERENCE(VehicleEngine): the compiled ordinal was
  // bound against VehicleEngine's layout and must re-resolve by name.
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid turbo,
      om->CreateObject("TurboEngine",
                       MoodValue::Tuple({MoodValue::Integer(9999),
                                         MoodValue::Integer(12),
                                         MoodValue::Integer(5)})));
  MOOD_ASSERT_OK_AND_ASSIGN(
      Oid dt, om->CreateObject(
                  "VehicleDriveTrain",
                  MoodValue::Tuple({MoodValue::Reference(turbo),
                                    MoodValue::String("MANUAL")})));
  Oid company{};
  MOOD_ASSERT_OK(om->ScanExtent("Company", false, {},
                                [&](Oid oid, const MoodValue&) {
                                  company = oid;
                                  return Status::OK();
                                }));
  MOOD_ASSERT_OK(
      om->CreateObject("Vehicle", MoodValue::Tuple({MoodValue::Integer(777),
                                                    MoodValue::Integer(1000),
                                                    MoodValue::Reference(dt),
                                                    MoodValue::Reference(company)}))
          .status());

  // Direct ordinal access against the *base* layout.
  MOOD_ASSERT_OK_AND_ASSIGN(AttributeLayoutPtr layout, om->LayoutOf("VehicleEngine"));
  int ord = layout->OrdinalOf("cylinders");
  ASSERT_GE(ord, 0);
  MOOD_ASSERT_OK_AND_ASSIGN(
      MoodValue cyl, om->GetAttributeByOrdinal(
                         turbo, *layout, static_cast<uint32_t>(ord), SnapshotView{}));
  EXPECT_EQ(cyl.AsInteger(), 12);

  // Kernel level: the WHERE form reaches the TurboEngine through ordinals
  // bound against Vehicle's layout. (At query level the optimizer expands
  // this path into a join over the VehicleEngine extent alone, which misses
  // the subclass instance, so it is not compared with the naive oracle here.)
  ExpectKernelMatch("SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 12");

  // The projection form compiles against Vehicle's root and hits the
  // TurboEngine instance through kDerefAttr's name re-resolution.
  QueryOptions opts;
  opts.exec_threads = 1;
  MOOD_ASSERT_OK_AND_ASSIGN(
      auto proj,
      db_.Query("SELECT v.id, v.drivetrain.engine.cylinders FROM Vehicle v", opts));
  bool saw_turbo = false;
  for (const auto& row : proj.rows) {
    if (row.size() == 2 && row[0].ToString() == "777") {
      saw_turbo = true;
      EXPECT_EQ(row[1].ToString(), "12");
    }
  }
  EXPECT_TRUE(saw_turbo);
  ExpectDifferentialMatch(
      "SELECT v.id, v.drivetrain.engine.cylinders FROM Vehicle v");
}

}  // namespace
}  // namespace mood
