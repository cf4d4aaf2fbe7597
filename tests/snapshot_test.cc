#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/session.h"
#include "tests/snapshot_probe_oracle.h"
#include "tests/test_util.h"
#include "txn/version_store.h"

namespace mood {
namespace {

using testing::TempDir;

size_t TestThreads() {
  const char* env = std::getenv("MOOD_TEST_THREADS");
  if (env != nullptr && std::atoi(env) > 0) return static_cast<size_t>(std::atoi(env));
  return 8;
}

class SnapshotFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MOOD_ASSERT_OK(db_.Open(dir_.Path("mood")));
    MOOD_ASSERT_OK(db_.ExecuteScript("CREATE CLASS Acc TUPLE (id Integer, val Integer);")
                       .status());
    for (int i = 0; i < 8; i++) {
      MOOD_ASSERT_OK(
          db_.Execute("NEW Acc <" + std::to_string(i) + ", 0>").status());
    }
  }
  TempDir dir_;
  Database db_;
};

/// Reads all Acc.val through `s` and asserts the snapshot is consistent (every
/// committed state has all 8 rows equal). Returns the common value.
int32_t ReadConsistentValue(Session* s) {
  auto qr = s->Query("SELECT a.val FROM Acc a");
  EXPECT_TRUE(qr.ok()) << qr.status().ToString();
  if (!qr.ok()) return -1;
  EXPECT_EQ(qr.value().rows.size(), 8u);
  int32_t common = qr.value().rows.empty() ? -1 : qr.value().rows[0][0].AsInteger();
  for (const auto& row : qr.value().rows) {
    EXPECT_EQ(row[0].AsInteger(), common) << "torn snapshot: mixed row versions";
  }
  return common;
}

// ---------------------------------------------------------------------------
// Single-writer visibility basics
// ---------------------------------------------------------------------------

/// A pinned snapshot session keeps reading the state it pinned while a writer
/// commits past it; EndSnapshot advances it to the latest committed state.
TEST_F(SnapshotFixture, PinnedSnapshotIgnoresLaterCommits) {
  std::unique_ptr<Session> reader = db_.CreateSession();
  MOOD_ASSERT_OK(reader->BeginSnapshot());
  EXPECT_TRUE(reader->in_snapshot());
  EXPECT_EQ(ReadConsistentValue(reader.get()), 0);

  std::unique_ptr<Session> writer = db_.CreateSession();
  MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn, writer->Begin());
  MOOD_ASSERT_OK(writer->Execute("UPDATE Acc a SET val = a.val + 1").status());
  MOOD_ASSERT_OK(txn.Commit());

  // The implicit session reads latest; the pinned session reads as-of pin.
  EXPECT_EQ(ReadConsistentValue(db_.session()), 1);
  EXPECT_EQ(ReadConsistentValue(reader.get()), 0);

  MOOD_ASSERT_OK(reader->EndSnapshot());
  EXPECT_EQ(ReadConsistentValue(reader.get()), 1);
}

/// Uncommitted writes are invisible to snapshot readers, and an abort leaves
/// no trace.
TEST_F(SnapshotFixture, UncommittedAndAbortedWritesInvisible) {
  std::unique_ptr<Session> writer = db_.CreateSession();
  MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn, writer->Begin());
  MOOD_ASSERT_OK(writer->Execute("UPDATE Acc a SET val = 99").status());

  std::unique_ptr<Session> reader = db_.CreateSession();
  EXPECT_EQ(ReadConsistentValue(reader.get()), 0) << "dirty write leaked";

  MOOD_ASSERT_OK(txn.Abort());
  EXPECT_EQ(ReadConsistentValue(reader.get()), 0);
}

/// A session with a pinned snapshot is read-only: DML and DDL are rejected
/// centrally with InvalidArgument.
TEST_F(SnapshotFixture, PinnedSessionRejectsWrites) {
  std::unique_ptr<Session> s = db_.CreateSession();
  MOOD_ASSERT_OK(s->BeginSnapshot());
  auto dml = s->Execute("UPDATE Acc a SET val = 5");
  ASSERT_FALSE(dml.ok());
  EXPECT_EQ(dml.status().code(), StatusCode::kInvalidArgument);
  auto ddl = s->Execute("CREATE CLASS Later TUPLE (x Integer)");
  EXPECT_FALSE(ddl.ok());
  // SELECT still works, and a second BeginSnapshot is rejected.
  EXPECT_EQ(ReadConsistentValue(s.get()), 0);
  EXPECT_FALSE(s->BeginSnapshot().ok());
  MOOD_ASSERT_OK(s->EndSnapshot());
  MOOD_ASSERT_OK(s->Execute("UPDATE Acc a SET val = 5").status());
}

/// Sessions are independent: per-session default QueryOptions don't bleed into
/// the implicit session (the deprecated global setter now targets it).
TEST_F(SnapshotFixture, PerSessionQueryOptions) {
  std::unique_ptr<Session> s = db_.CreateSession();
  QueryOptions q;
  q.use_cache = false;
  s->SetDefaultQueryOptions(q);
  EXPECT_EQ(s->default_query_options().use_cache, std::optional<bool>(false));
  // The implicit session (behind the deprecated database-wide setter) is
  // untouched by a per-session default, and vice versa.
  EXPECT_EQ(db_.default_query_options().use_cache, std::nullopt);
  db_.SetDefaultQueryOptions(QueryOptions{});
  EXPECT_EQ(s->default_query_options().use_cache, std::optional<bool>(false));
}

/// Destroying a session mid-transaction aborts it and releases its locks; the
/// TxnHandle outliving its session degrades gracefully.
TEST_F(SnapshotFixture, SessionDeathAbortsTransaction) {
  TxnHandle orphan;
  {
    std::unique_ptr<Session> s = db_.CreateSession();
    MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn, s->Begin());
    MOOD_ASSERT_OK(s->Execute("UPDATE Acc a SET val = 77").status());
    orphan = std::move(txn);
  }
  // The session is gone: the write rolled back, the handle is inert.
  EXPECT_EQ(ReadConsistentValue(db_.session()), 0);
  EXPECT_FALSE(orphan.Commit().ok());
}

// ---------------------------------------------------------------------------
// 8 readers vs 2 writers torture
// ---------------------------------------------------------------------------

/// Writers repeatedly increment every row inside a transaction (so every
/// committed state has all rows equal); 8 reader sessions hammer SELECTs.
/// Invariants, per read:
///  - the snapshot is consistent (all rows carry one committed value),
///  - values are monotone per session (a later statement never reads an older
///    committed state than an earlier one — snapshot CSNs only advance).
TEST_F(SnapshotFixture, ReadersNeverSeeTornOrRegressingState) {
  const size_t kReaders = TestThreads();
  constexpr size_t kWritersRounds = 12;
  constexpr size_t kReadsPerReader = 40;
  std::atomic<bool> stop{false};
  std::atomic<size_t> torn{0}, regressed{0}, commits{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; w++) {
    writers.emplace_back([&] {
      std::unique_ptr<Session> s = db_.CreateSession();
      for (size_t round = 0; round < kWritersRounds; round++) {
        auto txn = s->Begin();
        if (!txn.ok()) continue;
        // Lock conflicts can pick this txn as deadlock victim: abort + move on.
        auto up = s->Execute("UPDATE Acc a SET val = a.val + 1");
        if (up.ok() && txn.value().Commit().ok()) {
          commits.fetch_add(1);
        } else {
          (void)txn.value().Abort();
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; r++) {
    readers.emplace_back([&] {
      std::unique_ptr<Session> s = db_.CreateSession();
      int32_t last = -1;
      for (size_t i = 0; i < kReadsPerReader && !stop.load(); i++) {
        auto qr = s->Query("SELECT a.val FROM Acc a");
        if (!qr.ok()) continue;
        if (qr.value().rows.size() != 8u) {
          torn.fetch_add(1);
          continue;
        }
        int32_t common = qr.value().rows[0][0].AsInteger();
        for (const auto& row : qr.value().rows) {
          if (row[0].AsInteger() != common) {
            torn.fetch_add(1);
            break;
          }
        }
        if (common < last) regressed.fetch_add(1);
        last = std::max(last, common);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "reader observed a mix of row versions";
  EXPECT_EQ(regressed.load(), 0u) << "reader session's snapshot went backwards";
  EXPECT_GT(commits.load(), 0u);
  // After the dust settles the latest state equals the commit count.
  EXPECT_EQ(ReadConsistentValue(db_.session()),
            static_cast<int32_t>(commits.load()));
  // All statement pins drained: the version store holds no pinned snapshots.
  EXPECT_EQ(db_.versions()->PinnedCount(), 0u);
}

/// Same torture with the readers on long pins: each reader pins a snapshot,
/// reads it several times (must be frozen), unpins, re-pins. Pinned epochs must
/// also never regress across re-pins.
TEST_F(SnapshotFixture, LongPinsStayFrozenAndAdvanceMonotonically) {
  const size_t kReaders = TestThreads();
  std::atomic<size_t> frozen_violations{0}, regressed{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; r++) {
    readers.emplace_back([&] {
      std::unique_ptr<Session> s = db_.CreateSession();
      int32_t last = -1;
      for (int pin = 0; pin < 6 && !stop.load(); pin++) {
        if (!s->BeginSnapshot().ok()) continue;
        int32_t first = ReadConsistentValue(s.get());
        for (int i = 0; i < 3; i++) {
          if (ReadConsistentValue(s.get()) != first) frozen_violations.fetch_add(1);
        }
        if (first < last) regressed.fetch_add(1);
        last = std::max(last, first);
        EXPECT_TRUE(s->EndSnapshot().ok());
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; w++) {
    writers.emplace_back([&] {
      std::unique_ptr<Session> s = db_.CreateSession();
      for (int round = 0; round < 10; round++) {
        auto txn = s->Begin();
        if (!txn.ok()) continue;
        auto up = s->Execute("UPDATE Acc a SET val = a.val + 1");
        if (!(up.ok() && txn.value().Commit().ok())) (void)txn.value().Abort();
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(frozen_violations.load(), 0u) << "pinned snapshot drifted";
  EXPECT_EQ(regressed.load(), 0u);
  EXPECT_EQ(db_.versions()->PinnedCount(), 0u);
}

/// Indexes live outside the WAL, so an abort must put their entries back
/// itself: after the rollback the old key finds the object again, the
/// aborted key finds nothing, and later writes find the entries they delete.
TEST(SnapshotProbeTest, AbortRestoresIndexEntries) {
  TempDir dir;
  Database db;
  MOOD_ASSERT_OK(db.Open(dir.Path("mood")));
  MOOD_ASSERT_OK(db.ExecuteScript("CREATE CLASS Item TUPLE (k Integer, tag Integer);"
                                  "CREATE INDEX item_k ON Item(k) USING BTREE;"
                                  "CREATE INDEX item_tag ON Item(tag) USING HASH;")
                     .status());
  MOOD_ASSERT_OK(db.Execute("NEW Item <1, 10>").status());
  MOOD_ASSERT_OK(db.Execute("NEW Item <2, 20>").status());
  auto probe = [&](const char* index, int key) {
    FromEntry from;
    from.class_name = "Item";
    from.var = "x";
    PlanPtr plan = PlanNode::IndexSel(
        from, {IndexProbe{*db.catalog()->FindIndexByName(index), BinaryOp::kEq,
                          MoodValue::Integer(key)}});
    auto rows = db.executor()->ExecutePlan(plan);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? rows.value().LiveColumn(0).size() : size_t{99};
  };
  {
    MOOD_ASSERT_OK_AND_ASSIGN(TxnHandle txn, db.Begin());
    MOOD_ASSERT_OK(db.Execute("UPDATE Item x SET k = 7, tag = 70 WHERE x.k = 1").status());
    MOOD_ASSERT_OK(db.Execute("DELETE FROM Item x WHERE x.k = 2").status());
    MOOD_ASSERT_OK(db.Execute("NEW Item <3, 30>").status());
    EXPECT_EQ(probe("item_k", 7), 1u);
    MOOD_ASSERT_OK(txn.Abort());
  }
  EXPECT_EQ(probe("item_k", 1), 1u);
  EXPECT_EQ(probe("item_tag", 10), 1u);
  EXPECT_EQ(probe("item_k", 2), 1u);
  EXPECT_EQ(probe("item_tag", 20), 1u);
  EXPECT_EQ(probe("item_k", 7), 0u);
  EXPECT_EQ(probe("item_tag", 70), 0u);
  EXPECT_EQ(probe("item_k", 3), 0u);
  EXPECT_EQ(probe("item_tag", 30), 0u);
  MOOD_ASSERT_OK(db.Execute("UPDATE Item x SET tag = 11 WHERE x.k = 1").status());
  MOOD_ASSERT_OK(db.Execute("DELETE FROM Item x WHERE x.k = 2").status());
  EXPECT_EQ(probe("item_tag", 11), 1u);
  EXPECT_EQ(probe("item_k", 2), 0u);
}

// ---------------------------------------------------------------------------
// Snapshot index probes: the index plus the version chains, checked against
// a scan of the snapshot-visible extents
// ---------------------------------------------------------------------------

/// Fixed-seed random history over a two-class hierarchy with a BTREE and a
/// HASH index on each class: creations, key-changing updates, deletes,
/// committed and aborted transactions, one of which stays open across
/// checks, and long snapshot pins of several ages. After every step, index
/// probes at a fresh pin and at every long pin (single class, EVERY, EVERY
/// minus the subclass; one probe or two intersected; every B+-tree operator)
/// must select exactly the objects the scan oracle selects.
TEST(SnapshotProbeTest, RandomizedProbesMatchScanOracle) {
  TempDir dir;
  Database db;
  MOOD_ASSERT_OK(db.Open(dir.Path("mood")));
  MOOD_ASSERT_OK(db.ExecuteScript(
                       "CREATE CLASS Item TUPLE (k Integer, tag Integer);"
                       "CREATE CLASS SubItem INHERITS FROM Item;"
                       "CREATE INDEX item_k ON Item(k) USING BTREE;"
                       "CREATE INDEX sub_k ON SubItem(k) USING BTREE;"
                       "CREATE INDEX item_tag ON Item(tag) USING HASH;"
                       "CREATE INDEX sub_tag ON SubItem(tag) USING HASH;")
                     .status());
  auto index = [&](const char* name) { return *db.catalog()->FindIndexByName(name); };

  Random rng(20261019);
  constexpr int kKeys = 10;
  auto key = [&] { return std::to_string(rng.Uniform(kKeys)); };
  auto cls = [&] { return std::string(rng.OneIn(2) ? "Item" : "SubItem"); };
  for (int i = 0; i < 40; i++) {
    MOOD_ASSERT_OK(db.Execute("NEW " + cls() + " <" + key() + ", " + key() + ">").status());
  }

  std::unique_ptr<Session> writer = db.CreateSession();
  std::optional<TxnHandle> txn;
  std::vector<ReadView> pins;  // long pins, oldest first
  auto dml = [&](Session* s) -> Status {
    const std::string c = cls();
    switch (rng.Uniform(4)) {
      case 0:
        return s->Execute("NEW " + c + " <" + key() + ", " + key() + ">").status();
      case 1:
        return s->Execute("UPDATE " + c + " x SET k = " + key() + " WHERE x.k = " + key())
            .status();
      case 2:
        return s->Execute("UPDATE " + c + " x SET tag = " + key() + " WHERE x.k = " +
                          key())
            .status();
      default:
        return s->Execute("DELETE FROM " + c + " x WHERE x.k = " + key()).status();
    }
  };

  const BinaryOp kBTreeOps[] = {BinaryOp::kEq, BinaryOp::kLt, BinaryOp::kLe,
                                BinaryOp::kGt, BinaryOp::kGe};
  size_t checks = 0, chained_checks = 0;
  auto check = [&](const SnapshotView& snap, int step) {
    FromEntry from;
    from.var = "x";
    switch (rng.Uniform(4)) {
      case 0: from.class_name = "Item"; break;
      case 1: from.class_name = "SubItem"; break;
      case 2: from.class_name = "Item"; from.every = true; break;
      default:
        from.class_name = "Item";
        from.every = true;
        from.excludes = {"SubItem"};
        break;
    }
    const bool sub = from.class_name == "SubItem";
    std::vector<IndexProbe> probes;
    std::vector<MoodValue> params;
    const uint64_t shape = rng.Uniform(3);  // 0: BTREE, 1: HASH, 2: both
    if (shape != 1) {
      IndexProbe p{index(sub ? "sub_k" : "item_k"), kBTreeOps[rng.Uniform(5)],
                   MoodValue::Integer(static_cast<int32_t>(rng.Uniform(kKeys)))};
      if (rng.OneIn(2)) {  // bound as a `?` parameter instead of a constant
        params.push_back(p.constant);
        p.constant = MoodValue();
        p.param = 0;
      }
      probes.push_back(p);
    }
    if (shape != 0) {
      probes.push_back(IndexProbe{index(sub ? "sub_tag" : "item_tag"), BinaryOp::kEq,
                                  MoodValue::Integer(static_cast<int32_t>(rng.Uniform(kKeys)))});
    }
    PlanPtr plan = PlanNode::IndexSel(from, probes);
    ExecOptions opts;
    opts.snapshot = snap;
    opts.threads = TestThreads();
    opts.params = &params;
    auto rows = db.executor()->ExecutePlan(plan, opts);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<Oid> got = rows.value().LiveColumn(0);
    auto oracle = testing::SnapshotProbeScan(db.objects(), *plan, params, snap);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    std::vector<Oid> want = oracle.value();
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "step " << step << ": " << plan->Describe()
                         << (from.every ? " over EVERY" : "");
    checks++;
    for (const char* c : {"Item", "SubItem"}) {
      const uint16_t file =
          static_cast<uint16_t>(db.catalog()->Lookup(c).value()->extent_file);
      if (!db.versions()->TrackedOids(file).empty()) {
        chained_checks++;
        break;
      }
    }
  };

  for (int step = 0; step < 300; step++) {
    const uint64_t action = rng.Uniform(10);
    if (action == 0 && pins.size() < 3) {
      pins.push_back(db.objects()->PinReadView());
    } else if (action == 1 && !pins.empty()) {
      pins.erase(pins.begin());
    } else if (!txn.has_value()) {
      if (rng.OneIn(3)) {
        auto begun = writer->Begin();
        MOOD_ASSERT_OK(begun.status());
        txn.emplace(std::move(begun.value()));
      } else {
        MOOD_ASSERT_OK(dml(db.CreateSession().get()));
      }
    } else if (action < 7) {
      MOOD_ASSERT_OK(dml(writer.get()));
    } else {
      MOOD_ASSERT_OK(action == 7 ? txn->Abort() : txn->Commit());
      txn.reset();
    }
    {
      ReadView fresh = db.objects()->PinReadView();
      check(fresh.snapshot(), step);
    }
    for (const ReadView& pin : pins) check(pin.snapshot(), step);
  }
  if (txn.has_value()) MOOD_ASSERT_OK(txn->Abort());
  pins.clear();

  EXPECT_GT(chained_checks, checks / 4) << "history too tame to exercise compensation";
  const MetricsSnapshot m = db.metrics()->Snapshot();
  EXPECT_GT(m.ValueOf("txn.snapshot.probe_compensations", 0), 0);
  EXPECT_GE(m.ValueOf("txn.snapshot.probe_chain_oids", 0),
            m.ValueOf("txn.snapshot.probe_compensations", 0));
}

}  // namespace
}  // namespace mood
