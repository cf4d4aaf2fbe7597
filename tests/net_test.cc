#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/session.h"
#include "net/client.h"
#include "net/server.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using net::ClientOptions;
using net::MoodClient;
using net::MoodServer;
using net::ServerOptions;
using net::WirePrepared;
using net::WireResult;
using testing::TempDir;

double MetricOf(Database* db, const std::string& name) {
  return db->metrics()->Snapshot().ValueOf(name, -1);
}

class NetFixture : public ::testing::Test {
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
  void TearDown() override { server_.Stop(); }

  void StartServer(ServerOptions opts = {}) {
    MOOD_ASSERT_OK(server_.Start(&db_, opts));
    ASSERT_NE(server_.port(), 0);
  }
  void ConnectClient(MoodClient* c) {
    MOOD_ASSERT_OK(c->Connect("127.0.0.1", server_.port()));
  }

  TempDir dir_;
  Database db_;
  MoodServer server_;
};

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST_F(NetFixture, ExecuteRoundTripsQueriesDdlAndDml) {
  StartServer();
  MoodClient c;
  ConnectClient(&c);
  EXPECT_GT(c.session_id(), 0u);

  MOOD_ASSERT_OK_AND_ASSIGN(WireResult qr,
                            c.Execute("SELECT a.id, a.val FROM Acc a"));
  EXPECT_EQ(qr.columns.size(), 2u);
  ASSERT_EQ(qr.rows.size(), 8u);
  EXPECT_EQ(qr.rows[0][1].AsInteger(), 0);
  EXPECT_EQ(qr.fetch_round_trips, 0u);

  MOOD_ASSERT_OK_AND_ASSIGN(WireResult up, c.Execute("UPDATE Acc a SET val = 7"));
  EXPECT_EQ(up.affected, 8u);

  MOOD_ASSERT_OK_AND_ASSIGN(
      WireResult made, c.Execute("NEW Acc <100, 7>"));
  EXPECT_TRUE(made.created_oid.has_value());

  MOOD_ASSERT_OK_AND_ASSIGN(WireResult ddl,
                            c.Execute("CREATE CLASS Side TUPLE (x Integer)"));
  EXPECT_GT(ddl.schema_epoch, 0u);

  // The server-side state is the database's state.
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult local,
                            db_.Query("SELECT a.val FROM Acc a"));
  EXPECT_EQ(local.rows.size(), 9u);
  for (const auto& row : local.rows) EXPECT_EQ(row[0].AsInteger(), 7);
}

/// Server errors come back as the original numeric StatusCode, not as a string
/// guess (the stable-wire-codes satellite).
TEST_F(NetFixture, ErrorFramesRoundTripStatusCodes) {
  StartServer();
  MoodClient c;
  ConnectClient(&c);

  // The wire code must equal whatever the engine reports locally.
  Status local_parse = db_.Execute("SELEKT nonsense").status();
  ASSERT_FALSE(local_parse.ok());
  auto parse_err = c.Execute("SELEKT nonsense");
  ASSERT_FALSE(parse_err.ok());
  EXPECT_EQ(parse_err.status().code(), local_parse.code());

  auto missing = c.Execute("SELECT z.q FROM NoSuchClass z");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  Status bad_opt = c.SetOption("no_such_option", 1);
  ASSERT_FALSE(bad_opt.ok());
  EXPECT_EQ(bad_opt.code(), StatusCode::kInvalidArgument);

  // The connection survives errors: the next statement works.
  MOOD_ASSERT_OK(c.Execute("SELECT a.id FROM Acc a").status());
}

TEST_F(NetFixture, PreparedStatementsBindOverTheWire) {
  StartServer();
  MoodClient c;
  ConnectClient(&c);
  MOOD_ASSERT_OK_AND_ASSIGN(
      WirePrepared ps, c.Prepare("SELECT a.id FROM Acc a WHERE a.val = ?"));
  EXPECT_EQ(ps.param_count, 1u);

  MOOD_ASSERT_OK_AND_ASSIGN(WireResult hit,
                            c.ExecutePrepared(ps, {MoodValue::Integer(0)}));
  EXPECT_EQ(hit.rows.size(), 8u);
  MOOD_ASSERT_OK_AND_ASSIGN(WireResult miss,
                            c.ExecutePrepared(ps, {MoodValue::Integer(42)}));
  EXPECT_TRUE(miss.rows.empty());

  // Param-count mismatch is client-side; unknown ids are server-side.
  EXPECT_FALSE(c.ExecutePrepared(ps, {}).ok());
  MOOD_ASSERT_OK(c.ClosePrepared(ps));
  auto closed = c.ExecutePrepared(ps, {MoodValue::Integer(0)});
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kInvalidArgument);
}

/// chunk_rows forces kResultSet to carry a cursor; the client folds kFetch
/// rounds until the cursor drains and still yields the full result.
TEST_F(NetFixture, ChunkedResultsFoldViaFetch) {
  StartServer();
  MoodClient c;
  ConnectClient(&c);
  MOOD_ASSERT_OK_AND_ASSIGN(
      WireResult qr, c.Execute("SELECT a.id FROM Acc a", /*deadline_ms=*/0,
                               /*chunk_rows=*/3));
  EXPECT_EQ(qr.rows.size(), 8u);
  EXPECT_GE(qr.fetch_round_trips, 1u);

  // Session-default chunking via SetOption behaves the same.
  MOOD_ASSERT_OK(c.SetOption("chunk_rows", 2));
  MOOD_ASSERT_OK_AND_ASSIGN(WireResult qr2, c.Execute("SELECT a.id FROM Acc a"));
  EXPECT_EQ(qr2.rows.size(), 8u);
  EXPECT_GE(qr2.fetch_round_trips, 1u);
}

// ---------------------------------------------------------------------------
// Transactions and snapshots over the wire
// ---------------------------------------------------------------------------

TEST_F(NetFixture, WireTransactionsCommitAndAbort) {
  StartServer();
  MoodClient c;
  ConnectClient(&c);

  MOOD_ASSERT_OK(c.Begin());
  MOOD_ASSERT_OK(c.Execute("UPDATE Acc a SET val = 5").status());
  MOOD_ASSERT_OK(c.Abort());
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult after_abort,
                            db_.Query("SELECT a.val FROM Acc a"));
  for (const auto& row : after_abort.rows) EXPECT_EQ(row[0].AsInteger(), 0);

  MOOD_ASSERT_OK(c.Begin());
  MOOD_ASSERT_OK(c.Execute("UPDATE Acc a SET val = 5").status());
  MOOD_ASSERT_OK(c.Commit());
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult after_commit,
                            db_.Query("SELECT a.val FROM Acc a"));
  for (const auto& row : after_commit.rows) EXPECT_EQ(row[0].AsInteger(), 5);

  EXPECT_FALSE(c.Commit().ok());  // no open transaction
}

TEST_F(NetFixture, WireSnapshotPinsAcrossAnotherClientsCommit) {
  StartServer();
  MoodClient reader, writer;
  ConnectClient(&reader);
  ConnectClient(&writer);

  MOOD_ASSERT_OK(reader.BeginSnapshot());
  MOOD_ASSERT_OK_AND_ASSIGN(WireResult before,
                            reader.Execute("SELECT a.val FROM Acc a"));
  EXPECT_EQ(before.rows[0][0].AsInteger(), 0);

  MOOD_ASSERT_OK(writer.Begin());
  MOOD_ASSERT_OK(writer.Execute("UPDATE Acc a SET val = a.val + 1").status());
  MOOD_ASSERT_OK(writer.Commit());

  MOOD_ASSERT_OK_AND_ASSIGN(WireResult pinned,
                            reader.Execute("SELECT a.val FROM Acc a"));
  for (const auto& row : pinned.rows) EXPECT_EQ(row[0].AsInteger(), 0);
  // Writes on a pinned session bounce with a typed error.
  auto rejected = reader.Execute("UPDATE Acc a SET val = 9");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  MOOD_ASSERT_OK(reader.EndSnapshot());
  MOOD_ASSERT_OK_AND_ASSIGN(WireResult latest,
                            reader.Execute("SELECT a.val FROM Acc a"));
  for (const auto& row : latest.rows) EXPECT_EQ(row[0].AsInteger(), 1);
}

// ---------------------------------------------------------------------------
// Session reaping
// ---------------------------------------------------------------------------

/// A client killed mid-flight (socket closed with a transaction open and a
/// request just sent, reply never read) must not wedge the database: the
/// server reaps the connection, destroying its session, which aborts the
/// transaction and frees its locks for other clients.
TEST_F(NetFixture, KilledClientMidQueryIsReapedAndItsLocksFreed) {
  StartServer();
  {
    // Raw doomed connection so we can vanish with replies unread.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    // Pipeline handshake + BEGIN + a lock-taking UPDATE + one more query, then
    // slam the socket shut without reading a single reply: the server is still
    // executing when the peer dies.
    std::string burst, p;
    PutFixed32(&p, net::kProtocolVersion);
    net::AppendFrame(&burst, net::FrameType::kHello, p);
    net::AppendFrame(&burst, net::FrameType::kBegin, {});
    p.clear();
    PutFixed32(&p, 0);
    PutFixed32(&p, 0);
    PutLengthPrefixedSlice(&p, "UPDATE Acc a SET val = 99");
    net::AppendFrame(&burst, net::FrameType::kExecute, p);
    p.clear();
    PutFixed32(&p, 0);
    PutFixed32(&p, 0);
    PutLengthPrefixedSlice(&p, "SELECT a.id FROM Acc a");
    net::AppendFrame(&burst, net::FrameType::kExecute, p);
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));
    ::close(fd);
  }
  // The doomed session held the extent X lock. Another client's write must go
  // through once the server notices the dead peer (EOF on next epoll round).
  MoodClient c;
  ConnectClient(&c);
  Status up = Status::Unavailable("not tried");
  for (int attempt = 0; attempt < 50; attempt++) {
    up = c.Execute("UPDATE Acc a SET val = 1").status();
    if (up.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  MOOD_ASSERT_OK(up);
  // The abort rolled the doomed write back before ours applied.
  MOOD_ASSERT_OK_AND_ASSIGN(QueryResult qr, db_.Query("SELECT a.val FROM Acc a"));
  for (const auto& row : qr.rows) EXPECT_EQ(row[0].AsInteger(), 1);
}

/// Idle connections past the timeout are reaped: the session dies server-side
/// and the client's next call fails cleanly.
TEST_F(NetFixture, IdleSessionsAreReaped) {
  ServerOptions opts;
  opts.idle_timeout_ms = 100;
  StartServer(opts);
  MoodClient c;
  ConnectClient(&c);
  MOOD_ASSERT_OK(c.Execute("SELECT a.id FROM Acc a").status());

  // Go quiet past the timeout (the reaper ticks at 500ms) and the next call
  // must find the connection gone. No polling: polling resets the idle clock.
  Status st = Status::OK();
  for (int attempt = 0; attempt < 30 && st.ok(); attempt++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    st = c.Execute("SELECT a.id FROM Acc a").status();
  }
  EXPECT_FALSE(st.ok()) << "connection was never reaped";
  EXPECT_GE(MetricOf(&db_, "net.sessions_reaped"), 1.0);
}

/// Busy sessions survive the reaper: a worker can stamp last_active after the
/// reaper read its clock, which must not read as an (unsigned-wrapped) huge
/// idle time. Clients issue back-to-back requests across several reaper ticks.
TEST_F(NetFixture, BusySessionsSurviveReaperTicks) {
  ServerOptions opts;
  opts.idle_timeout_ms = 1000;
  StartServer(opts);
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(1600);
  std::vector<std::thread> clients;
  std::vector<int> failures(4, 0), requests(4, 0);
  for (size_t t = 0; t < failures.size(); t++) {
    clients.emplace_back([&, t] {
      MoodClient c;
      if (!c.Connect("127.0.0.1", server_.port()).ok()) {
        failures[t]++;
        return;
      }
      while (std::chrono::steady_clock::now() < until) {
        requests[t]++;
        if (!c.Execute("SELECT a.id FROM Acc a").ok()) failures[t]++;
      }
    });
  }
  for (auto& th : clients) th.join();
  for (size_t t = 0; t < failures.size(); t++) {
    EXPECT_EQ(failures[t], 0) << "client " << t;
    EXPECT_GT(requests[t], 0) << "client " << t;
  }
  EXPECT_EQ(MetricOf(&db_, "net.sessions_reaped"), 0.0);
}

// ---------------------------------------------------------------------------
// Protocol discipline
// ---------------------------------------------------------------------------

/// Raw socket, no handshake: the first non-Hello frame gets a typed error.
TEST_F(NetFixture, RequestsBeforeHandshakeAreRejected) {
  StartServer();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::string frame, payload;
  PutFixed32(&payload, 0);
  PutFixed32(&payload, 0);
  PutLengthPrefixedSlice(&payload, "SELECT a.id FROM Acc a");
  net::AppendFrame(&frame, net::FrameType::kExecute, payload);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  std::string in;
  net::Frame reply;
  Status ferr;
  char buf[4096];
  while (!net::ExtractFrame(&in, &reply, net::kDefaultMaxFrameBytes, &ferr)) {
    ASSERT_TRUE(ferr.ok());
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    in.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(reply.type, net::FrameType::kError);
  Slice p(reply.payload);
  uint32_t code = 0;
  MOOD_ASSERT_OK(net::GetU32(&p, &code));
  EXPECT_EQ(code, static_cast<uint32_t>(StatusCode::kInvalidArgument));
  ::close(fd);
}

/// Many clients with pipelined traffic: everyone gets their own answers.
TEST_F(NetFixture, ConcurrentClientsSeeConsistentSnapshots) {
  StartServer();
  constexpr int kClients = 6;
  std::atomic<size_t> torn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; t++) {
    threads.emplace_back([&, t] {
      MoodClient c;
      if (!c.Connect("127.0.0.1", server_.port()).ok()) {
        torn.fetch_add(1);
        return;
      }
      if (t == 0) {
        // One writer commits increments; the rest read consistent states.
        for (int round = 0; round < 10; round++) {
          if (!c.Begin().ok()) continue;
          if (c.Execute("UPDATE Acc a SET val = a.val + 1").ok()) {
            (void)c.Commit();
          } else {
            (void)c.Abort();
          }
        }
        return;
      }
      for (int i = 0; i < 25; i++) {
        auto qr = c.Execute("SELECT a.val FROM Acc a");
        if (!qr.ok() || qr.value().rows.size() != 8u) {
          torn.fetch_add(1);
          continue;
        }
        int32_t common = qr.value().rows[0][0].AsInteger();
        for (const auto& row : qr.value().rows) {
          if (row[0].AsInteger() != common) torn.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0u);
}

}  // namespace
}  // namespace mood
