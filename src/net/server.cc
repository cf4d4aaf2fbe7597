#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace mood {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

constexpr uint32_t kConnEvents = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;

}  // namespace

uint64_t MoodServer::NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

MoodServer::~MoodServer() { Stop(); }

Status MoodServer::Start(Database* db, const ServerOptions& options) {
  if (running()) return Status::InvalidArgument("server already running");
  if (db == nullptr || !db->is_open()) {
    return Status::InvalidArgument("server requires an open database");
  }
  if (db->txn_manager() == nullptr) {
    return Status::NotSupported("server requires enable_wal (sessions expose transactions)");
  }
  db_ = db;
  options_ = options;
  if (options_.worker_threads == 0) options_.worker_threads = 1;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 128) < 0) {
    Status st = Errno("bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t alen = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status st = Errno("epoll_create1/eventfd");
    Stop();
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  MetricsRegistry* m = db_->metrics();
  if (m != nullptr) {
    connections_ = m->Counter("net.connections");
    disconnects_ = m->Counter("net.disconnects");
    active_ = m->Gauge("net.active_connections");
    frames_ = m->Counter("net.frames");
    errors_ = m->Counter("net.errors");
    timeouts_ = m->Counter("net.timeouts");
    reaped_ = m->Counter("net.sessions_reaped");
    request_us_ = m->Histogram("net.request_us");
  }

  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  for (size_t i = 0; i < options_.worker_threads; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void MoodServer::Stop() {
  bool was_running;
  {
    // Flipped under the queue mutex: a worker that has just found the queue
    // empty and `running()` true is then already waiting when the notify
    // below fires, instead of missing it and blocking the join forever.
    std::lock_guard<std::mutex> lock(queue_mu_);
    was_running = running_.exchange(false);
  }
  if (was_running) {
    uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
    queue_cv_.notify_all();
    if (io_thread_.joinable()) io_thread_.join();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
    // Closing the connections destroys their sessions: open transactions
    // abort, pinned snapshots unpin, locks release.
    std::map<int, std::shared_ptr<Conn>> conns;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns.swap(conns_);
    }
    for (auto& [fd, conn] : conns) {
      ::close(conn->fd);
      if (active_ != nullptr) active_->Sub(1);
    }
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  epoll_fd_ = wake_fd_ = listen_fd_ = -1;
}

void MoodServer::CloseConn(const std::shared_ptr<Conn>& conn, bool reaped_idle) {
  if (conn->dead.exchange(true)) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(conn->fd);
  }
  if (disconnects_ != nullptr) disconnects_->Add(1);
  if (active_ != nullptr) active_->Sub(1);
  if (reaped_idle && reaped_ != nullptr) reaped_->Add(1);
  // The session itself dies with the last shared_ptr to the Conn (possibly
  // right here): ~TxnHandle aborts the open transaction, ~Session releases
  // the pinned snapshot — a killed client never wedges the database.
}

void MoodServer::IoLoop() {
  std::vector<epoll_event> events(64);
  while (running()) {
    int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()), 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; i++) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain = 0;
        (void)!::read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      if (fd == listen_fd_) {
        while (true) {
          int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (cfd < 0) break;
          int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          auto conn = std::make_shared<Conn>();
          conn->fd = cfd;
          conn->id = next_conn_id_++;
          conn->session = db_->CreateSession();
          conn->deadline_ms = options_.default_deadline_ms;
          conn->chunk_rows = options_.default_chunk_rows;
          conn->last_active_ms.store(NowMs(), std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> lock(conns_mu_);
            conns_[cfd] = conn;
          }
          epoll_event cev{};
          cev.events = kConnEvents;
          cev.data.fd = cfd;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &cev);
          if (connections_ != nullptr) connections_->Add(1);
          if (active_ != nullptr) active_->Add(1);
        }
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        auto it = conns_.find(fd);
        if (it != conns_.end()) conn = it->second;
      }
      if (conn == nullptr) continue;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        CloseConn(conn, /*reaped_idle=*/false);
        continue;
      }
      // Readable (or peer half-closed with data pending): hand the whole
      // connection to a worker. EPOLLONESHOT keeps a second event from firing
      // until the worker re-arms, so one session == at most one worker. The
      // exchange reads the previous worker's release of `busy` (stored before
      // it re-armed), so that worker's last use of the connection happens
      // before the next worker's first: the kernel orders the re-arm and
      // this event, but only the atomic makes that visible to the memory
      // model and to ThreadSanitizer.
      conn->busy.exchange(true, std::memory_order_acq_rel);
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        ready_.push_back(std::move(conn));
      }
      queue_cv_.notify_one();
    }
    // Idle reaping: connections with no completed request inside the window.
    if (options_.idle_timeout_ms > 0) {
      const uint64_t now = NowMs();
      std::vector<std::shared_ptr<Conn>> idle;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto& [fd, conn] : conns_) {
          if (conn->busy.load(std::memory_order_acquire)) continue;
          // A worker may have stamped last_active after `now` was read, so
          // compare without unsigned subtraction (now - last would wrap).
          if (conn->last_active_ms.load(std::memory_order_relaxed) +
                  options_.idle_timeout_ms < now) {
            idle.push_back(conn);
          }
        }
      }
      for (auto& conn : idle) CloseConn(conn, /*reaped_idle=*/true);
    }
  }
}

void MoodServer::WorkerLoop() {
  while (true) {
    std::shared_ptr<Conn> conn;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return !ready_.empty() || !running(); });
      if (!running() && ready_.empty()) return;
      conn = std::move(ready_.front());
      ready_.pop_front();
    }
    ServeConn(conn);
  }
}

Status MoodServer::BlockingWrite(Conn& c, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(c.fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{c.fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 5000) <= 0) return Status::Timeout("write stalled");
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

void MoodServer::ServeConn(const std::shared_ptr<Conn>& conn) {
  if (conn->dead.load(std::memory_order_acquire)) return;
  const uint64_t enqueued_ms = NowMs();
  bool eof = false;
  while (true) {
    // Drain the socket.
    while (true) {
      char buf[16 * 1024];
      ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      eof = true;
      break;
    }
    // Answer every complete frame, in order (pipelining-friendly).
    bool progressed = false;
    while (true) {
      Frame frame;
      Status ferr;
      if (!ExtractFrame(&conn->in, &frame, options_.max_frame_bytes, &ferr)) {
        if (!ferr.ok()) {
          std::string out;
          AppendErrorFrame(&out, ferr);
          (void)BlockingWrite(*conn, out);
          CloseConn(conn, /*reaped_idle=*/false);
          return;
        }
        break;
      }
      progressed = true;
      if (frames_ != nullptr) frames_->Add(1);
      std::string out;
      HandleFrame(*conn, frame, enqueued_ms, &out);
      if (!out.empty()) {
        Status ws = BlockingWrite(*conn, out);
        if (!ws.ok()) {
          // Client vanished mid-request (kill-mid-query): reap the session.
          CloseConn(conn, /*reaped_idle=*/false);
          return;
        }
      }
      conn->last_active_ms.store(NowMs(), std::memory_order_relaxed);
    }
    if (eof) {
      CloseConn(conn, /*reaped_idle=*/false);
      return;
    }
    if (!progressed) break;
    // More bytes may have landed while frames executed; loop to drain again
    // before re-arming (keeps pipelined bursts on one worker pass).
  }
  conn->busy.store(false, std::memory_order_release);
  epoll_event ev{};
  ev.events = kConnEvents;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) < 0) {
    CloseConn(conn, /*reaped_idle=*/false);
  }
}

Status MoodServer::HandleExecuteResult(Conn& c, const Result<ExecResult>& result,
                                       uint32_t chunk_rows, std::string* out) {
  if (!result.ok()) return result.status();
  const ExecResult& res = result.value();
  if (res.kind == ExecResult::Kind::kQuery) {
    const QueryResult& qr = res.query;
    std::string payload;
    PutFixed16(&payload, static_cast<uint16_t>(qr.columns.size()));
    for (const std::string& col : qr.columns) PutLengthPrefixedSlice(&payload, col);
    PutFixed64(&payload, qr.rows.size());
    const size_t inline_rows =
        (chunk_rows == 0 || chunk_rows >= qr.rows.size()) ? qr.rows.size()
                                                          : chunk_rows;
    uint32_t cursor_id = 0;
    if (inline_rows < qr.rows.size()) {
      cursor_id = c.next_cursor_id++;
      Cursor cur;
      cur.columns = qr.columns;
      cur.rows = qr.rows;
      cur.next = inline_rows;
      c.cursors[cursor_id] = std::move(cur);
    }
    PutFixed32(&payload, cursor_id);
    PutFixed32(&payload, static_cast<uint32_t>(inline_rows));
    for (size_t i = 0; i < inline_rows; i++) AppendRow(&payload, qr.rows[i]);
    AppendFrame(out, FrameType::kResultSet, payload);
    return Status::OK();
  }
  std::string payload;
  payload.push_back(static_cast<char>(res.kind));
  PutFixed64(&payload, res.affected);
  PutFixed64(&payload, res.schema_epoch);
  payload.push_back(res.created_oid.has_value() ? 1 : 0);
  PutFixed64(&payload, res.created_oid.has_value() ? res.created_oid->Pack() : 0);
  PutLengthPrefixedSlice(&payload, res.message);
  AppendFrame(out, FrameType::kExecOk, payload);
  return Status::OK();
}

void MoodServer::HandleFrame(Conn& c, const Frame& f, uint64_t enqueued_ms,
                             std::string* out) {
  const uint64_t start_ms = NowMs();
  Status st = [&]() -> Status {
    Slice in(f.payload);
    if (f.type == FrameType::kHello) {
      uint32_t version = 0;
      MOOD_RETURN_IF_ERROR(GetU32(&in, &version));
      if (version != kProtocolVersion) {
        return Status::InvalidArgument(
            "protocol version mismatch: client " + std::to_string(version) +
            ", server " + std::to_string(kProtocolVersion));
      }
      c.hello_done = true;
      std::string payload;
      PutFixed32(&payload, kProtocolVersion);
      PutFixed64(&payload, c.id);
      AppendFrame(out, FrameType::kHelloOk, payload);
      return Status::OK();
    }
    if (!c.hello_done) {
      return Status::InvalidArgument("handshake required before any request");
    }
    switch (f.type) {
      case FrameType::kExecute: {
        uint32_t deadline_ms = 0, chunk = 0;
        std::string sql;
        MOOD_RETURN_IF_ERROR(GetU32(&in, &deadline_ms));
        MOOD_RETURN_IF_ERROR(GetU32(&in, &chunk));
        MOOD_RETURN_IF_ERROR(GetStr(&in, &sql));
        if (deadline_ms == 0) deadline_ms = c.deadline_ms;
        if (chunk == 0) chunk = c.chunk_rows;
        if (deadline_ms > 0 && NowMs() - enqueued_ms > deadline_ms) {
          if (timeouts_ != nullptr) timeouts_->Add(1);
          return Status::Timeout("request exceeded deadline before execution");
        }
        Result<ExecResult> res = c.session->Execute(sql);
        if (deadline_ms > 0 && NowMs() - enqueued_ms > deadline_ms) {
          if (timeouts_ != nullptr) timeouts_->Add(1);
          return Status::Timeout("request exceeded deadline during execution");
        }
        return HandleExecuteResult(c, res, chunk, out);
      }
      case FrameType::kPrepare: {
        std::string sql;
        MOOD_RETURN_IF_ERROR(GetStr(&in, &sql));
        MOOD_ASSIGN_OR_RETURN(PreparedStatement ps, c.session->Prepare(sql));
        const uint32_t id = c.next_stmt_id++;
        const uint32_t params = ps.param_count();
        c.prepared[id] = std::move(ps);
        std::string payload;
        PutFixed32(&payload, id);
        PutFixed32(&payload, params);
        AppendFrame(out, FrameType::kPrepared, payload);
        return Status::OK();
      }
      case FrameType::kBindExecute: {
        uint32_t id = 0, deadline_ms = 0, chunk = 0;
        uint16_t nparams = 0;
        MOOD_RETURN_IF_ERROR(GetU32(&in, &id));
        MOOD_RETURN_IF_ERROR(GetU32(&in, &deadline_ms));
        MOOD_RETURN_IF_ERROR(GetU32(&in, &chunk));
        MOOD_RETURN_IF_ERROR(GetU16(&in, &nparams));
        std::vector<MoodValue> params;
        params.reserve(nparams);
        for (uint16_t i = 0; i < nparams; i++) {
          MOOD_ASSIGN_OR_RETURN(MoodValue v, MoodValue::Decode(&in));
          params.push_back(std::move(v));
        }
        auto it = c.prepared.find(id);
        if (it == c.prepared.end()) {
          return Status::InvalidArgument("unknown prepared statement #" +
                                         std::to_string(id));
        }
        if (deadline_ms == 0) deadline_ms = c.deadline_ms;
        if (chunk == 0) chunk = c.chunk_rows;
        if (deadline_ms > 0 && NowMs() - enqueued_ms > deadline_ms) {
          if (timeouts_ != nullptr) timeouts_->Add(1);
          return Status::Timeout("request exceeded deadline before execution");
        }
        Result<ExecResult> res = c.session->ExecutePrepared(it->second, params);
        if (deadline_ms > 0 && NowMs() - enqueued_ms > deadline_ms) {
          if (timeouts_ != nullptr) timeouts_->Add(1);
          return Status::Timeout("request exceeded deadline during execution");
        }
        return HandleExecuteResult(c, res, chunk, out);
      }
      case FrameType::kFetch: {
        uint32_t id = 0, max_rows = 0;
        MOOD_RETURN_IF_ERROR(GetU32(&in, &id));
        MOOD_RETURN_IF_ERROR(GetU32(&in, &max_rows));
        auto it = c.cursors.find(id);
        if (it == c.cursors.end()) {
          return Status::InvalidArgument("unknown cursor #" + std::to_string(id));
        }
        Cursor& cur = it->second;
        const size_t remaining = cur.rows.size() - cur.next;
        const size_t take =
            (max_rows == 0 || max_rows >= remaining) ? remaining : max_rows;
        std::string payload;
        const bool exhausted = take == remaining;
        PutFixed32(&payload, exhausted ? 0 : id);
        PutFixed32(&payload, static_cast<uint32_t>(take));
        for (size_t i = 0; i < take; i++) AppendRow(&payload, cur.rows[cur.next + i]);
        cur.next += take;
        if (exhausted) c.cursors.erase(it);
        AppendFrame(out, FrameType::kRows, payload);
        return Status::OK();
      }
      case FrameType::kClosePrepared: {
        uint32_t id = 0;
        MOOD_RETURN_IF_ERROR(GetU32(&in, &id));
        c.prepared.erase(id);
        AppendFrame(out, FrameType::kOk, {});
        return Status::OK();
      }
      case FrameType::kSetOption: {
        std::string name;
        uint64_t raw = 0;
        MOOD_RETURN_IF_ERROR(GetStr(&in, &name));
        MOOD_RETURN_IF_ERROR(GetU64(&in, &raw));
        const int64_t value = static_cast<int64_t>(raw);
        QueryOptions q = c.session->default_query_options();
        if (name == "exec_threads") q.exec_threads = static_cast<size_t>(value);
        else if (name == "batch_size") q.batch_size = static_cast<size_t>(value);
        else if (name == "feedback") q.feedback = value != 0;
        else if (name == "use_cache") q.use_cache = value != 0;
        else if (name == "collect_profile") q.collect_profile = value != 0;
        else if (name == "deadline_ms") {
          c.deadline_ms = static_cast<uint32_t>(value);
        } else if (name == "chunk_rows") {
          c.chunk_rows = static_cast<uint32_t>(value);
        } else {
          return Status::InvalidArgument("unknown session option '" + name + "'");
        }
        c.session->SetDefaultQueryOptions(q);
        AppendFrame(out, FrameType::kOk, {});
        return Status::OK();
      }
      case FrameType::kBegin: {
        MOOD_ASSIGN_OR_RETURN(TxnHandle txn, c.session->Begin());
        c.txn = std::move(txn);
        AppendFrame(out, FrameType::kOk, {});
        return Status::OK();
      }
      case FrameType::kCommit: {
        if (!c.txn.active()) return Status::InvalidArgument("no open transaction");
        MOOD_RETURN_IF_ERROR(c.txn.Commit());
        AppendFrame(out, FrameType::kOk, {});
        return Status::OK();
      }
      case FrameType::kAbort: {
        if (!c.txn.active()) return Status::InvalidArgument("no open transaction");
        MOOD_RETURN_IF_ERROR(c.txn.Abort());
        AppendFrame(out, FrameType::kOk, {});
        return Status::OK();
      }
      case FrameType::kBeginSnapshot: {
        MOOD_RETURN_IF_ERROR(c.session->BeginSnapshot());
        AppendFrame(out, FrameType::kOk, {});
        return Status::OK();
      }
      case FrameType::kEndSnapshot: {
        MOOD_RETURN_IF_ERROR(c.session->EndSnapshot());
        AppendFrame(out, FrameType::kOk, {});
        return Status::OK();
      }
      default:
        return Status::InvalidArgument("unexpected frame type " +
                                       std::to_string(static_cast<int>(f.type)));
    }
  }();
  if (!st.ok()) {
    if (errors_ != nullptr) errors_->Add(1);
    out->clear();
    AppendErrorFrame(out, st);
  }
  if (request_us_ != nullptr) request_us_->Record((NowMs() - start_ms) * 1000);
}

}  // namespace net
}  // namespace mood
