#include "net/front_end.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <exception>
#include <system_error>
#include <utility>

#include "tensor/error.hpp"

namespace pit::net {

namespace {

/// epoll user-data sentinels; connection ids start above them.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kEventTag = 1;

/// Loop tick: bounds idle sweeps, drain-deadline checks, and shutdown
/// latency when no I/O is arriving.
constexpr int kEpollTimeoutMs = 50;

std::string errno_message(const char* what) {
  return std::string(what) + ": " +
         std::generic_category().message(errno);
}

void set_tcp_nodelay(int fd) {
  int one = 1;
  // Latency over batching: a STEP_OUT is a few dozen bytes and the
  // client is waiting on it. Failure is harmless (non-TCP test sockets).
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// Per-connection state. Owned by the conns_ map and touched exclusively
/// by the loop thread.
struct FrontEnd::Conn {
  explicit Conn(std::size_t max_payload) : reader(max_payload) {}

  std::uint64_t id = 0;
  int fd = -1;
  FrameReader reader;
  std::vector<std::uint8_t> out;  ///< unsent frame bytes
  std::size_t out_off = 0;        ///< sent prefix of `out`
  bool want_write = false;        ///< EPOLLOUT currently subscribed
  bool hello_done = false;
  bool close_after_flush = false;  ///< fatal error sent; close when empty
  bool dead = false;               ///< close as soon as control returns
  std::chrono::steady_clock::time_point last_active;
  /// Connection-scoped session handles -> SessionManager ids. Handles are
  /// never reused within a connection.
  std::unordered_map<std::uint32_t, serve::SessionManager::SessionId>
      sessions;
  std::uint32_t next_session_handle = 1;
  std::size_t pending_submits = 0;  ///< admitted, unanswered (blocks idle)
};

FrontEnd::FrontEnd(serve::InferenceServer* server,
                   serve::SessionManager* sessions, FrontEndOptions options)
    : server_(server), sessions_(sessions), options_(std::move(options)) {
  PIT_CHECK(server_ != nullptr || sessions_ != nullptr,
            "FrontEnd: nothing to serve (both surfaces null)");
}

FrontEnd::~FrontEnd() { stop(); }

void FrontEnd::start() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  PIT_CHECK(!running_.load(), "FrontEnd::start: already running");

  if (server_ != nullptr) {
    const auto plan = server_->plan();
    submit_in_c_ = static_cast<std::uint32_t>(plan->input_channels());
    submit_in_t_ = static_cast<std::uint32_t>(plan->input_steps());
    submit_out_c_ = static_cast<std::uint32_t>(plan->output_channels());
    submit_out_t_ = static_cast<std::uint32_t>(plan->output_steps());
  }
  if (sessions_ != nullptr) {
    const auto plan = sessions_->plan();
    stream_in_c_ = static_cast<std::uint32_t>(plan->input_channels());
    stream_out_c_ = static_cast<std::uint32_t>(plan->output_channels());
  }
  // The cap must admit the largest legitimate request this geometry can
  // produce, whatever the configured cap says.
  const std::size_t submit_bytes =
      16 + static_cast<std::size_t>(submit_in_c_) * submit_in_t_ * 4;
  const std::size_t step_bytes =
      12 + static_cast<std::size_t>(stream_in_c_) * 4;
  options_.max_payload =
      std::max({options_.max_payload, submit_bytes + 64, step_bytes + 64});

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  PIT_CHECK(listen_fd_ >= 0, errno_message("FrontEnd: socket"));
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    PIT_CHECK(false,
              "FrontEnd: bad bind address '" << options_.bind_address << "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, options_.listen_backlog) != 0) {
    const std::string msg = errno_message("FrontEnd: bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    PIT_CHECK(false, msg);
  }
  socklen_t len = sizeof(addr);
  PIT_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0,
            errno_message("FrontEnd: getsockname"));
  bound_port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  PIT_CHECK(epoll_fd_ >= 0, errno_message("FrontEnd: epoll_create1"));
  completions_ = std::make_shared<CompletionQueue>();
  completions_->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  PIT_CHECK(completions_->event_fd >= 0, errno_message("FrontEnd: eventfd"));
  completions_->open = true;

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  PIT_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
            errno_message("FrontEnd: epoll_ctl(listen)"));
  ev.data.u64 = kEventTag;
  PIT_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, completions_->event_fd,
                        &ev) == 0,
            errno_message("FrontEnd: epoll_ctl(eventfd)"));

  draining_.store(false);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
}

void FrontEnd::stop() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (!running_.load()) {
    return;
  }
  drain_deadline_ = std::chrono::steady_clock::now() + options_.drain_timeout;
  draining_.store(true, std::memory_order_release);
  {
    // Wake the loop through the eventfd; the lock orders the write
    // against teardown (the loop closes the fd under this mutex only
    // after it exits, so the write can never hit a closed fd).
    std::lock_guard lock(completions_->completions_mutex);
    if (completions_->open) {
      const std::uint64_t tick = 1;
      (void)!::write(completions_->event_fd, &tick, sizeof(tick));
    }
  }
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  {
    std::lock_guard lock(completions_->completions_mutex);
    completions_->open = false;
    if (completions_->event_fd >= 0) {
      ::close(completions_->event_fd);
      completions_->event_fd = -1;
    }
    completions_->items.clear();
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

FrontEndStats FrontEnd::stats() const {
  FrontEndStats s;
  s.accepted = stats_.accepted.load();
  s.closed = stats_.closed.load();
  s.hellos = stats_.hellos.load();
  s.submits = stats_.submits.load();
  s.results = stats_.results.load();
  s.steps = stats_.steps.load();
  s.opens = stats_.opens.load();
  s.session_closes = stats_.session_closes.load();
  s.sheds = stats_.sheds.load();
  s.session_rejects = stats_.session_rejects.load();
  s.protocol_errors = stats_.protocol_errors.load();
  s.exec_errors = stats_.exec_errors.load();
  s.idle_closed = stats_.idle_closed.load();
  s.slow_closed = stats_.slow_closed.load();
  s.connections = stats_.connections.load();
  s.inflight = completions_ ? completions_->inflight.load() : 0;
  s.open_sessions = stats_.open_sessions.load();
  return s;
}

// ------------------------------------------------------------- event loop

void FrontEnd::loop() {
  std::vector<epoll_event> events(64);
  bool listen_open = true;
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               kEpollTimeoutMs);
    if (n < 0 && errno != EINTR) {
      break;  // epoll itself failed; tear down below
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        if (listen_open) {
          accept_ready();
        }
      } else if (tag == kEventTag) {
        std::uint64_t clear = 0;
        (void)!::read(completions_->event_fd, &clear, sizeof(clear));
      } else {
        auto it = conns_.find(tag);
        if (it == conns_.end()) {
          continue;  // closed earlier this wake
        }
        Conn& conn = *it->second;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          close_conn(tag);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) {
          write_ready(conn);
        }
        auto again = conns_.find(tag);
        if (again != conns_.end() &&
            (events[i].events & EPOLLIN) != 0) {
          read_ready(*again->second);
        }
      }
    }
    drain_completions();
    const auto now = std::chrono::steady_clock::now();
    if (options_.idle_timeout.count() > 0) {
      sweep_idle(now);
    }
    if (draining_.load(std::memory_order_acquire)) {
      if (listen_open) {
        (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        listen_open = false;
      }
      if (drain_complete() || now >= drain_deadline_) {
        break;
      }
    }
  }
  // Teardown: close every connection (returning its sessions) on the
  // loop thread, where all connection state is owned.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    close_conn(id);
  }
}

bool FrontEnd::drain_complete() const {
  if (completions_->inflight.load() != 0) {
    return false;
  }
  for (const auto& [id, conn] : conns_) {
    if (conn->out.size() > conn->out_off) {
      return false;
    }
  }
  return true;
}

void FrontEnd::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN or transient accept failure; next wake retries
    }
    stats_.accepted.fetch_add(1);
    if (conns_.size() >= options_.max_connections ||
        draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      stats_.closed.fetch_add(1);
      continue;
    }
    set_tcp_nodelay(fd);
    auto conn = std::make_unique<Conn>(options_.max_payload);
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->last_active = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      stats_.closed.fetch_add(1);
      continue;
    }
    conns_.emplace(conn->id, std::move(conn));
    stats_.connections.store(conns_.size());
  }
}

void FrontEnd::read_ready(Conn& conn) {
  const std::uint64_t id = conn.id;
  bool eof = false;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t got = ::read(conn.fd, buf, sizeof(buf));
    if (got > 0) {
      conn.last_active = std::chrono::steady_clock::now();
      if (!conn.close_after_flush) {
        conn.reader.feed(buf, static_cast<std::size_t>(got));
      }
      continue;
    }
    if (got == 0) {
      eof = true;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // drained
    } else if (errno == EINTR) {
      continue;
    } else {
      eof = true;  // ECONNRESET and friends
    }
    break;
  }
  FrameView frame;
  while (!conn.dead && !conn.close_after_flush) {
    const FrameReader::Status status = conn.reader.next(frame);
    if (status == FrameReader::Status::kFrame) {
      dispatch(conn, frame);
    } else if (status == FrameReader::Status::kNeedMore) {
      break;
    } else {
      stats_.protocol_errors.fetch_add(1);
      send_error(conn, 0, conn.reader.error(), "malformed frame stream");
      break;
    }
  }
  flush_writes(conn);
  if (conn.dead || eof ||
      (conn.close_after_flush && conn.out.size() == conn.out_off)) {
    close_conn(id);
    return;
  }
  update_write_interest(conn);
}

void FrontEnd::write_ready(Conn& conn) {
  flush_writes(conn);
  if (conn.dead ||
      (conn.close_after_flush && conn.out.size() == conn.out_off)) {
    close_conn(conn.id);
    return;
  }
  update_write_interest(conn);
}

void FrontEnd::flush_writes(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    // MSG_NOSIGNAL: a peer that hung up with answers owed must cost only
    // its own connection (EPIPE below), not the process (SIGPIPE).
    const ssize_t sent =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (sent > 0) {
      conn.out_off += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) {
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    conn.dead = true;  // EPIPE/ECONNRESET: peer is gone
    return;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  } else if (conn.out_off > (1U << 20)) {
    conn.out.erase(conn.out.begin(),
                   conn.out.begin() + static_cast<std::ptrdiff_t>(
                                          conn.out_off));
    conn.out_off = 0;
  }
}

void FrontEnd::update_write_interest(Conn& conn) {
  const bool want = conn.out_off < conn.out.size();
  if (want == conn.want_write) {
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0U);
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.want_write = want;
  }
}

void FrontEnd::queue_frame(Conn& conn) {
  conn.out.insert(conn.out.end(), scratch_.begin(), scratch_.end());
  scratch_.clear();
  if (conn.out.size() - conn.out_off > options_.max_outbuf) {
    // A reader this far behind will never catch up inside the buffer
    // budget; shedding the connection bounds server-side memory.
    stats_.slow_closed.fetch_add(1);
    conn.dead = true;
  }
}

void FrontEnd::close_conn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return;
  }
  Conn& conn = *it->second;
  for (const auto& [handle, sid] : conn.sessions) {
    try {
      sessions_->close(sid);
      stats_.session_closes.fetch_add(1);
    } catch (const Error&) {
      // Already evicted by the manager's idle policy — nothing to return.
    }
    stats_.open_sessions.fetch_sub(1);
  }
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conns_.erase(it);
  stats_.closed.fetch_add(1);
  stats_.connections.store(conns_.size());
}

void FrontEnd::sweep_idle(std::chrono::steady_clock::time_point now) {
  std::vector<std::uint64_t> stale;
  for (const auto& [id, conn] : conns_) {
    if (conn->pending_submits == 0 &&
        now - conn->last_active > options_.idle_timeout) {
      stale.push_back(id);
    }
  }
  for (const std::uint64_t id : stale) {
    stats_.idle_closed.fetch_add(1);
    close_conn(id);
  }
}

void FrontEnd::drain_completions() {
  std::vector<Completion> ready;
  {
    std::lock_guard lock(completions_->completions_mutex);
    ready.swap(completions_->items);
  }
  for (Completion& done : ready) {
    completions_->inflight.fetch_sub(1);
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) {
      continue;  // connection ended before its result; drop
    }
    Conn& conn = *it->second;
    if (conn.pending_submits > 0) {
      --conn.pending_submits;
    }
    if (conn.dead || conn.close_after_flush) {
      continue;
    }
    if (done.error.empty()) {
      stats_.results.fetch_add(1);
      encode_result(scratch_, done.req_id, submit_out_c_, submit_out_t_,
                    done.output.data());
      queue_frame(conn);
    } else {
      stats_.exec_errors.fetch_add(1);
      encode_error(scratch_, done.req_id, ErrCode::kInternal, 0, done.error);
      queue_frame(conn);
    }
    flush_writes(conn);
    if (conn.dead) {
      close_conn(done.conn_id);
    } else {
      update_write_interest(conn);
    }
  }
}

// --------------------------------------------------------------- dispatch

void FrontEnd::send_error(Conn& conn, std::uint64_t req_id, ErrCode code,
                          std::string_view message) {
  std::uint32_t retry_ms = 0;
  if (code == ErrCode::kRetryAfter || code == ErrCode::kSessionLimit) {
    retry_ms = options_.retry_after_ms;
  }
  encode_error(scratch_, req_id, code, retry_ms, message);
  queue_frame(conn);
  if (is_fatal(code)) {
    conn.close_after_flush = true;
  }
}

void FrontEnd::dispatch(Conn& conn, const FrameView& frame) {
  if (!conn.hello_done) {
    if (frame.type != MsgType::kHello) {
      stats_.protocol_errors.fetch_add(1);
      send_error(conn, 0, ErrCode::kBadFrame,
                 "first frame must be HELLO");
      return;
    }
    on_hello(conn, frame.payload);
    return;
  }
  switch (frame.type) {
    case MsgType::kSubmit:
      on_submit(conn, frame.payload);
      return;
    case MsgType::kOpen:
      on_open(conn, frame.payload);
      return;
    case MsgType::kStep:
      on_step(conn, frame.payload);
      return;
    case MsgType::kClose:
      on_close(conn, frame.payload);
      return;
    case MsgType::kPing: {
      PingMsg msg;
      ErrCode err{};
      if (!decode_ping(frame.payload, msg, err)) {
        stats_.protocol_errors.fetch_add(1);
        send_error(conn, 0, err, "malformed PING");
        return;
      }
      encode_pong(scratch_, msg.req_id);
      queue_frame(conn);
      return;
    }
    case MsgType::kHello:
      stats_.protocol_errors.fetch_add(1);
      send_error(conn, 0, ErrCode::kBadFrame, "duplicate HELLO");
      return;
    default:
      stats_.protocol_errors.fetch_add(1);
      send_error(conn, 0, ErrCode::kBadFrame, "unknown frame type");
      return;
  }
}

void FrontEnd::on_hello(Conn& conn, std::span<const std::uint8_t> payload) {
  HelloMsg hello;
  ErrCode err{};
  if (!decode_hello(payload, hello, err)) {
    stats_.protocol_errors.fetch_add(1);
    send_error(conn, 0, err, "malformed HELLO");
    return;
  }
  if (hello.ver_min > kProtocolVersion || hello.ver_max < kProtocolVersion) {
    stats_.protocol_errors.fetch_add(1);
    send_error(conn, 0, ErrCode::kUnsupportedVersion,
               "server speaks protocol version 1 only");
    return;
  }
  conn.hello_done = true;
  stats_.hellos.fetch_add(1);
  HelloOkMsg ok;
  ok.version = kProtocolVersion;
  ok.submit_available = server_ != nullptr;
  ok.stream_available = sessions_ != nullptr;
  ok.max_payload = static_cast<std::uint32_t>(options_.max_payload);
  ok.submit_in_channels = submit_in_c_;
  ok.submit_in_steps = submit_in_t_;
  ok.submit_out_channels = submit_out_c_;
  ok.submit_out_steps = submit_out_t_;
  ok.stream_in_channels = stream_in_c_;
  ok.stream_out_channels = stream_out_c_;
  ok.max_inflight = static_cast<std::uint32_t>(options_.max_inflight);
  encode_hello_ok(scratch_, ok);
  queue_frame(conn);
}

void FrontEnd::on_submit(Conn& conn, std::span<const std::uint8_t> payload) {
  SubmitMsg msg;
  ErrCode err{};
  if (!decode_submit(payload, msg, err)) {
    stats_.protocol_errors.fetch_add(1);
    send_error(conn, 0, err, "malformed SUBMIT");
    return;
  }
  if (server_ == nullptr) {
    send_error(conn, msg.req_id, ErrCode::kNotAvailable,
               "this server has no one-shot inference surface");
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    send_error(conn, msg.req_id, ErrCode::kShuttingDown, "server draining");
    return;
  }
  if (msg.channels != submit_in_c_ || msg.steps != submit_in_t_) {
    send_error(conn, msg.req_id, ErrCode::kBadShape,
               "SUBMIT window does not match the served model's input");
    return;
  }
  // Admission control: beyond the budget the request never touches the
  // batching queue — the client gets its backoff hint in microseconds,
  // not a timeout after seconds in line.
  if (completions_->inflight.load() >= options_.max_inflight) {
    stats_.sheds.fetch_add(1);
    send_error(conn, msg.req_id, ErrCode::kRetryAfter,
               "in-flight budget exhausted");
    return;
  }
  Tensor input =
      submit_in_t_ == 1
          ? Tensor::empty(Shape{static_cast<index_t>(submit_in_c_)})
          : Tensor::empty(Shape{static_cast<index_t>(submit_in_c_),
                                static_cast<index_t>(submit_in_t_)});
  copy_floats(msg.data, input.data(),
              static_cast<std::size_t>(submit_in_c_) * submit_in_t_);
  // Count the request in flight BEFORE handing it to the server: the
  // worker's completion callback may fire (and decrement via the drain
  // path) before try_submit even returns.
  completions_->inflight.fetch_add(1);
  auto cq = completions_;
  const std::uint64_t conn_id = conn.id;
  const std::uint64_t req_id = msg.req_id;
  const bool admitted = server_->try_submit(
      std::move(input),
      [cq, conn_id, req_id](Tensor&& out, std::exception_ptr fail) {
        Completion done;
        done.conn_id = conn_id;
        done.req_id = req_id;
        if (fail) {
          try {
            std::rethrow_exception(fail);
          } catch (const std::exception& e) {
            done.error = e.what();
          } catch (...) {
            done.error = "unknown execution error";
          }
        } else {
          done.output = std::move(out);
        }
        std::lock_guard lock(cq->completions_mutex);
        if (!cq->open) {
          cq->inflight.fetch_sub(1);  // front end is gone; drop
          return;
        }
        cq->items.push_back(std::move(done));
        const std::uint64_t tick = 1;
        (void)!::write(cq->event_fd, &tick, sizeof(tick));
      });
  if (!admitted) {
    // The server's own queue bound fired under the front-end budget:
    // same shed semantics, same fast-reject.
    completions_->inflight.fetch_sub(1);
    stats_.sheds.fetch_add(1);
    send_error(conn, req_id, ErrCode::kRetryAfter, "serving queue full");
    return;
  }
  ++conn.pending_submits;
  stats_.submits.fetch_add(1);
}

void FrontEnd::on_open(Conn& conn, std::span<const std::uint8_t> payload) {
  OpenMsg msg;
  ErrCode err{};
  if (!decode_open(payload, msg, err)) {
    stats_.protocol_errors.fetch_add(1);
    send_error(conn, 0, err, "malformed OPEN");
    return;
  }
  if (sessions_ == nullptr) {
    send_error(conn, msg.req_id, ErrCode::kNotAvailable,
               "this server has no streaming surface");
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    send_error(conn, msg.req_id, ErrCode::kShuttingDown, "server draining");
    return;
  }
  serve::SessionManager::SessionId sid = 0;
  try {
    sid = sessions_->open();
  } catch (const Error& e) {
    stats_.session_rejects.fetch_add(1);
    send_error(conn, msg.req_id, ErrCode::kSessionLimit, e.what());
    return;
  }
  const std::uint32_t handle = conn.next_session_handle++;
  conn.sessions.emplace(handle, sid);
  stats_.opens.fetch_add(1);
  stats_.open_sessions.fetch_add(1);
  encode_opened(scratch_, msg.req_id, handle);
  queue_frame(conn);
}

void FrontEnd::on_step(Conn& conn, std::span<const std::uint8_t> payload) {
  StepMsg msg;
  ErrCode err{};
  if (!decode_step(payload, msg, err)) {
    stats_.protocol_errors.fetch_add(1);
    send_error(conn, 0, err, "malformed STEP");
    return;
  }
  if (sessions_ == nullptr) {
    send_error(conn, msg.req_id, ErrCode::kNotAvailable,
               "this server has no streaming surface");
    return;
  }
  const auto it = conn.sessions.find(msg.session);
  if (it == conn.sessions.end()) {
    send_error(conn, msg.req_id, ErrCode::kUnknownSession,
               "no such session on this connection");
    return;
  }
  if (msg.data.size() != static_cast<std::size_t>(stream_in_c_) * 4) {
    send_error(conn, msg.req_id, ErrCode::kBadShape,
               "STEP sample does not match the stream's input channels");
    return;
  }
  // One step is microseconds of ring-buffer compute — run it here on the
  // loop thread rather than paying a cross-thread handoff both ways.
  float in_buf[512];
  std::vector<float> in_heap;
  float* in = in_buf;
  if (stream_in_c_ > 512) {
    in_heap.resize(stream_in_c_);
    in = in_heap.data();
  }
  copy_floats(msg.data, in, stream_in_c_);
  step_out_scratch_.resize(stream_out_c_);
  try {
    sessions_->step(it->second, in, step_out_scratch_.data());
  } catch (const Error& e) {
    if (!sessions_->alive(it->second)) {
      // Evicted under us (idle policy): the handle is dead now.
      conn.sessions.erase(it);
      stats_.open_sessions.fetch_sub(1);
      send_error(conn, msg.req_id, ErrCode::kUnknownSession,
                 "session evicted by the server's idle policy");
    } else {
      stats_.exec_errors.fetch_add(1);
      send_error(conn, msg.req_id, ErrCode::kInternal, e.what());
    }
    return;
  }
  stats_.steps.fetch_add(1);
  encode_step_out(scratch_, msg.req_id, msg.session,
                  step_out_scratch_.data(), stream_out_c_);
  queue_frame(conn);
}

void FrontEnd::on_close(Conn& conn, std::span<const std::uint8_t> payload) {
  CloseMsg msg;
  ErrCode err{};
  if (!decode_close(payload, msg, err)) {
    stats_.protocol_errors.fetch_add(1);
    send_error(conn, 0, err, "malformed CLOSE");
    return;
  }
  const auto it = conn.sessions.find(msg.session);
  if (it == conn.sessions.end()) {
    send_error(conn, msg.req_id, ErrCode::kUnknownSession,
               "no such session on this connection");
    return;
  }
  try {
    sessions_->close(it->second);
    stats_.session_closes.fetch_add(1);
  } catch (const Error&) {
    // Evicted already; the client outcome is the same — it is closed.
  }
  conn.sessions.erase(it);
  stats_.open_sessions.fetch_sub(1);
  encode_closed(scratch_, msg.req_id, msg.session);
  queue_frame(conn);
}

}  // namespace pit::net
