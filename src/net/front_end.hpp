// Network front end: an epoll-based TCP server that exposes the serving
// layer (serve::InferenceServer one-shot windows, serve::SessionManager
// streaming sessions) over the length-prefixed binary protocol specified
// in docs/PROTOCOL.md and implemented by net/protocol.hpp.
//
// DESIGN. One event-loop thread owns every socket and every per-
// connection state (read reassembly buffer, write buffer, session map) —
// no connection is ever touched from two threads, so the loop needs no
// per-connection locks. All sockets are non-blocking: reads drain until
// EAGAIN and feed a FrameReader (torn frames are the normal case), writes
// go through a per-connection buffer flushed until EAGAIN with EPOLLOUT
// subscribed only while bytes remain. Compute never blocks the loop on a
// future:
//
//   SUBMIT — admitted into the InferenceServer's micro-batching queue via
//     the async hook (InferenceServer::try_submit). The worker that runs
//     the batch hands the result to a completion queue and wakes the loop
//     through an eventfd; the loop writes the RESULT frame from its own
//     thread. A blocked worker thread per pending request never exists.
//   STEP — executed inline on the loop thread (a session step is
//     microseconds of compute on a warm ring buffer; dispatching it would
//     cost more than running it). SessionManager is thread-safe, so the
//     same sessions could also be driven by a future step worker pool.
//
// ADMISSION CONTROL / LOAD SHEDDING (on top of the queue backpressure the
// serving layer already has): a bounded in-flight budget — SUBMITs
// admitted but not yet answered — fast-rejects overload with a
// RETRY_AFTER error frame carrying a backoff hint, instead of letting
// queues grow until every request times out. Idle connections are closed
// after options.idle_timeout; connections whose write buffer exceeds
// options.max_outbuf (a reader slower than its results) are dropped.
// stop() drains gracefully: the listen socket closes, new work is
// answered with SHUTTING_DOWN, and the loop runs until every admitted
// request has been answered and flushed (or drain_timeout passes).
//
// THREAD SAFETY. start()/stop()/stats()/port() are thread-safe. The
// subsystem has two locks, lifecycle_mutex_ (start()/stop()) and the
// completion queue's completions_mutex; their ranks, first and a leaf,
// are in runtime/lock_rank.hpp.
//
// LIFETIME. The FrontEnd borrows the InferenceServer and SessionManager
// (either may be null — the corresponding protocol surface reports
// NOT_AVAILABLE). Both must outlive the FrontEnd; shut the FrontEnd down
// first, then the serving layer. Worker completions that outlive a
// connection (or arrive during teardown) are dropped via a shared-ptr'd
// completion queue — never a dangling write.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "runtime/lock_rank.hpp"
#include "serve/inference_server.hpp"
#include "serve/session_manager.hpp"

namespace pit::net {

struct FrontEndOptions {
  /// Address to bind. The default serves loopback only; bind "0.0.0.0"
  /// to serve a fleet (the protocol has no auth — front it accordingly).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  int listen_backlog = 128;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 1024;
  /// Admission budget: SUBMITs admitted (queued or executing) but not
  /// yet answered. At the budget, new SUBMITs are fast-rejected with
  /// RETRY_AFTER instead of queuing — bounded latency under overload.
  std::size_t max_inflight = 256;
  /// Backoff hint carried by RETRY_AFTER / SESSION_LIMIT errors.
  std::uint32_t retry_after_ms = 20;
  /// Connections with no traffic and no pending work for this long are
  /// closed. Zero disables idle collection.
  std::chrono::milliseconds idle_timeout{0};
  /// Receive-side payload cap (a larger declared frame is TOO_LARGE).
  std::size_t max_payload = kDefaultMaxPayload;
  /// A connection whose unsent output exceeds this is a slow reader and
  /// is closed (its buffer would otherwise grow without bound).
  std::size_t max_outbuf = 8U << 20;
  /// stop(): how long to wait for in-flight work to finish and write
  /// buffers to flush before tearing connections down anyway.
  std::chrono::milliseconds drain_timeout{2000};
};

/// Monotonic counters (a snapshot; the loop keeps moving).
struct FrontEndStats {
  std::uint64_t accepted = 0;         ///< connections accepted
  std::uint64_t closed = 0;           ///< connections closed (any reason)
  std::uint64_t hellos = 0;           ///< successful negotiations
  std::uint64_t submits = 0;          ///< SUBMITs admitted to the server
  std::uint64_t results = 0;          ///< RESULT frames written
  std::uint64_t steps = 0;            ///< STEPs executed
  std::uint64_t opens = 0;            ///< sessions opened
  std::uint64_t session_closes = 0;   ///< sessions closed (CLOSE or conn end)
  std::uint64_t sheds = 0;            ///< SUBMITs rejected with RETRY_AFTER
  std::uint64_t session_rejects = 0;  ///< OPENs rejected with SESSION_LIMIT
  std::uint64_t protocol_errors = 0;  ///< fatal frame/negotiation errors
  std::uint64_t exec_errors = 0;      ///< INTERNAL errors sent
  std::uint64_t idle_closed = 0;      ///< connections collected as idle
  std::uint64_t slow_closed = 0;      ///< connections dropped as slow readers
  std::size_t connections = 0;        ///< currently connected
  std::size_t inflight = 0;           ///< admitted, unanswered SUBMITs
  std::size_t open_sessions = 0;      ///< live sessions across connections
};

class FrontEnd {
 public:
  /// Either serving surface may be null; its requests then answer
  /// NOT_AVAILABLE. Both pointers must outlive this object.
  FrontEnd(serve::InferenceServer* server, serve::SessionManager* sessions,
           FrontEndOptions options = {});
  ~FrontEnd();
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds, listens, and starts the event-loop thread. Throws pit::Error
  /// when the socket cannot be set up (port in use, bad address).
  void start();

  /// Graceful drain: stops accepting, answers new work with
  /// SHUTTING_DOWN, waits (up to options.drain_timeout) for admitted
  /// requests to be answered and flushed, then closes every connection
  /// and joins the loop. Idempotent; the destructor calls it.
  void stop();

  /// The bound TCP port (after start(); meaningful with options.port=0).
  std::uint16_t port() const { return bound_port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  FrontEndStats stats() const;

 private:
  struct Conn;

  /// A finished SUBMIT handed from a server worker to the loop. conn_id
  /// (not a pointer) because the connection may be gone by the time the
  /// loop drains this — a dead id is dropped, never dereferenced.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t req_id = 0;
    Tensor output;
    std::string error;  ///< empty on success
  };

  /// Shared between the loop and server-worker callbacks; outlives both
  /// sides of any race via shared_ptr. `open` flips false in stop() —
  /// after that, late completions are dropped under the same lock that
  /// guards the eventfd, so a wakeup write can never hit a closed fd.
  struct CompletionQueue {
    runtime::RankedMutex<runtime::LockRank::kCompletions> completions_mutex;
    std::vector<Completion> items;
    int event_fd = -1;
    bool open = false;
    std::atomic<std::size_t> inflight{0};
  };

  void loop();
  void accept_ready();
  void read_ready(Conn& conn);
  void write_ready(Conn& conn);
  void dispatch(Conn& conn, const FrameView& frame);
  void on_hello(Conn& conn, std::span<const std::uint8_t> payload);
  void on_submit(Conn& conn, std::span<const std::uint8_t> payload);
  void on_open(Conn& conn, std::span<const std::uint8_t> payload);
  void on_step(Conn& conn, std::span<const std::uint8_t> payload);
  void on_close(Conn& conn, std::span<const std::uint8_t> payload);
  /// Sends an ERROR frame; a fatal code marks the connection to close
  /// once its buffer flushes.
  void send_error(Conn& conn, std::uint64_t req_id, ErrCode code,
                  std::string_view message);
  void queue_frame(Conn& conn);  ///< flush scratch_ into conn, update epoll
  void flush_writes(Conn& conn);
  void update_write_interest(Conn& conn);
  void close_conn(std::uint64_t conn_id);
  void drain_completions();
  void sweep_idle(std::chrono::steady_clock::time_point now);
  bool drain_complete() const;

  serve::InferenceServer* server_;
  serve::SessionManager* sessions_;
  FrontEndOptions options_;

  // Geometry, resolved from the serving plans at start().
  std::uint32_t submit_in_c_ = 0, submit_in_t_ = 0;
  std::uint32_t submit_out_c_ = 0, submit_out_t_ = 0;
  std::uint32_t stream_in_c_ = 0, stream_out_c_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point drain_deadline_;
  std::shared_ptr<CompletionQueue> completions_;
  // Serializes start()/stop().
  runtime::RankedMutex<runtime::LockRank::kLifecycle> lifecycle_mutex_;

  // Loop-thread-only state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 2;  // 0 = listen fd, 1 = eventfd
  std::vector<std::uint8_t> scratch_;    // frame assembly before queueing
  std::vector<float> step_out_scratch_;  // STEP output staging

  // Counters (atomics: bumped on the loop or worker, read from stats()).
  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0}, closed{0}, hellos{0},
        submits{0}, results{0}, steps{0}, opens{0}, session_closes{0},
        sheds{0}, session_rejects{0}, protocol_errors{0}, exec_errors{0},
        idle_closed{0}, slow_closed{0};
    std::atomic<std::size_t> connections{0}, open_sessions{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace pit::net
