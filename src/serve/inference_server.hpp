// Concurrent serving layer over the frozen inference runtime.
//
// InferenceServer turns a registry-managed model (runtime::PlanHandle) —
// or, through the adapter constructor, one immutable CompiledPlan — into
// a request/response service: callers submit() single samples from any
// thread and get a future; a pool of worker threads — each owning its own ExecutionContext,
// which is what makes concurrent execution of the shared plan safe (see
// the thread-safety contract in runtime/compiled_net.hpp) — drains a
// dynamic micro-batching queue. Requests coalesce until either max_batch
// samples are waiting or the oldest request has waited max_wait, then run
// as ONE batched forward; the batch is split back into per-request output
// tensors. Micro-batching is the classic serving trade: a bounded latency
// tax on the first request in a batch buys amortized per-op dispatch and
// kernel efficiency across the whole batch — the knob that lets the
// single-shot runtime of PR 2 hold up under many concurrent clients.
//
// For latency-critical single-sample flows (one time step arriving at a
// time), see StreamSession in stream_session.hpp; for session-scale
// streaming — thousands of concurrent sequences with pooled state and
// same-tick micro-batching — see SessionManager in session_manager.hpp.
// All three serve fp32 and int8 plans alike (the plan dispatches).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/compiled_net.hpp"
#include "runtime/plan_registry.hpp"

namespace pit::serve {

struct ServerOptions {
  /// Worker threads; each owns one ExecutionContext and runs whole
  /// batches, so throughput scales with inter-request parallelism.
  int threads = 2;
  /// A batch runs as soon as this many requests are queued...
  index_t max_batch = 16;
  /// ...or once the oldest queued request has waited this long.
  std::chrono::microseconds max_wait{200};
  /// Backpressure: submit() throws once this many requests are queued.
  std::size_t max_queue = 4096;
  /// OpenMP threads each worker grants the kernels (intra-op parallelism).
  /// 1 — the default — dedicates each core to a worker, which is how a
  /// thread-pool server wants it; 0 leaves the OpenMP default untouched.
  int intra_op_threads = 1;
};

struct ServerStats {
  std::uint64_t requests = 0;   // accepted by submit()
  std::uint64_t completed = 0;  // futures fulfilled (including errors)
  std::uint64_t batches = 0;    // batched forwards executed
  index_t max_batch_executed = 0;
  /// Mean coalesced batch size — the micro-batching win in one number.
  double mean_batch() const {
    return batches > 0 ? static_cast<double>(completed) /
                             static_cast<double>(batches)
                       : 0.0;
  }
};

/// Thread-pool inference server with dynamic micro-batching. All public
/// methods are thread-safe. Destruction (or shutdown()) stops accepting
/// new work, drains every queued request, and joins the workers.
class InferenceServer {
 public:
  /// Serves the handle's model. Each coalesced batch resolves the
  /// version active at execution time through a PlanLease, so a hot swap
  /// (PlanRegistry::swap_active) takes effect between batches and
  /// completes only after in-flight batches drain.
  explicit InferenceServer(runtime::PlanHandle handle,
                           ServerOptions options = {});
  /// Single-plan adapter: wraps `plan` in a one-entry registry. Behaves
  /// exactly like the pre-registry server.
  explicit InferenceServer(std::shared_ptr<const runtime::CompiledPlan> plan,
                           ServerOptions options = {});
  ~InferenceServer();
  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one sample — (C, T), or (C,) when the plan's input has a
  /// single step — and returns a future for its output tensor ((C_out, T_out)
  /// or (C_out,)). Throws pit::Error on a shape mismatch, when the queue is
  /// full, or after shutdown. The future carries any execution error.
  std::future<Tensor> submit(Tensor input);

  /// Completion callback for try_submit. Exactly one of the arguments is
  /// meaningful: on success the output tensor, on failure the exception
  /// that killed the batch. Runs on a worker thread holding NO server
  /// lock — it may call back into the server, but must not block (it
  /// stalls the whole batch's worker).
  using Completion = std::function<void(Tensor&&, std::exception_ptr)>;

  /// Callback flavor of submit() for event-loop callers that must never
  /// park a thread on a future (src/net/front_end.cpp). Same queue, same
  /// batching, same shape validation (a bad shape still throws — that is
  /// a caller bug, not load). Returns false instead of throwing when the
  /// queue is full or the server is shutting down: those are load/
  /// lifecycle signals the caller turns into fast-reject responses.
  bool try_submit(Tensor input, Completion done);

  /// Stops accepting submissions, runs everything still queued, joins the
  /// workers. Idempotent; the destructor calls it.
  void shutdown();

  ServerStats stats() const;
  /// The model's currently-active plan (a fresh pin).
  std::shared_ptr<const runtime::CompiledPlan> plan() const {
    return handle_.acquire().plan();
  }

 private:
  struct Request {
    Tensor input;
    Completion done;  // submit() passes one that fulfils its promise
    bool delivered = false;  // success already handed out (error barrier)
    std::chrono::steady_clock::time_point enqueued;
  };

  enum class Admission { kQueued, kStopping, kFull };
  /// Queues one shape-checked request unless the server is stopping or
  /// the queue is full; the shared tail of submit() and try_submit().
  Admission enqueue(Tensor input, Completion done);
  void worker_loop();
  void run_batch(std::vector<Request>& batch, runtime::ExecutionContext& ctx,
                 const runtime::CompiledPlan& plan) const;

  runtime::PlanHandle handle_;
  ServerOptions options_;
  // Versions of one model share geometry (the registry enforces it), so
  // submit() validates shapes without resolving the active version.
  index_t in_channels_ = 0;
  index_t in_steps_ = 0;
  index_t out_channels_ = 0;
  index_t out_steps_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  ServerStats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace pit::serve
