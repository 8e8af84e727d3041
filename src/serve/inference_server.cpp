#include "serve/inference_server.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "tensor/error.hpp"

namespace pit::serve {

InferenceServer::InferenceServer(runtime::PlanHandle handle,
                                 ServerOptions options)
    : handle_(std::move(handle)), options_(options) {
  PIT_CHECK(handle_, "InferenceServer: empty plan handle");
  {
    const runtime::PlanLease lease = handle_.acquire();
    in_channels_ = lease->input_channels();
    in_steps_ = lease->input_steps();
    out_channels_ = lease->output_channels();
    out_steps_ = lease->output_steps();
  }
  PIT_CHECK(options_.threads >= 1,
            "InferenceServer: threads = " << options_.threads);
  PIT_CHECK(options_.max_batch >= 1,
            "InferenceServer: max_batch = " << options_.max_batch);
  PIT_CHECK(options_.max_queue >= 1, "InferenceServer: max_queue = 0");
  workers_.reserve(static_cast<std::size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InferenceServer::InferenceServer(
    std::shared_ptr<const runtime::CompiledPlan> plan, ServerOptions options)
    : InferenceServer(runtime::PlanHandle::single(std::move(plan)),
                      options) {}

InferenceServer::~InferenceServer() { shutdown(); }

namespace {

void check_sample_shape(const Tensor& input, index_t c, index_t t,
                        const char* who) {
  const bool flat_ok = t == 1 && input.rank() == 1 && input.dim(0) == c;
  PIT_CHECK(flat_ok || (input.rank() == 2 && input.dim(0) == c &&
                        input.dim(1) == t),
            who << ": expected one (" << c << ", " << t << ") sample, got "
                << input.shape().to_string());
}

}  // namespace

std::future<Tensor> InferenceServer::submit(Tensor input) {
  check_sample_shape(input, in_channels_, in_steps_,
                     "InferenceServer::submit");
  // The future flavor is the callback path with a completion that fulfils
  // a promise (shared: Completion is a copyable std::function).
  auto promise = std::make_shared<std::promise<Tensor>>();
  std::future<Tensor> fut = promise->get_future();
  const Admission admission = enqueue(
      std::move(input), [promise](Tensor&& out, std::exception_ptr err) {
        if (err) {
          promise->set_exception(err);
        } else {
          promise->set_value(std::move(out));
        }
      });
  PIT_CHECK(admission != Admission::kStopping,
            "InferenceServer::submit: server is shut down");
  PIT_CHECK(admission != Admission::kFull,
            "InferenceServer::submit: queue full ("
                << options_.max_queue << " requests) — backpressure");
  return fut;
}

bool InferenceServer::try_submit(Tensor input, Completion done) {
  check_sample_shape(input, in_channels_, in_steps_,
                     "InferenceServer::try_submit");
  PIT_CHECK(done, "InferenceServer::try_submit: empty completion");
  // A full queue or a shutdown is a load/lifecycle reject: the callback
  // never runs.
  return enqueue(std::move(input), std::move(done)) == Admission::kQueued;
}

InferenceServer::Admission InferenceServer::enqueue(Tensor input,
                                                    Completion done) {
  Request req;
  req.input = std::move(input);
  req.done = std::move(done);
  req.enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      return Admission::kStopping;
    }
    if (queue_.size() >= options_.max_queue) {
      return Admission::kFull;
    }
    queue_.push_back(std::move(req));
    ++stats_.requests;
  }
  cv_.notify_one();
  return Admission::kQueued;
}

void InferenceServer::worker_loop() {
#ifdef _OPENMP
  if (options_.intra_op_threads > 0) {
    omp_set_num_threads(options_.intra_op_threads);
  }
#endif
  runtime::ExecutionContext ctx;
  std::vector<Request> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping and fully drained
      }
      // Micro-batching: hold the batch open until it fills or the oldest
      // request's deadline passes. During shutdown, flush immediately.
      const auto deadline = queue_.front().enqueued + options_.max_wait;
      while (!stopping_ && !queue_.empty() &&
             static_cast<index_t>(queue_.size()) < options_.max_batch &&
             std::chrono::steady_clock::now() < deadline) {
        cv_.wait_until(lock, deadline);
      }
      if (queue_.empty()) {
        continue;  // a sibling drained it while this worker held the batch
      }
      const std::size_t take =
          std::min(queue_.size(),
                   static_cast<std::size_t>(options_.max_batch));
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ++stats_.batches;
      stats_.max_batch_executed = std::max(
          stats_.max_batch_executed, static_cast<index_t>(batch.size()));
    }
    // More requests may remain queued: wake a sibling before running.
    cv_.notify_one();
    // Resolve the active version per batch: the lease pins the plan and
    // holds a concurrent swap's drain until this batch completes; the
    // next batch picks up the new version automatically.
    const runtime::PlanLease lease = handle_.acquire();
    run_batch(batch, ctx, *lease);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.completed += batch.size();
    }
  }
}

void InferenceServer::run_batch(std::vector<Request>& batch,
                                runtime::ExecutionContext& ctx,
                                const runtime::CompiledPlan& plan) const {
  const auto n = static_cast<index_t>(batch.size());
  const index_t c = plan.input_channels();
  const index_t t = plan.input_steps();
  const index_t sample_floats = c * t;
  try {
    Tensor stacked = t == 1 ? Tensor::empty(Shape{n, c})
                            : Tensor::empty(Shape{n, c, t});
    float* dst = stacked.data();
    for (index_t i = 0; i < n; ++i) {
      std::memcpy(dst + i * sample_floats, batch[static_cast<std::size_t>(i)]
                                               .input.data(),
                  static_cast<std::size_t>(sample_floats) * sizeof(float));
    }
    const Tensor out = plan.forward(stacked, ctx);
    const index_t co = plan.output_channels();
    const index_t to = plan.output_steps();
    const index_t out_floats = co * to;
    const float* src = out.data();
    for (index_t i = 0; i < n; ++i) {
      Tensor slice = to == 1 ? Tensor::empty(Shape{co})
                             : Tensor::empty(Shape{co, to});
      std::memcpy(slice.data(), src + i * out_floats,
                  static_cast<std::size_t>(out_floats) * sizeof(float));
      Request& req = batch[static_cast<std::size_t>(i)];
      req.delivered = true;  // before the handoff: a throwing callback
                             // must not get a second (error) delivery
      req.done(std::move(slice), nullptr);
    }
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    for (Request& req : batch) {
      if (req.delivered) {
        continue;  // success already handed out before the throw
      }
      req.delivered = true;
      req.done(Tensor(), err);
    }
  }
}

void InferenceServer::shutdown() {
  // Claim the worker handles under the lock so concurrent shutdown()
  // calls (or shutdown racing the destructor) join disjoint sets.
  std::vector<std::thread> claimed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    claimed.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& w : claimed) {
    if (w.joinable()) {
      w.join();
    }
  }
}

ServerStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace pit::serve
