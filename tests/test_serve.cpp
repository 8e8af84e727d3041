// Serving layer: micro-batching InferenceServer and StreamSession.
#include "serve/inference_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <latch>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "models/restcn.hpp"
#include "models/temponet.hpp"
#include "runtime/compile_models.hpp"
#include "serve/stream_session.hpp"
#include "tensor/error.hpp"

namespace pit::serve {
namespace {

models::TempoNetConfig small_temponet_config() {
  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;
  return cfg;
}

struct TempoNetFixture {
  TempoNetFixture()
      : rng(1201),
        model(small_temponet_config(),
              models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}), rng) {
    model.train();
    model.forward(Tensor::randn(Shape{8, 4, 64}, rng));
    model.eval();
    plan = runtime::compile_plan(model);
  }

  /// One (4, 64) sample plus its reference output row via the module graph.
  std::pair<Tensor, Tensor> make_sample() {
    Tensor x = Tensor::randn(Shape{1, 4, 64}, rng);
    Tensor sample = Tensor::empty(Shape{4, 64});
    std::copy(x.data(), x.data() + x.numel(), sample.data());
    NoGradGuard guard;
    const Tensor y = model.forward(x);  // (1, classes)
    Tensor row = Tensor::empty(Shape{y.dim(1)});
    std::copy(y.data(), y.data() + y.numel(), row.data());
    return {std::move(sample), std::move(row)};
  }

  RandomEngine rng;
  models::TempoNet model;
  std::shared_ptr<const runtime::CompiledPlan> plan;
};

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0F;
  for (index_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

TEST(InferenceServer, ServedResultsMatchModuleForward) {
  TempoNetFixture fx;
  ServerOptions options;
  options.threads = 3;
  options.max_batch = 8;
  InferenceServer server(fx.plan, options);

  std::vector<Tensor> expected;
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 48; ++i) {
    auto [sample, ref] = fx.make_sample();
    expected.push_back(std::move(ref));
    futures.push_back(server.submit(std::move(sample)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Tensor out = futures[i].get();
    EXPECT_LT(max_abs_diff(out, expected[i]), 1e-4F) << "request " << i;
  }
  server.shutdown();  // joins the workers: stats are final afterwards
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 48u);
  EXPECT_EQ(stats.completed, 48u);
  EXPECT_GE(stats.batches, 1u);
}

TEST(InferenceServer, CoalescesConcurrentRequestsIntoBatches) {
  TempoNetFixture fx;
  ServerOptions options;
  options.threads = 1;  // one worker: every coalesce is visible in stats
  options.max_batch = 16;
  InferenceServer server(fx.plan, options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 24;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<Tensor>>> futures(kClients);
  std::vector<Tensor> samples;
  for (int i = 0; i < kClients; ++i) {
    samples.push_back(fx.make_sample().first);
  }
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        futures[static_cast<std::size_t>(c)].push_back(
            server.submit(samples[static_cast<std::size_t>(c)].clone()));
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (auto& fs : futures) {
    for (auto& f : fs) {
      f.get();
    }
  }
  server.shutdown();  // joins the workers: stats are final afterwards
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  // Concurrent submits against one worker must have coalesced: strictly
  // fewer forwards than requests, and at least one real batch.
  EXPECT_LT(stats.batches, stats.requests);
  EXPECT_GE(stats.max_batch_executed, 2);
  EXPECT_GT(stats.mean_batch(), 1.0);
}

TEST(InferenceServer, LoneRequestRunsWithoutWaitingForABatch) {
  TempoNetFixture fx;
  ServerOptions options;
  options.threads = 1;
  options.max_batch = 1024;  // never fills
  InferenceServer server(fx.plan, options);

  auto [sample, ref] = fx.make_sample();
  std::future<Tensor> fut = server.submit(std::move(sample));
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "a free worker must run a lone request, not wait for max_batch";
  EXPECT_LT(max_abs_diff(fut.get(), ref), 1e-4F);
}

TEST(InferenceServer, ShutdownDrainsEveryQueuedRequest) {
  TempoNetFixture fx;
  ServerOptions options;
  options.threads = 2;
  options.max_batch = 4;
  auto server = std::make_unique<InferenceServer>(fx.plan, options);

  std::vector<std::future<Tensor>> futures;
  std::vector<Tensor> expected;
  for (int i = 0; i < 20; ++i) {
    auto [sample, ref] = fx.make_sample();
    expected.push_back(std::move(ref));
    futures.push_back(server->submit(std::move(sample)));
  }
  server->shutdown();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i << " was dropped at shutdown";
    EXPECT_LT(max_abs_diff(futures[i].get(), expected[i]), 1e-4F);
  }
  EXPECT_THROW(server->submit(fx.make_sample().first), Error);
  server.reset();  // double-shutdown via the destructor must be a no-op
}

TEST(InferenceServer, RejectsBadInputs) {
  TempoNetFixture fx;
  InferenceServer server(fx.plan, {});
  RandomEngine rng(1301);
  EXPECT_THROW(server.submit(Tensor::randn(Shape{5, 64}, rng)), Error);
  EXPECT_THROW(server.submit(Tensor::randn(Shape{4, 63}, rng)), Error);
  EXPECT_THROW(server.submit(Tensor::randn(Shape{1, 4, 64}, rng)), Error);
  EXPECT_THROW(InferenceServer(nullptr, {}), Error);
  ServerOptions bad;
  bad.threads = 0;
  EXPECT_THROW(InferenceServer(fx.plan, bad), Error);
}

/// Parks the only worker of `server` inside the completion of one request
/// until release(), so that requests queued meanwhile wait behind it and
/// the batches they form do not depend on timing. Declare it after the
/// server: its destructor releases the worker, so a failed assertion
/// cannot leave shutdown() joining a parked thread.
class HeldWorker {
 public:
  HeldWorker(InferenceServer& server, const Tensor& sample) {
    std::shared_future<void> opened = opened_;
    EXPECT_TRUE(server.try_submit(
        sample.clone(), [this, opened](Tensor&&, std::exception_ptr) {
          entered_.count_down();
          opened.wait();
        }));
    entered_.wait();  // the request has left the queue
  }
  ~HeldWorker() { release(); }
  HeldWorker(const HeldWorker&) = delete;
  HeldWorker& operator=(const HeldWorker&) = delete;

  void release() {
    if (!released_) {
      released_ = true;
      gate_.set_value();
    }
  }

 private:
  std::latch entered_{1};
  std::promise<void> gate_;
  std::shared_future<void> opened_ = gate_.get_future().share();
  bool released_ = false;
};

TEST(InferenceServer, RequestsQueuedBehindABusyWorkerRunAsOneBatch) {
  TempoNetFixture fx;
  const Tensor hold = fx.make_sample().first;
  for (const int n : {1, 5, 8}) {
    ServerOptions options;
    options.threads = 1;
    options.max_batch = 8;
    InferenceServer server(fx.plan, options);
    HeldWorker held(server, hold);
    std::vector<Tensor> expected;
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < n; ++i) {
      auto [sample, ref] = fx.make_sample();
      expected.push_back(std::move(ref));
      futures.push_back(server.submit(std::move(sample)));
    }
    held.release();
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_LT(max_abs_diff(futures[i].get(), expected[i]), 1e-4F)
          << "n " << n << ", request " << i;
    }
    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.batches, 2u) << "n " << n;
    EXPECT_EQ(stats.max_batch_executed, n) << "n " << n;
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(n + 1));
  }
}

TEST(InferenceServer, QueuedRequestsRunAsFullBatchesInFifoOrder) {
  TempoNetFixture fx;
  const Tensor sample = fx.make_sample().first;
  ServerOptions options;
  options.threads = 1;
  options.max_batch = 8;
  InferenceServer server(fx.plan, options);
  HeldWorker held(server, sample);
  // (request, batch it ran in). Only the worker writes; shutdown() joins
  // it before the test reads.
  std::vector<std::pair<int, std::uint64_t>> ran;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server.try_submit(
        sample.clone(), [&, i](Tensor&&, std::exception_ptr err) {
          EXPECT_FALSE(err) << "request " << i;
          // One worker: its current batch is the last one taken.
          ran.emplace_back(i, server.stats().batches);
        }));
  }
  held.release();
  server.shutdown();
  ASSERT_EQ(ran.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    const auto& [request, batch] = ran[static_cast<std::size_t>(i)];
    EXPECT_EQ(request, i) << "completions out of FIFO order";
    // Batch 1 is the held request; 20 queued run as 8, 8, 4.
    EXPECT_EQ(batch, static_cast<std::uint64_t>(2 + i / 8))
        << "request " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.max_batch_executed, 8);
  EXPECT_EQ(stats.completed, 21u);
}

TEST(InferenceServer, TrySubmitRejectsWithoutCallingBackWhenFullOrStopped) {
  TempoNetFixture fx;
  const Tensor sample = fx.make_sample().first;
  ServerOptions options;
  options.threads = 1;
  options.max_queue = 2;
  InferenceServer server(fx.plan, options);
  HeldWorker held(server, sample);  // its request no longer counts
  std::atomic<int> calls{0};
  const auto count = [&calls](Tensor&&, std::exception_ptr) { ++calls; };
  EXPECT_TRUE(server.try_submit(sample.clone(), count));
  EXPECT_TRUE(server.try_submit(sample.clone(), count));
  EXPECT_FALSE(server.try_submit(sample.clone(), count)) << "queue is full";
  held.release();
  server.shutdown();
  EXPECT_EQ(calls.load(), 2);
  EXPECT_FALSE(server.try_submit(sample.clone(), count)) << "server stopped";
  EXPECT_EQ(calls.load(), 2) << "a rejected request must not call back";
  EXPECT_EQ(server.stats().requests, 3u);
}

TEST(InferenceServer, ThrowingCompletionFailsNoOtherRequest) {
  TempoNetFixture fx;
  const Tensor sample = fx.make_sample().first;
  ServerOptions options;
  options.threads = 1;
  InferenceServer server(fx.plan, options);
  HeldWorker held(server, sample);
  // Only the worker writes; shutdown() joins it before the test reads.
  int ok = 0;
  int failed = 0;
  const auto tally = [&](Tensor&&, std::exception_ptr err) {
    ++(err ? failed : ok);
  };
  ASSERT_TRUE(server.try_submit(
      sample.clone(), [&](Tensor&&, std::exception_ptr err) {
        if (err) {
          ++failed;
          return;
        }
        throw std::runtime_error("client completion failed");
      }));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.try_submit(sample.clone(), tally));
  }
  held.release();  // the four queued requests run as one batch
  server.shutdown();
  EXPECT_EQ(ok, 3) << "outputs computed for the batch must be delivered";
  EXPECT_EQ(failed, 0) << "the forward did not fail";
  EXPECT_EQ(server.stats().batches, 2u);
}

// ---- StreamSession ---------------------------------------------------------

TEST(StreamSession, MatchesWholeSequenceForward) {
  RandomEngine rng(1401);
  models::ResTcnConfig cfg;
  cfg.input_channels = 6;
  cfg.output_channels = 6;
  cfg.hidden_channels = 8;
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 2, 4, 8, 16, 2, 1, 32}),
      rng);
  model.eval();
  const index_t steps = 24;
  const auto plan = runtime::compile_plan(model, steps);

  Tensor x = Tensor::randn(Shape{1, 6, steps}, rng);
  runtime::ExecutionContext ctx;
  const Tensor full = plan->forward(x, ctx);

  StreamSession session(plan);
  for (index_t t = 0; t < steps; ++t) {
    Tensor in = Tensor::empty(Shape{6});
    for (index_t c = 0; c < 6; ++c) {
      in.data()[c] = x.data()[c * steps + t];
    }
    const Tensor out = session.step(in);
    for (index_t c = 0; c < 6; ++c) {
      EXPECT_NEAR(out.data()[c], full.data()[c * steps + t], 1e-4F)
          << "channel " << c << " step " << t;
    }
  }
  EXPECT_EQ(session.position(), static_cast<std::uint64_t>(steps));
  session.reset();
  EXPECT_EQ(session.position(), 0u);
}

TEST(StreamSession, RefusesNonStreamablePlans) {
  TempoNetFixture fx;
  EXPECT_THROW(StreamSession{fx.plan}, Error);
  EXPECT_THROW(StreamSession{nullptr}, Error);
}

}  // namespace
}  // namespace pit::serve
