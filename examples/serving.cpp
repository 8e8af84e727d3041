// Serving a compiled PIT network: micro-batching and streaming.
//
// One immutable CompiledPlan is shared by everything here:
//   1. an InferenceServer batches concurrent single-sample requests from
//      client threads into whole-batch forwards (throughput mode),
//   2. a StreamSession consumes one time step at a time through per-conv
//      ring-buffer history (latency mode), checked against the
//      whole-sequence forward.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/example_serving
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "models/restcn.hpp"
#include "models/temponet.hpp"
#include "runtime/compile_models.hpp"
#include "serve/inference_server.hpp"
#include "serve/stream_session.hpp"

using namespace pit;

int main() {
  std::printf("PIT serving: one plan, many threads\n");
  std::printf("===================================\n\n");

  // --- Micro-batching server over a TempoNet plan -----------------------
  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;
  RandomEngine rng(11);
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, cfg.dilations), rng);
  model.train();
  model.forward(Tensor::randn(Shape{8, cfg.input_channels, 64}, rng));
  model.eval();
  const auto plan = runtime::compile_plan(model);

  serve::ServerOptions options;
  options.threads = 2;
  options.max_batch = 8;
  serve::InferenceServer server(plan, options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 32;
  std::vector<std::thread> clients;
  std::atomic<int> delivered{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      RandomEngine client_rng(100 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < kPerClient; ++i) {
        Tensor sample =
            Tensor::randn(Shape{cfg.input_channels, index_t{64}}, client_rng);
        const Tensor out = server.submit(std::move(sample)).get();
        if (out.defined()) {
          ++delivered;
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  const serve::ServerStats stats = server.stats();
  std::printf("served %d requests from %d client threads\n", delivered.load(),
              kClients);
  std::printf("  %llu batched forwards, mean batch %.1f, largest %lld\n\n",
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch(),
              static_cast<long long>(stats.max_batch_executed));

  // --- Streaming session over a ResTCN plan -----------------------------
  models::ResTcnConfig rcfg;
  rcfg.input_channels = 6;
  rcfg.output_channels = 6;
  rcfg.hidden_channels = 8;
  models::ResTCN restcn(
      rcfg, models::dilated_conv_factory(rng, {1, 2, 4, 8, 16, 2, 1, 32}),
      rng);
  restcn.eval();
  const index_t steps = 32;
  const auto stream_plan = runtime::compile_plan(restcn, steps);
  std::printf("ResTCN plan streamable: %s\n",
              stream_plan->streamable() ? "yes" : "no");

  Tensor sequence = Tensor::randn(Shape{1, 6, steps}, rng);
  runtime::ExecutionContext batch_ctx;
  const Tensor full = stream_plan->forward(sequence, batch_ctx);

  serve::StreamSession session(stream_plan);
  float worst = 0.0F;
  for (index_t t = 0; t < steps; ++t) {
    Tensor in = Tensor::empty(Shape{6});
    for (index_t c = 0; c < 6; ++c) {
      in.data()[c] = sequence.data()[c * steps + t];
    }
    const Tensor out = session.step(in);
    for (index_t c = 0; c < 6; ++c) {
      worst = std::max(worst,
                       std::abs(out.data()[c] - full.data()[c * steps + t]));
    }
  }
  std::printf("streamed %lld steps; max |stream - batch| = %.2e\n",
              static_cast<long long>(steps), static_cast<double>(worst));
  if (worst > 1e-4F || delivered.load() != kClients * kPerClient) {
    std::fprintf(stderr, "serving demo diverged\n");
    return 1;
  }
  std::printf("\ndone — bench_serve sweeps thread counts and batching "
              "policies and writes BENCH_serve.json.\n");
  return 0;
}
