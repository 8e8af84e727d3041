// Quantized streaming, end to end: calibrate -> lower -> stream.
//
// The paper's deployed artifact is an int8 TCN running continuously on
// streamed sensor data (PPG-DaLiA heart rate on GAP8). This example walks
// that arc on the compiled runtime:
//
//   1. compile TempoNet's conv backbone into a streamable fp32 plan,
//   2. calibrate + lower it to the int8 program (quantize_plan),
//   3. serve several concurrent sensor streams through a SessionManager,
//      advancing them one tick at a time — per-session step() and
//      same-tick micro-batched step_tick() —
//   4. verify every streamed output against the batched int8 forward
//      (they must match bit-exactly) and print per-session stats.
//
// Exits non-zero on any mismatch, so the CTest smoke run is a real check.
#include <cmath>
#include <cstdio>
#include <vector>

#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "models/temponet.hpp"
#include "nn/kernels/registry.hpp"
#include "runtime/quantize_plan.hpp"
#include "serve/session_manager.hpp"
#include "tensor/tensor.hpp"

using namespace pit;

namespace {

/// Synthetic PPG-ish tick: a heartbeat-frequency carrier per channel.
void sensor_tick(int session, index_t t, float* out, index_t channels) {
  for (index_t c = 0; c < channels; ++c) {
    out[c] = 0.7F * std::sin(0.11F * static_cast<float>(t) +
                             0.3F * static_cast<float>(c)) +
             0.05F * static_cast<float>(session);
  }
}

}  // namespace

int main() {
  // A trained-shaped scaled TempoNet (train-mode forward seeds the BN
  // running stats the compiler folds).
  models::TempoNetConfig cfg;
  cfg.channel_scale = 0.25;
  cfg.input_length = 64;
  RandomEngine rng(17);
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, cfg.dilations), rng);
  model.train();
  model.forward(Tensor::randn(Shape{8, cfg.input_channels, 64}, rng));
  model.eval();

  // 1. The streamable backbone: the seven BN-folded dilated convs, no
  // pools/head — a causal feature extractor advanced tick by tick.
  const auto fp32 = runtime::compile_stream_backbone(model, 64);
  std::printf("backbone: %zu ops, %lld -> %lld channels per step, "
              "streamable=%s\n",
              fp32->num_ops(),
              static_cast<long long>(fp32->input_channels()),
              static_cast<long long>(fp32->output_channels()),
              fp32->streamable() ? "yes" : "no");

  // 2. Calibrate on synthetic sensor windows and lower to int8.
  std::vector<Tensor> rows;
  std::vector<Tensor> targets;
  for (int i = 0; i < 12; ++i) {
    Tensor window = Tensor::empty(Shape{cfg.input_channels, index_t{64}});
    for (index_t t = 0; t < 64; ++t) {
      std::vector<float> tick(static_cast<std::size_t>(cfg.input_channels));
      sensor_tick(i % 4, t, tick.data(), cfg.input_channels);
      for (index_t c = 0; c < cfg.input_channels; ++c) {
        window.data()[c * 64 + t] = tick[static_cast<std::size_t>(c)];
      }
    }
    rows.push_back(std::move(window));
    targets.push_back(Tensor::zeros(Shape{1}));
  }
  data::TensorDataset calib(std::move(rows), std::move(targets));
  data::DataLoader loader(calib, 4, /*shuffle=*/false);
  const auto int8 = runtime::quantize_plan(*fp32, loader);
  std::printf("int8 lowering: %lld weight bytes, %lld arena bytes/sample, "
              "error bound %.3e (rms estimate %.3e), kernels: %s\n",
              static_cast<long long>(int8->quant_weight_bytes()),
              static_cast<long long>(int8->quant_arena_bytes_per_sample()),
              int8->quant_error_bound(), int8->quant_error_estimate(),
              nn::kernels::Registry::instance().i8_isa());

  // 3. Serve three concurrent streams over the ONE shared int8 plan.
  serve::SessionManager manager(int8);
  constexpr int kSessions = 3;
  constexpr index_t kSteps = 64;
  std::vector<serve::SessionManager::SessionId> ids;
  for (int s = 0; s < kSessions; ++s) {
    ids.push_back(manager.open());
  }
  const index_t c_in = int8->input_channels();
  const index_t c_out = int8->output_channels();

  // Batched reference: each session's whole sequence as one forward.
  std::vector<Tensor> reference;
  runtime::ExecutionContext batch_ctx;
  for (int s = 0; s < kSessions; ++s) {
    Tensor x = Tensor::empty(Shape{1, c_in, kSteps});
    for (index_t t = 0; t < kSteps; ++t) {
      std::vector<float> tick(static_cast<std::size_t>(c_in));
      sensor_tick(s, t, tick.data(), c_in);
      for (index_t c = 0; c < c_in; ++c) {
        x.data()[c * kSteps + t] = tick[static_cast<std::size_t>(c)];
      }
    }
    reference.push_back(int8->forward(x, batch_ctx));
  }

  // Stream: odd steps through per-session step(), even steps through one
  // micro-batched step_tick across all sessions.
  std::vector<float> inputs(static_cast<std::size_t>(kSessions * c_in));
  std::vector<float> outputs(static_cast<std::size_t>(kSessions * c_out));
  index_t mismatches = 0;
  for (index_t t = 0; t < kSteps; ++t) {
    for (int s = 0; s < kSessions; ++s) {
      sensor_tick(s, t, inputs.data() + s * c_in, c_in);
    }
    if (t % 2 == 0) {
      manager.step_tick(ids.data(), ids.size(), inputs.data(),
                        outputs.data());
    } else {
      for (int s = 0; s < kSessions; ++s) {
        manager.step(ids[static_cast<std::size_t>(s)],
                     inputs.data() + s * c_in, outputs.data() + s * c_out);
      }
    }
    // 4. Every streamed output must equal the batched forward's column.
    for (int s = 0; s < kSessions; ++s) {
      for (index_t c = 0; c < c_out; ++c) {
        const float got = outputs[static_cast<std::size_t>(s * c_out + c)];
        const float want = reference[static_cast<std::size_t>(s)]
                               .data()[c * kSteps + t];
        if (got != want) {
          ++mismatches;
        }
      }
    }
  }

  const auto stats = manager.stats();
  std::printf("streamed %lld ticks x %d sessions (%llu session-steps, "
              "%llu ticks batched), mismatches vs batched forward: %lld\n",
              static_cast<long long>(kSteps), kSessions,
              static_cast<unsigned long long>(stats.steps),
              static_cast<unsigned long long>(stats.ticks),
              static_cast<long long>(mismatches));
  for (int s = 0; s < kSessions; ++s) {
    const auto ss =
        manager.session_stats(ids[static_cast<std::size_t>(s)]);
    std::printf("  session %llu: %llu steps\n",
                static_cast<unsigned long long>(
                    ids[static_cast<std::size_t>(s)]),
                static_cast<unsigned long long>(ss.steps));
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: quantized streaming diverged from the batched "
                 "int8 forward\n");
    return 1;
  }
  std::printf("OK: int8 streaming matches the batched forward "
              "bit-exactly\n");
  return 0;
}
