#include "models.hpp"

#include <chrono>
#include <cmath>
#include <cstring>

#include "common.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "models/temponet.hpp"
#include "runtime/compile_models.hpp"
#include "runtime/quantize_plan.hpp"
#include "serve/stream_session.hpp"

namespace pitperf {

using pit::RandomEngine;
using pit::Shape;
using pit::Tensor;

namespace {

constexpr double kTwoPi = 6.283185307179586;
constexpr std::uint64_t kWeightSeed = 17;  // the served model is fixed

double ms_since(std::int64_t t0) { return seconds_since(t0) * 1e3; }

}  // namespace

void fill_family(int family, RandomEngine& rng, float* dst, index_t c,
                 index_t t) {
  // Per-window parameters: rate (cycles per step), phase, amplitude.
  const double rate = rng.uniform(0.01, 0.08);
  const double phase = rng.uniform(0.0, kTwoPi);
  const double amp = rng.uniform(0.5, 1.5);
  for (index_t ch = 0; ch < c; ++ch) {
    const double ch_gain = ch == 0 ? 1.0 : rng.uniform(0.1, 0.6);
    for (index_t i = 0; i < t; ++i) {
      const double x = static_cast<double>(i);
      double v = 0.0;
      switch (family & 3) {
        case 0:  // PPG: pulse wave plus baseline wander
          v = std::sin(kTwoPi * rate * x + phase) +
              0.3 * std::sin(kTwoPi * rate * x / 9.0);
          break;
        case 1: {  // ECG: narrow periodic spikes over a flat baseline
          const double cyc = std::fmod(rate * x + phase / kTwoPi, 1.0);
          v = cyc < 0.05 ? 2.0 : 0.05 * std::sin(kTwoPi * 3.0 * rate * x);
          break;
        }
        case 2:  // sEMG: amplitude-modulated noise bursts
          v = rng.normal() * (0.5 + 0.5 * std::sin(kTwoPi * rate * x + phase));
          break;
        default:  // KWS: rising chirp
          v = std::sin(kTwoPi * rate * x * (1.0 + x / static_cast<double>(t)) +
                       phase);
          break;
      }
      dst[ch * t + i] =
          static_cast<float>(amp * ch_gain * v + 0.05 * rng.normal());
    }
  }
}

std::vector<float> make_windows(std::uint64_t seed, std::size_t count,
                                index_t c, index_t t) {
  RandomEngine rng(seed);
  std::vector<float> out(count * static_cast<std::size_t>(c * t));
  for (std::size_t i = 0; i < count; ++i) {
    fill_family(static_cast<int>(i % 4), rng,
                out.data() + i * static_cast<std::size_t>(c * t), c, t);
  }
  return out;
}

namespace {

Tensor window_batch(const std::vector<float>& w, std::size_t first,
                    std::size_t n, index_t c, index_t t) {
  const auto per = static_cast<std::size_t>(c * t);
  std::vector<float> v(w.begin() + static_cast<std::ptrdiff_t>(first * per),
                       w.begin() + static_cast<std::ptrdiff_t>((first + n) * per));
  return Tensor::from_vector(v, Shape{static_cast<index_t>(n), c, t});
}

}  // namespace

Served build_served(std::uint64_t seed, unsigned need) {
  pit::models::TempoNetConfig cfg;  // paper size: 4 x 256, widths 32/64/128
  RandomEngine rng(kWeightSeed);
  pit::models::TempoNet model(
      cfg, pit::models::dilated_conv_factory(rng, cfg.dilations), rng);
  // BatchNorm statistics from seeded windows, then freeze. No autograd
  // graph: a recorded one would outlive the set-up through its reference
  // cycles.
  const index_t c = cfg.input_channels;
  const index_t t = cfg.input_length;
  const std::vector<float> warm = make_windows(seed ^ 0xB00, 16, c, t);
  model.train();
  {
    pit::NoGradGuard no_grad;
    model.forward(window_batch(warm, 0, 16, c, t));
  }
  model.eval();

  Served out;
  std::int64_t t0 = now_ns();
  if ((need & (kSubmitF32 | kSubmitI8)) != 0) {
    out.submit_f32 = pit::runtime::compile_plan(model);
  }
  if ((need & (kStreamF32 | kStreamI8)) != 0) {
    out.stream_f32 = pit::runtime::compile_stream_backbone(model, t);
  }
  out.compile_ms = ms_since(t0);

  if ((need & (kSubmitI8 | kStreamI8)) != 0) {
    t0 = now_ns();
    std::vector<Tensor> rows;
    std::vector<Tensor> targets;
    const std::vector<float> calib = make_windows(seed ^ 0xCA1, 16, c, t);
    for (std::size_t i = 0; i < 16; ++i) {
      rows.push_back(window_batch(calib, i, 1, c, t).reshape(Shape{c, t}));
      targets.push_back(Tensor::zeros(Shape{1}));
    }
    pit::data::TensorDataset ds(std::move(rows), std::move(targets));
    pit::data::DataLoader loader(ds, 4, /*shuffle=*/false);
    if ((need & kSubmitI8) != 0) {
      out.submit_i8 = pit::runtime::quantize_plan(*out.submit_f32, loader);
    }
    if ((need & kStreamI8) != 0) {
      out.stream_i8 = pit::runtime::quantize_plan(*out.stream_f32, loader);
    }
    out.quantize_ms = ms_since(t0);
  }
  return out;
}

SubmitOracle make_submit_oracle(const pit::runtime::CompiledPlan& plan,
                                std::uint64_t seed, std::size_t pool) {
  SubmitOracle o;
  o.c = plan.input_channels();
  o.t = plan.input_steps();
  o.out_n = plan.output_channels() * plan.output_steps();
  o.pool = pool;
  o.inputs = make_windows(seed ^ 0x5B, pool, o.c, o.t);
  o.refs.resize(pool * static_cast<std::size_t>(o.out_n));
  pit::runtime::ExecutionContext ctx;
  for (std::size_t i = 0; i < pool; ++i) {
    const Tensor y = plan.forward(window_batch(o.inputs, i, 1, o.c, o.t), ctx);
    PIT_CHECK(y.numel() == o.out_n, "submit oracle: output size");
    std::memcpy(o.refs.data() + i * static_cast<std::size_t>(o.out_n),
                y.data(), static_cast<std::size_t>(o.out_n) * sizeof(float));
  }
  return o;
}

StreamOracle make_stream_oracle(
    const std::shared_ptr<const pit::runtime::CompiledPlan>& plan_ptr,
    std::uint64_t seed, std::size_t pool, int ticks) {
  const pit::runtime::CompiledPlan& plan = *plan_ptr;
  StreamOracle o;
  o.c_in = plan.input_channels();
  o.c_out = plan.output_channels();
  o.ticks = ticks;
  o.pool = pool;
  // One (c_in, ticks) window per sequence, stored tick-major.
  const std::vector<float> w = make_windows(seed ^ 0x57, pool, o.c_in, ticks);
  o.inputs.resize(w.size());
  o.refs.resize(pool * static_cast<std::size_t>(ticks * o.c_out));
  for (std::size_t s = 0; s < pool; ++s) {
    for (int k = 0; k < ticks; ++k) {
      for (index_t ch = 0; ch < o.c_in; ++ch) {
        o.inputs[(s * static_cast<std::size_t>(ticks) + static_cast<std::size_t>(k)) *
                     static_cast<std::size_t>(o.c_in) +
                 static_cast<std::size_t>(ch)] =
            w[s * static_cast<std::size_t>(o.c_in * ticks) +
              static_cast<std::size_t>(ch * ticks + k)];
      }
    }
    pit::serve::StreamSession session(plan_ptr);
    float* ref = o.refs.data() + s * static_cast<std::size_t>(ticks * o.c_out);
    for (int k = 0; k < ticks; ++k) {
      session.step(o.input(s, k), ref + static_cast<std::size_t>(k * o.c_out));
    }
  }
  return o;
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

}  // namespace pitperf
