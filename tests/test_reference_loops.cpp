// Bit-exact references for the training step and its non-conv loops.
//
// BatchNorm1d, linear, the conv bias gradient, the masked conv's mask
// gradient, avg_pool1d and Adam run several outputs' reduction
// chains at once (tensor/parallel.hpp).
// Each suite here keeps the plain one-output-at-a-time loop those ops ran
// before, and requires the op to match it with memcmp — at 1, 2 and 4
// OpenMP threads, on shapes below and above the parallel gate, with block
// tails (counts that are not a multiple of kChainBlock) and signed zeros.
//
// core::train_epoch is the one batch loop behind PIT's three phases, plain
// training and the ProxylessNAS weight pass. The *StepReference suites keep
// the three loops it replaced and require one epoch of each to leave the
// same trained state, gammas and loss as one epoch of the shared step.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/pit_conv1d.hpp"
#include "core/regularizer.hpp"
#include "core/trainer.hpp"
#include "data/dataloader.hpp"
#include "data/ppg_dalia.hpp"
#include "models/temponet.hpp"
#include "nas/supernet.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/linear.hpp"
#include "nn/losses.hpp"
#include "nn/optim.hpp"
#include "nn/pooling.hpp"
#include "tensor/ops.hpp"

namespace pit {
namespace {

using Floats = std::vector<float>;

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Uniform values in [lo, hi) with every fifth one a signed zero.
Floats random_values(index_t count, RandomEngine& rng, float lo = -2.0F,
                     float hi = 2.0F) {
  Floats v(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = i % 5 == 3   ? (i % 2 == 0 ? 0.0F : -0.0F)
           : static_cast<float>(rng.uniform(lo, hi));
  }
  return v;
}

Tensor tensor_of(const Floats& v, const Shape& shape) {
  return Tensor::from_vector(v, shape);
}

/// Runs `check` once per OpenMP thread count (once without OpenMP).
void at_thread_counts(const std::function<void(int)>& check) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    check(threads);
  }
  omp_set_num_threads(saved);
#else
  check(1);
#endif
}

// ---- BatchNorm1d --------------------------------------------------------

struct BnOut {
  Floats y, dx, dgamma, dbeta, running_mean, running_var;
};

/// The plain per-channel BatchNorm1d forward and backward (dy given),
/// with the fused ReLU when `relu`.
BnOut reference_bn(const Floats& x, const Floats& gamma, const Floats& beta,
                   Floats running_mean, Floats running_var, const Floats& dy,
                   index_t n, index_t c, index_t t, bool training, bool relu) {
  const float eps = 1e-5F;
  const float momentum = 0.1F;
  const index_t m = n * t;
  BnOut r{Floats(x.size()), Floats(x.size(), 0.0F), Floats(c, 0.0F),
          Floats(c, 0.0F), std::move(running_mean), std::move(running_var)};
  Floats mu(c);
  Floats inv_std(c);
  for (index_t ci = 0; ci < c; ++ci) {
    float var = 0.0F;
    if (training) {
      double acc = 0.0;
      for (index_t ni = 0; ni < n; ++ni) {
        for (index_t ti = 0; ti < t; ++ti) {
          acc += x[(ni * c + ci) * t + ti];
        }
      }
      mu[ci] = static_cast<float>(acc / static_cast<double>(m));
      double vacc = 0.0;
      for (index_t ni = 0; ni < n; ++ni) {
        for (index_t ti = 0; ti < t; ++ti) {
          const double dlt = x[(ni * c + ci) * t + ti] - mu[ci];
          vacc += dlt * dlt;
        }
      }
      var = static_cast<float>(vacc / static_cast<double>(m));
      r.running_mean[ci] =
          (1.0F - momentum) * r.running_mean[ci] + momentum * mu[ci];
      const float unbiased =
          m > 1 ? var * static_cast<float>(m) / static_cast<float>(m - 1)
                : var;
      r.running_var[ci] =
          (1.0F - momentum) * r.running_var[ci] + momentum * unbiased;
    } else {
      mu[ci] = r.running_mean[ci];
      var = r.running_var[ci];
    }
    inv_std[ci] = 1.0F / std::sqrt(var + eps);
    for (index_t ni = 0; ni < n; ++ni) {
      for (index_t ti = 0; ti < t; ++ti) {
        const index_t idx = (ni * c + ci) * t + ti;
        const float y = gamma[ci] * (x[idx] - mu[ci]) * inv_std[ci] + beta[ci];
        r.y[idx] = relu && !(y > 0.0F) ? 0.0F : y;
      }
    }
  }
  const auto dy_at = [&](index_t idx) {
    return relu && !(r.y[idx] > 0.0F) ? 0.0F : dy[idx];
  };
  for (index_t ci = 0; ci < c; ++ci) {
    const float mean_c = mu[ci];
    const float is = inv_std[ci];
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    for (index_t ni = 0; ni < n; ++ni) {
      for (index_t ti = 0; ti < t; ++ti) {
        const index_t idx = (ni * c + ci) * t + ti;
        const float xhat = (x[idx] - mean_c) * is;
        const float d = dy_at(idx);
        sum_dy += d;
        sum_dy_xhat += d * xhat;
      }
    }
    r.dgamma[ci] += static_cast<float>(sum_dy_xhat);
    r.dbeta[ci] += static_cast<float>(sum_dy);
    const float g = gamma[ci];
    const auto mf = static_cast<float>(m);
    for (index_t ni = 0; ni < n; ++ni) {
      for (index_t ti = 0; ti < t; ++ti) {
        const index_t idx = (ni * c + ci) * t + ti;
        const float xhat = (x[idx] - mean_c) * is;
        const float d = dy_at(idx);
        if (training) {
          r.dx[idx] += g * is / mf *
                       (mf * d - static_cast<float>(sum_dy) -
                        xhat * static_cast<float>(sum_dy_xhat));
        } else {
          r.dx[idx] += g * is * d;
        }
      }
    }
  }
  return r;
}

TEST(BatchNormReference, MatchesPlainLoopBitForBit) {
  const index_t n = 3;
  for (const index_t c : {1, 3, 4, 5, 17, 64}) {
    for (const index_t t : {1, 7, 32, 128}) {
      RandomEngine rng(static_cast<std::uint64_t>(1000 * c + t));
      const Floats x = random_values(n * c * t, rng);
      const Floats dy = random_values(n * c * t, rng, -1.0F, 1.0F);
      const Floats gamma = random_values(c, rng, 0.5F, 1.5F);
      const Floats beta = random_values(c, rng, -0.5F, 0.5F);
      const Floats rmean = random_values(c, rng, -0.5F, 0.5F);
      const Floats rvar = random_values(c, rng, 0.5F, 2.0F);
      for (const bool training : {true, false}) {
        for (const bool relu : {false, true}) {
          const BnOut want = reference_bn(x, gamma, beta, rmean, rvar, dy, n,
                                          c, t, training, relu);
          at_thread_counts([&](int threads) {
            nn::BatchNorm1d bn(c);
            std::memcpy(bn.gamma().data(), gamma.data(), c * sizeof(float));
            std::memcpy(bn.beta().data(), beta.data(), c * sizeof(float));
            std::memcpy(bn.running_mean().data(), rmean.data(),
                        c * sizeof(float));
            std::memcpy(bn.running_var().data(), rvar.data(),
                        c * sizeof(float));
            if (!training) {
              bn.eval();
            }
            Tensor xt = tensor_of(x, Shape{n, c, t});
            xt.set_requires_grad(true);
            const Tensor y = relu ? bn.forward_relu(xt) : bn.forward(xt);
            // d(sum(y * w))/dy = 1 * w = dy exactly.
            sum(mul(y, tensor_of(dy, Shape{n, c, t}))).backward();
            const std::string where =
                "c=" + std::to_string(c) + " t=" + std::to_string(t) +
                (training ? " train" : " eval") + (relu ? " relu" : "") +
                " threads=" + std::to_string(threads);
            EXPECT_TRUE(same_bits(y.span(), want.y)) << "y, " << where;
            EXPECT_TRUE(same_bits(xt.grad().span(), want.dx))
                << "dx, " << where;
            EXPECT_TRUE(same_bits(bn.gamma().grad().span(), want.dgamma))
                << "dgamma, " << where;
            EXPECT_TRUE(same_bits(bn.beta().grad().span(), want.dbeta))
                << "dbeta, " << where;
            EXPECT_TRUE(same_bits(bn.running_mean().span(), want.running_mean))
                << "running_mean, " << where;
            EXPECT_TRUE(same_bits(bn.running_var().span(), want.running_var))
                << "running_var, " << where;
          });
        }
      }
    }
  }
}

TEST(BatchNormReference, RankTwoInputMatchesPlainLoop) {
  // (N, C) input: t = 1, one sample per row.
  const index_t n = 9;
  const index_t c = 6;
  RandomEngine rng(5);
  const Floats x = random_values(n * c, rng);
  const Floats dy = random_values(n * c, rng, -1.0F, 1.0F);
  const Floats ones(c, 1.0F);
  const Floats zeros(c, 0.0F);
  const BnOut want =
      reference_bn(x, ones, zeros, zeros, ones, dy, n, c, 1, true, true);
  nn::BatchNorm1d bn(c);
  Tensor xt = tensor_of(x, Shape{n, c});
  xt.set_requires_grad(true);
  const Tensor y = bn.forward_relu(xt);
  sum(mul(y, tensor_of(dy, Shape{n, c}))).backward();
  EXPECT_TRUE(same_bits(y.span(), want.y));
  EXPECT_TRUE(same_bits(xt.grad().span(), want.dx));
  EXPECT_TRUE(same_bits(bn.gamma().grad().span(), want.dgamma));
  EXPECT_TRUE(same_bits(bn.beta().grad().span(), want.dbeta));
}

// ---- linear -------------------------------------------------------------

TEST(LinearReference, ForwardMatchesPlainDotProducts) {
  for (const index_t n : {1, 3, 4, 5, 9}) {
    for (const index_t o : {1, 3, 5, 13}) {
      for (const index_t f : {1, 7, 64, 400}) {
        for (const bool with_bias : {true, false}) {
          RandomEngine rng(static_cast<std::uint64_t>(n * 10000 + o * 100 + f));
          const Floats x = random_values(n * f, rng);
          const Floats w = random_values(o * f, rng);
          const Floats b = random_values(o, rng);
          Floats want(static_cast<std::size_t>(n * o));
          for (index_t ij = 0; ij < n * o; ++ij) {
            const index_t i = ij / o;
            const index_t j = ij % o;
            float acc = with_bias ? b[j] : 0.0F;
            for (index_t p = 0; p < f; ++p) {
              acc += x[i * f + p] * w[j * f + p];
            }
            want[ij] = acc;
          }
          at_thread_counts([&](int threads) {
            const Tensor y =
                nn::linear(tensor_of(x, Shape{n, f}), tensor_of(w, Shape{o, f}),
                           with_bias ? tensor_of(b, Shape{o}) : Tensor());
            EXPECT_TRUE(same_bits(y.span(), want))
                << "n=" << n << " o=" << o << " f=" << f
                << (with_bias ? " bias" : "") << " threads=" << threads;
          });
        }
      }
    }
  }
}

// ---- conv bias gradient -------------------------------------------------

TEST(ConvBiasReference, MatchesPlainRowSums) {
  for (const index_t n : {1, 3}) {
    for (const index_t c : {1, 3, 4, 5, 17, 64}) {
      for (const index_t t : {1, 7, 32, 128}) {
        const nn::kernels::ConvDims d{.n = n, .c_in = 1, .c_out = c, .k = 1,
                                      .t_in = t, .t_out = t, .dilation = 1,
                                      .stride = 1};
        RandomEngine rng(static_cast<std::uint64_t>(n * 1000 + c * 10 + t));
        const Floats dy = random_values(n * c * t, rng);
        // The gradient accumulates into what the buffer already holds.
        const Floats start = random_values(c, rng);
        Floats want = start;
        for (index_t ni = 0; ni < n; ++ni) {
          for (index_t co = 0; co < c; ++co) {
            float acc = 0.0F;
            for (index_t ti = 0; ti < t; ++ti) {
              acc += dy[(ni * c + co) * t + ti];
            }
            want[co] += acc;
          }
        }
        at_thread_counts([&](int threads) {
          Floats db = start;
          nn::kernels::conv_backward_bias(dy.data(), db.data(), d);
          EXPECT_TRUE(same_bits(db, want)) << "n=" << n << " c=" << c
                                           << " t=" << t
                                           << " threads=" << threads;
        });
      }
    }
  }
}

// ---- masked conv: the mask gradient -------------------------------------

TEST(MaskedConvReference, MaskGradMatchesPlainTapSums) {
  for (const index_t k : {1, 3, 4, 5, 9}) {
    for (const index_t channels : {3, 16}) {
      const index_t n = 2;
      const index_t t = 24;
      nn::kernels::ConvDims d{.n = n, .c_in = channels, .c_out = channels,
                              .k = k, .t_in = t,
                              .t_out = nn::causal_conv1d_output_steps(t, 1),
                              .dilation = 1, .stride = 1};
      RandomEngine rng(static_cast<std::uint64_t>(k * 100 + channels));
      const Floats x = random_values(n * channels * t, rng);
      const Floats w = random_values(channels * channels * k, rng);
      const Floats mask = random_values(k, rng, 0.0F, 1.0F);
      const Floats dy = random_values(n * channels * d.t_out, rng);
      // dM_i = sum over (co, ci) pairs, in order, of dWeff * W at tap i.
      Floats dweff(w.size(), 0.0F);
      nn::kernels::conv_backward_weight(dy.data(), x.data(), dweff.data(), d);
      const index_t pairs = channels * channels;
      Floats want(static_cast<std::size_t>(k), 0.0F);
      for (index_t i = 0; i < k; ++i) {
        float acc = 0.0F;
        for (index_t p = 0; p < pairs; ++p) {
          acc += dweff[p * k + i] * w[p * k + i];
        }
        want[i] += acc;
      }
      at_thread_counts([&](int threads) {
        Tensor mt = tensor_of(mask, Shape{k});
        mt.set_requires_grad(true);
        const Tensor y = core::masked_causal_conv1d(
            tensor_of(x, Shape{n, channels, t}),
            tensor_of(w, Shape{channels, channels, k}), Tensor(), mt, 1);
        sum(mul(y, tensor_of(dy, Shape{n, channels, d.t_out}))).backward();
        EXPECT_TRUE(same_bits(mt.grad().span(), want))
            << "k=" << k << " channels=" << channels << " threads=" << threads;
      });
    }
  }
}

// ---- avg_pool1d ------------------------------------------------

TEST(AvgPoolReference, ForwardAndBackwardMatchPlainWindowLoops) {
  struct Pool {
    index_t kernel, stride;
  };
  for (const Pool p : {Pool{2, 2}, Pool{3, 1}, Pool{3, 2}, Pool{1, 1},
                       Pool{4, 3}}) {
    for (const index_t t : {4, 9, 128}) {
      const index_t n = 3;
      const index_t c = 64;
      const index_t t_out = (t - p.kernel) / p.stride + 1;
      RandomEngine rng(static_cast<std::uint64_t>(p.kernel * 100 + t));
      const Floats x = random_values(n * c * t, rng);
      const Floats dy = random_values(n * c * t_out, rng);
      const float inv_k = 1.0F / static_cast<float>(p.kernel);
      Floats want_y(dy.size());
      for (index_t row = 0; row < n * c; ++row) {
        for (index_t to = 0; to < t_out; ++to) {
          float acc = 0.0F;
          for (index_t k = 0; k < p.kernel; ++k) {
            acc += x[row * t + to * p.stride + k];
          }
          want_y[row * t_out + to] = acc * inv_k;
        }
      }
      Floats want(x.size(), 0.0F);
      for (index_t row = 0; row < n * c; ++row) {
        for (index_t to = 0; to < t_out; ++to) {
          const float g = dy[row * t_out + to] * inv_k;
          for (index_t k = 0; k < p.kernel; ++k) {
            want[row * t + to * p.stride + k] += g;
          }
        }
      }
      at_thread_counts([&](int threads) {
        Tensor xt = tensor_of(x, Shape{n, c, t});
        xt.set_requires_grad(true);
        const Tensor y = nn::avg_pool1d(xt, p.kernel, p.stride);
        EXPECT_TRUE(same_bits(y.span(), want_y))
            << "forward, kernel=" << p.kernel << " stride=" << p.stride
            << " t=" << t << " threads=" << threads;
        sum(mul(y, tensor_of(dy, Shape{n, c, t_out}))).backward();
        EXPECT_TRUE(same_bits(xt.grad().span(), want))
            << "kernel=" << p.kernel << " stride=" << p.stride << " t=" << t
            << " threads=" << threads;
      });
    }
  }
}

// ---- Adam ---------------------------------------------------------------

/// The plain per-tensor Adam step, on copies of the values.
void reference_adam_step(std::vector<Floats>& values,
                         const std::vector<Floats>& grads,
                         std::vector<Floats>& m, std::vector<Floats>& v,
                         long step, double lr, double weight_decay) {
  const double beta1 = 0.9;
  const double beta2 = 0.999;
  const double eps = 1e-8;
  const double bc1 = 1.0 - std::pow(beta1, step);
  const double bc2 = 1.0 - std::pow(beta2, step);
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = 0; j < values[i].size(); ++j) {
      const double grad = grads[i][j];
      m[i][j] = static_cast<float>(beta1 * m[i][j] + (1.0 - beta1) * grad);
      v[i][j] =
          static_cast<float>(beta2 * v[i][j] + (1.0 - beta2) * grad * grad);
      const double mhat = m[i][j] / bc1;
      const double vhat = v[i][j] / bc2;
      double update = lr * mhat / (std::sqrt(vhat) + eps);
      if (weight_decay != 0.0) {
        update += lr * weight_decay * values[i][j];
      }
      values[i][j] -= static_cast<float>(update);
    }
  }
}

TEST(AdamReference, StepsMatchPlainLoop) {
  // Sizes below and above one chunk and the parallel gate.
  const std::vector<index_t> sizes = {1, 5, 4095, 4097, 20000};
  for (const double weight_decay : {0.0, 0.01}) {
    at_thread_counts([&](int threads) {
      RandomEngine rng(17);
      std::vector<Floats> values;
      std::vector<Floats> grads;
      std::vector<Tensor> params;
      for (const index_t size : sizes) {
        values.push_back(random_values(size, rng));
        grads.push_back(random_values(size, rng, -0.1F, 0.1F));
        Tensor p = tensor_of(values.back(), Shape{size});
        p.set_requires_grad(true);
        params.push_back(p);
      }
      std::vector<Floats> m;
      std::vector<Floats> v;
      for (const Floats& p : values) {
        m.emplace_back(p.size(), 0.0F);
        v.emplace_back(p.size(), 0.0F);
      }
      const double lr = 1e-2;
      nn::Adam adam(params, lr, 0.9, 0.999, 1e-8, weight_decay);
      for (long step = 1; step <= 3; ++step) {
        for (std::size_t i = 0; i < params.size(); ++i) {
          std::memcpy(params[i].grad_data(), grads[i].data(),
                      grads[i].size() * sizeof(float));
        }
        adam.step();
        reference_adam_step(values, grads, m, v, step, lr, weight_decay);
        for (std::size_t i = 0; i < params.size(); ++i) {
          EXPECT_TRUE(same_bits(params[i].span(), values[i]))
              << "param " << i << ", step " << step << ", weight_decay "
              << weight_decay << ", threads " << threads;
        }
      }
    });
  }
}

// ---- The training step --------------------------------------------------

/// PitTrainer's batch loop before the shared step (size cost).
double reference_pit_epoch(nn::Module& model, const core::LossFn& loss,
                           data::DataLoader& train, nn::Optimizer& weight_opt,
                           nn::Optimizer* gamma_opt,
                           const std::vector<core::PITConv1d*>& pit_layers,
                           double lambda, bool with_regularizer) {
  model.train();
  train.reshuffle();
  double total = 0.0;
  index_t examples = 0;
  for (index_t b = 0; b < train.num_batches(); ++b) {
    data::Batch batch = train.batch(b);
    model.zero_grad();
    Tensor pred = model.forward(batch.inputs);
    Tensor task = loss(pred, batch.targets);
    Tensor objective = task;
    if (with_regularizer) {
      Tensor reg = core::size_regularizer(pit_layers, lambda);
      objective = add(task, reg);
    }
    objective.backward();
    weight_opt.step();
    if (gamma_opt != nullptr) {
      gamma_opt->step();
      for (core::PITConv1d* layer : pit_layers) {
        layer->gamma().clamp_values();
      }
    }
    const index_t n = batch.inputs.dim(0);
    total += static_cast<double>(task.item()) * static_cast<double>(n);
    examples += n;
  }
  return examples > 0 ? total / static_cast<double>(examples) : 0.0;
}

/// One epoch of train_supervised's batch loop before the shared step.
double reference_plain_epoch(nn::Module& model, const core::LossFn& loss,
                             data::DataLoader& train, nn::Optimizer& opt) {
  model.train();
  train.reshuffle();
  double total = 0.0;
  index_t examples = 0;
  for (index_t b = 0; b < train.num_batches(); ++b) {
    data::Batch batch = train.batch(b);
    model.zero_grad();
    Tensor objective = loss(model.forward(batch.inputs), batch.targets);
    objective.backward();
    opt.step();
    const index_t n = batch.inputs.dim(0);
    total += static_cast<double>(objective.item()) * static_cast<double>(n);
    examples += n;
  }
  return total / static_cast<double>(examples);
}

/// ProxylessTrainer's weight pass before the shared step, plus the mean
/// loss the shared step returns (reading it changes no state).
double reference_proxyless_pass(nn::Module& model, const core::LossFn& loss,
                                data::DataLoader& train, nn::Optimizer& opt,
                                const std::vector<nas::MixedConv1d*>& layers,
                                RandomEngine& path_rng) {
  double total = 0.0;
  index_t examples = 0;
  model.train();
  train.reshuffle();
  for (index_t b = 0; b < train.num_batches(); ++b) {
    for (nas::MixedConv1d* layer : layers) {
      layer->sample_path(path_rng);
    }
    data::Batch batch = train.batch(b);
    model.zero_grad();
    Tensor objective = loss(model.forward(batch.inputs), batch.targets);
    objective.backward();
    opt.step();
    const index_t n = batch.inputs.dim(0);
    total += static_cast<double>(objective.item()) * static_cast<double>(n);
    examples += n;
  }
  return total / static_cast<double>(examples);
}

/// Half-width TempoNet at batch 16 over 128-step windows (as in
/// PitTrainer.BitIdenticalAtOneTwoAndFourThreads): every OpenMP loop of
/// the step runs above its parallel gate. Two training batches.
struct StepProblem {
  data::PpgDaliaDataset ppg{{.num_windows = 32, .window_len = 128,
                             .seed = 467}};
  models::TempoNetConfig config = [] {
    models::TempoNetConfig c;
    c.channel_scale = 0.5;
    c.input_length = 128;
    return c;
  }();
  core::LossFn loss = [](const Tensor& p, const Tensor& t) {
    return nn::mae_loss(p, t);
  };

  data::DataLoader loader() const { return {ppg, 16, true, 5}; }
};

struct Trained {
  std::vector<Tensor> state;
  std::vector<Floats> gammas;
  double loss = 0.0;
  index_t next_draw = 0;  // the path sampler's next draw (ProxylessNAS)
};

void expect_same(const Trained& want, const Trained& got, int threads) {
  ASSERT_EQ(got.state.size(), want.state.size());
  for (std::size_t i = 0; i < want.state.size(); ++i) {
    EXPECT_TRUE(same_bits(got.state[i].span(), want.state[i].span()))
        << "state tensor " << i << ", threads " << threads;
  }
  ASSERT_EQ(got.gammas.size(), want.gammas.size());
  for (std::size_t i = 0; i < want.gammas.size(); ++i) {
    EXPECT_TRUE(same_bits(got.gammas[i], want.gammas[i]))
        << "gammas of layer " << i << ", threads " << threads;
  }
  EXPECT_TRUE(std::isfinite(want.loss));  // two NaNs could match bit for bit
  EXPECT_EQ(std::memcmp(&got.loss, &want.loss, sizeof(double)), 0)
      << got.loss << " vs " << want.loss << ", threads " << threads;
  EXPECT_EQ(got.next_draw, want.next_draw) << "threads " << threads;
}

/// One PIT epoch: warmup/fine-tune (weights on the task loss) or, with
/// `pruning`, weights and gammas on task loss + size regularizer.
Trained pit_epoch(const StepProblem& problem, bool pruning, bool reference) {
  const double lambda = 1e-4;
  RandomEngine rng(479);
  std::vector<core::PITConv1d*> layers;
  models::TempoNet model(problem.config, core::pit_conv_factory(rng, layers),
                         rng);
  std::vector<Tensor> gamma_params;
  for (core::PITConv1d* layer : layers) {
    gamma_params.push_back(layer->gamma().values());
  }
  std::vector<Tensor> weight_params;
  for (const Tensor& p : model.parameters()) {
    bool is_gamma = false;
    for (const Tensor& g : gamma_params) {
      is_gamma = is_gamma || g.impl() == p.impl();
    }
    if (!is_gamma) {
      weight_params.push_back(p);
    }
  }
  nn::Adam weight_opt(weight_params, 1e-3);
  nn::Adam gamma_opt(gamma_params, 1e-2);
  data::DataLoader train = problem.loader();
  Trained out;
  if (reference) {
    out.loss = reference_pit_epoch(model, problem.loss, train, weight_opt,
                                   pruning ? &gamma_opt : nullptr, layers,
                                   lambda, pruning);
  } else if (pruning) {
    out.loss = core::train_epoch(
        model, problem.loss, train,
        [&] {
          weight_opt.step();
          gamma_opt.step();
          for (core::PITConv1d* layer : layers) {
            layer->gamma().clamp_values();
          }
        },
        [&] { return core::size_regularizer(layers, lambda); });
  } else {
    out.loss = core::train_epoch(model, problem.loss, train,
                                 [&] { weight_opt.step(); });
  }
  out.state = model.state_snapshot();
  for (const Tensor& g : gamma_params) {
    out.gammas.emplace_back(g.span().begin(), g.span().end());
  }
  return out;
}

TEST(PitStepReference, TaskLossEpochMatchesFormerLoop) {
  const StepProblem problem;
  at_thread_counts([&](int threads) {
    expect_same(pit_epoch(problem, false, true),
                pit_epoch(problem, false, false), threads);
  });
}

TEST(PitStepReference, RegularizedEpochWithGammaStepMatchesFormerLoop) {
  const StepProblem problem;
  at_thread_counts([&](int threads) {
    const Trained want = pit_epoch(problem, true, true);
    const Trained got = pit_epoch(problem, true, false);
    expect_same(want, got, threads);
    // The gamma step ran: gammas moved off their initial 1.
    bool moved = false;
    for (const Floats& g : want.gammas) {
      for (const float v : g) {
        moved = moved || v != 1.0F;
      }
    }
    EXPECT_TRUE(moved);
  });
}

TEST(PlainStepReference, EpochMatchesFormerLoop) {
  const StepProblem problem;
  const auto epoch = [&](bool reference) {
    RandomEngine rng(6001);
    models::TempoNet model(
        problem.config,
        models::dilated_conv_factory(rng, problem.config.dilations), rng);
    nn::Adam opt(model.parameters(), 2e-3);
    data::DataLoader train = problem.loader();
    Trained out;
    out.loss = reference
                   ? reference_plain_epoch(model, problem.loss, train, opt)
                   : core::train_epoch(model, problem.loss, train,
                                       [&] { opt.step(); });
    out.state = model.state_snapshot();
    return out;
  };
  at_thread_counts(
      [&](int threads) { expect_same(epoch(true), epoch(false), threads); });
}

TEST(ProxylessStepReference, WeightPassWithPathSamplingMatchesFormerLoop) {
  const StepProblem problem;
  const auto epoch = [&](bool reference) {
    RandomEngine rng(7001);
    std::vector<nas::MixedConv1d*> layers;
    models::TempoNet model(problem.config, nas::mixed_conv_factory(rng, layers),
                           rng);
    nn::Adam opt(model.parameters(), 1e-3);
    data::DataLoader train = problem.loader();
    RandomEngine path_rng(7);
    Trained out;
    out.loss = reference
                   ? reference_proxyless_pass(model, problem.loss, train, opt,
                                              layers, path_rng)
                   : core::train_epoch(
                         model, problem.loss, train, [&] { opt.step(); },
                         nullptr, [&] {
                           for (nas::MixedConv1d* layer : layers) {
                             layer->sample_path(path_rng);
                           }
                         });
    out.state = model.state_snapshot();
    out.next_draw = path_rng.randint(1 << 30);
    return out;
  };
  at_thread_counts(
      [&](int threads) { expect_same(epoch(true), epoch(false), threads); });
}

}  // namespace
}  // namespace pit
