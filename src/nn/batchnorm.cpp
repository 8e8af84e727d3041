#include "nn/batchnorm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/autograd.hpp"
#include "tensor/error.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace pit::nn {

namespace {

// Every loop here follows tensor/parallel.hpp: a block of K channels runs
// on one thread, and each channel's sums advance in the serial (n, t)
// order, in double, from the same float terms as the plain per-channel
// loop, so the results are that loop's bit for bit.

/// Samples per channel the backward stages on the stack per pass
/// (2 * kChainBlock * kStageSamples doubles: 16 KiB).
constexpr index_t kStageSamples = 256;

/// Batch mean and (biased) variance of channels [c0, c0 + K).
template <index_t K>
void batch_stats(const float* xd, index_t n, index_t c, index_t t, index_t c0,
                 float* mean, float* var) {
  const auto m = static_cast<double>(n * t);
  double acc[K] = {};
  for (index_t ni = 0; ni < n; ++ni) {
    const float* rows = xd + (ni * c + c0) * t;
    for (index_t ti = 0; ti < t; ++ti) {
      for (index_t j = 0; j < K; ++j) {
        acc[j] += rows[j * t + ti];
      }
    }
  }
  for (index_t j = 0; j < K; ++j) {
    mean[j] = static_cast<float>(acc[j] / m);
  }
  double vacc[K] = {};
  for (index_t ni = 0; ni < n; ++ni) {
    const float* rows = xd + (ni * c + c0) * t;
    for (index_t ti = 0; ti < t; ++ti) {
      for (index_t j = 0; j < K; ++j) {
        const double dlt = rows[j * t + ti] - mean[j];
        vacc[j] += dlt * dlt;
      }
    }
  }
  for (index_t j = 0; j < K; ++j) {
    var[j] = static_cast<float>(vacc[j] / m);
  }
}

/// dy where y > 0, else +0: the fused ReLU's gradient. Written as a
/// bit-and with the compare mask, not as `y > 0 ? dy : 0`, so dy is read
/// unconditionally and the loops below vectorize instead of branching on
/// every element's sign.
inline float relu_grad(float y, float dy) {
  const std::uint32_t keep = y > 0.0F ? 0xFFFFFFFFU : 0U;
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(dy) & keep);
}

/// y = g * (x - mean) * is + b over one row, then relu_value if `relu`.
void normalize_row(const float* __restrict x, float* __restrict y,
                   index_t count, float g, float mean, float is, float b,
                   bool relu) {
  if (relu) {
    for (index_t i = 0; i < count; ++i) {
      y[i] = relu_value(g * (x[i] - mean) * is + b);
    }
  } else {
    for (index_t i = 0; i < count; ++i) {
      y[i] = g * (x[i] - mean) * is + b;
    }
  }
}

/// Stages one row segment's backward terms as doubles: d = dy masked by
/// the fused ReLU (y > 0; `y` is null without it) and d * x-hat.
void stage_row(const float* __restrict dy, const float* __restrict y,
               const float* __restrict x, index_t count, float mean, float is,
               double* __restrict d_out, double* __restrict dx_out) {
  if (y != nullptr) {
    for (index_t i = 0; i < count; ++i) {
      const float d = relu_grad(y[i], dy[i]);
      d_out[i] = d;
      dx_out[i] = d * ((x[i] - mean) * is);
    }
  } else {
    for (index_t i = 0; i < count; ++i) {
      d_out[i] = dy[i];
      dx_out[i] = dy[i] * ((x[i] - mean) * is);
    }
  }
}

/// dx += scale * (mf * d - sum_dy - xhat * sum_dy_xhat) over one row,
/// scale = g * is / m (training: the batch statistics depend on x), with
/// d masked as in stage_row.
template <bool kRelu>
void input_grad_row(const float* __restrict dy, const float* __restrict y,
                    const float* __restrict x, float* __restrict dx,
                    index_t count, float mean, float is, float scale, float mf,
                    float sum_dy, float sum_dy_xhat) {
  for (index_t i = 0; i < count; ++i) {
    const float d = kRelu ? relu_grad(y[i], dy[i]) : dy[i];
    const float xhat = (x[i] - mean) * is;
    dx[i] += scale * (mf * d - sum_dy - xhat * sum_dy_xhat);
  }
}

/// dx += scale * d over one row, scale = g * is (eval: the statistics
/// are constants).
template <bool kRelu>
void input_grad_row_eval(const float* __restrict dy,
                         const float* __restrict y, float* __restrict dx,
                         index_t count, float scale) {
  for (index_t i = 0; i < count; ++i) {
    const float d = kRelu ? relu_grad(y[i], dy[i]) : dy[i];
    dx[i] += scale * d;
  }
}

}  // namespace

BatchNorm1d::BatchNorm1d(index_t num_features, float eps, float momentum)
    : num_features_(num_features), eps_(eps), momentum_(momentum) {
  PIT_CHECK(num_features >= 1, "BatchNorm1d: num_features must be >= 1");
  gamma_ = register_parameter("gamma", Tensor::ones(Shape{num_features}));
  beta_ = register_parameter("beta", Tensor::zeros(Shape{num_features}));
  running_mean_ =
      register_buffer("running_mean", Tensor::zeros(Shape{num_features}));
  running_var_ =
      register_buffer("running_var", Tensor::ones(Shape{num_features}));
}

Tensor BatchNorm1d::forward(const Tensor& input) {
  return forward_impl(input, false);
}

Tensor BatchNorm1d::forward_relu(const Tensor& input) {
  return forward_impl(input, true);
}

Tensor BatchNorm1d::forward_impl(const Tensor& input, bool fuse_relu) {
  PIT_CHECK(input.rank() == 2 || input.rank() == 3,
            "BatchNorm1d: input must be (N, C) or (N, C, T), got "
                << input.shape().to_string());
  PIT_CHECK(input.dim(1) == num_features_,
            "BatchNorm1d: expected " << num_features_ << " channels, got "
                                     << input.shape().to_string());
  const index_t n = input.dim(0);
  const index_t c = input.dim(1);
  const index_t t = input.rank() == 3 ? input.dim(2) : 1;
  const index_t m = n * t;  // samples per channel
  const bool training = is_training();
  PIT_CHECK(!training || m > 1,
            "BatchNorm1d: training needs more than one sample per channel");

  // Per-channel mean/var used for this pass (kept for backward).
  std::vector<float> mu(static_cast<std::size_t>(c));
  std::vector<float> inv_std(static_cast<std::size_t>(c));
  Tensor out = Tensor::empty(input.shape());
  const float* xd = input.data();
  float* od = out.data();
  const float* gd = gamma_.data();
  const float* bd = beta_.data();
  float* rm = running_mean_.data();
  float* rv = running_var_.data();

  // One block of channels per iteration: statistics, running-statistic
  // update and normalization.
  parallel_for_blocks(c, n * c * t, [&](auto chains, index_t c0) {
    constexpr index_t K = decltype(chains)::value;
    float var[K] = {};
    if (training) {
      batch_stats<K>(xd, n, c, t, c0, &mu[c0], var);
    }
    for (index_t j = 0; j < K; ++j) {
      const index_t ci = c0 + j;
      if (training) {
        // Update running statistics (unbiased variance, as in PyTorch).
        rm[ci] = (1.0F - momentum_) * rm[ci] + momentum_ * mu[ci];
        const float unbiased =
            var[j] * static_cast<float>(m) / static_cast<float>(m - 1);
        rv[ci] = (1.0F - momentum_) * rv[ci] + momentum_ * unbiased;
      } else {
        mu[ci] = rm[ci];
        var[j] = rv[ci];
      }
      inv_std[ci] = 1.0F / std::sqrt(var[j] + eps_);
      for (index_t ni = 0; ni < n; ++ni) {
        const index_t row = (ni * c + ci) * t;
        normalize_row(xd + row, od + row, t, gd[ci], mu[ci], inv_std[ci],
                      bd[ci], fuse_relu);
      }
    }
  });

  const Tensor tx = input;
  const Tensor tg = gamma_;
  const Tensor tb = beta_;
  // The closure reads the output (for the fused ReLU's mask) through the
  // node's own impl, never by capture: see unary_op in tensor/ops.cpp.
  return make_op_output(
      std::move(out), {input, gamma_, beta_},
      fuse_relu ? "batchnorm1d_relu" : "batchnorm1d",
      [tx, tg, tb, mu, inv_std, n, c, t, m, training,
       fuse_relu](TensorImpl& o) {
        const float* dy = o.grad.data();
        // The ReLU's gradient is dy where the output is positive, else 0.
        const float* yd = fuse_relu ? o.data.data() : nullptr;
        const float* xd2 = tx.data();
        const float* gd2 = tg.data();
        const bool x_needs =
            tx.impl()->requires_grad || tx.impl()->grad_fn != nullptr;
        const bool g_needs =
            tg.impl()->requires_grad || tg.impl()->grad_fn != nullptr;
        const bool b_needs =
            tb.impl()->requires_grad || tb.impl()->grad_fn != nullptr;
        // Gradient buffers are allocated here, before the threads fork.
        float* gg = g_needs ? grad_span(*tg.impl()).data() : nullptr;
        float* bg = b_needs ? grad_span(*tb.impl()).data() : nullptr;
        float* xg = x_needs ? grad_span(*tx.impl()).data() : nullptr;

        parallel_for_blocks(c, n * c * t, [&](auto chains, index_t c0) {
          constexpr index_t K = decltype(chains)::value;
          // Channel-wise reductions shared by all gradient formulas. Each
          // pass stages kStageSamples samples of every channel's terms,
          // then advances the 2K sums over them.
          double sum_dy[K] = {};
          double sum_dy_xhat[K] = {};
          // Left uninitialized: each pass writes [0, len) before reading.
          double d_stage[K][kStageSamples];
          double dx_stage[K][kStageSamples];
          for (index_t s0 = 0; s0 < m; s0 += kStageSamples) {
            const index_t len = std::min(kStageSamples, m - s0);
            for (index_t j = 0; j < K; ++j) {
              const index_t ci = c0 + j;
              // Sample s is element (s / t, ci, s % t); walk the range
              // as contiguous row segments.
              for (index_t k = 0; k < len;) {
                const index_t s = s0 + k;
                const index_t count = std::min(t - s % t, len - k);
                const index_t idx = ((s / t) * c + ci) * t + s % t;
                stage_row(dy + idx, yd != nullptr ? yd + idx : nullptr,
                          xd2 + idx, count, mu[ci], inv_std[ci],
                          &d_stage[j][k], &dx_stage[j][k]);
                k += count;
              }
            }
            for (index_t i = 0; i < len; ++i) {
              for (index_t j = 0; j < K; ++j) {
                sum_dy[j] += d_stage[j][i];
                sum_dy_xhat[j] += dx_stage[j][i];
              }
            }
          }
          for (index_t j = 0; j < K; ++j) {
            const index_t ci = c0 + j;
            if (gg != nullptr) {
              gg[ci] += static_cast<float>(sum_dy_xhat[j]);
            }
            if (bg != nullptr) {
              bg[ci] += static_cast<float>(sum_dy[j]);
            }
            if (xg == nullptr) {
              continue;
            }
            const float g = gd2[ci];
            const float is = inv_std[ci];
            const auto mf = static_cast<float>(m);
            for (index_t ni = 0; ni < n; ++ni) {
              const index_t row = (ni * c + ci) * t;
              const float* yrow = yd != nullptr ? yd + row : nullptr;
              const auto sdy = static_cast<float>(sum_dy[j]);
              const auto sdx = static_cast<float>(sum_dy_xhat[j]);
              if (training && fuse_relu) {
                input_grad_row<true>(dy + row, yrow, xd2 + row, xg + row, t,
                                     mu[ci], is, g * is / mf, mf, sdy, sdx);
              } else if (training) {
                input_grad_row<false>(dy + row, yrow, xd2 + row, xg + row, t,
                                      mu[ci], is, g * is / mf, mf, sdy, sdx);
              } else if (fuse_relu) {
                input_grad_row_eval<true>(dy + row, yrow, xg + row, t, g * is);
              } else {
                input_grad_row_eval<false>(dy + row, yrow, xg + row, t,
                                           g * is);
              }
            }
          }
        });
      });
}

}  // namespace pit::nn
