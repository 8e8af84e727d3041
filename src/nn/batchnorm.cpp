#include "nn/batchnorm.hpp"

#include <cmath>
#include <vector>

#include "tensor/autograd.hpp"
#include "tensor/error.hpp"
#include "tensor/parallel.hpp"

namespace pit::nn {

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

  // One channel per iteration: its statistics (double accumulators in
  // serial (n, t) order), running-statistic update and normalization.
  parallel_for(c, n * c * t, [&](index_t ci) {
    float var = 0.0F;
    if (training) {
      double acc = 0.0;
      for (index_t ni = 0; ni < n; ++ni) {
        const float* xrow = xd + (ni * c + ci) * t;
        for (index_t ti = 0; ti < t; ++ti) {
          acc += xrow[ti];
        }
      }
      mu[ci] = static_cast<float>(acc / static_cast<double>(m));
      double vacc = 0.0;
      for (index_t ni = 0; ni < n; ++ni) {
        const float* xrow = xd + (ni * c + ci) * t;
        for (index_t ti = 0; ti < t; ++ti) {
          const double dlt = xrow[ti] - mu[ci];
          vacc += dlt * dlt;
        }
      }
      var = static_cast<float>(vacc / static_cast<double>(m));
      // Update running statistics (unbiased variance, as in PyTorch).
      rm[ci] = (1.0F - momentum_) * rm[ci] + momentum_ * mu[ci];
      const float unbiased =
          m > 1 ? var * static_cast<float>(m) / static_cast<float>(m - 1)
                : var;
      rv[ci] = (1.0F - momentum_) * rv[ci] + momentum_ * unbiased;
    } else {
      mu[ci] = rm[ci];
      var = rv[ci];
    }
    inv_std[ci] = 1.0F / std::sqrt(var + eps_);

    const float g = gd[ci];
    const float b = bd[ci];
    const float mean_c = mu[ci];
    const float is = inv_std[ci];
    for (index_t ni = 0; ni < n; ++ni) {
      const index_t row = (ni * c + ci) * t;
      for (index_t ti = 0; ti < t; ++ti) {
        const float y = g * (xd[row + ti] - mean_c) * is + b;
        od[row + ti] = fuse_relu && !(y > 0.0F) ? 0.0F : y;
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
        const float* yd = o.data.data();
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
        // The ReLU's gradient is dy where the output is positive, else 0.
        auto dy_at = [dy, yd, fuse_relu](index_t idx) {
          return fuse_relu && !(yd[idx] > 0.0F) ? 0.0F : dy[idx];
        };

        parallel_for(c, n * c * t, [&](index_t ci) {
          const float mean_c = mu[ci];
          const float is = inv_std[ci];
          // Channel-wise reductions shared by all gradient formulas.
          double sum_dy = 0.0;
          double sum_dy_xhat = 0.0;
          for (index_t ni = 0; ni < n; ++ni) {
            for (index_t ti = 0; ti < t; ++ti) {
              const index_t idx = (ni * c + ci) * t + ti;
              const float xhat = (xd2[idx] - mean_c) * is;
              const float d = dy_at(idx);
              sum_dy += d;
              sum_dy_xhat += d * xhat;
            }
          }
          if (gg != nullptr) {
            gg[ci] += static_cast<float>(sum_dy_xhat);
          }
          if (bg != nullptr) {
            bg[ci] += static_cast<float>(sum_dy);
          }
          if (xg != nullptr) {
            const float g = gd2[ci];
            const auto mf = static_cast<float>(m);
            for (index_t ni = 0; ni < n; ++ni) {
              for (index_t ti = 0; ti < t; ++ti) {
                const index_t idx = (ni * c + ci) * t + ti;
                const float xhat = (xd2[idx] - mean_c) * is;
                const float d = dy_at(idx);
                if (training) {
                  // Full batch-norm backward (batch statistics depend on x).
                  xg[idx] += g * is / mf *
                             (mf * d - static_cast<float>(sum_dy) -
                              xhat * static_cast<float>(sum_dy_xhat));
                } else {
                  // Eval mode: statistics are constants.
                  xg[idx] += g * is * d;
                }
              }
            }
          }
        });
      });
}

}  // namespace pit::nn
