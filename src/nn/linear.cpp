#include "nn/linear.hpp"

#include <cmath>

#include "tensor/autograd.hpp"
#include "tensor/error.hpp"
#include "tensor/parallel.hpp"

namespace pit::nn {

Tensor linear(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  PIT_CHECK(x.rank() == 2,
            "linear: input must be (N, F), got " << x.shape().to_string());
  PIT_CHECK(weight.rank() == 2, "linear: weight must be (O, F), got "
                                    << weight.shape().to_string());
  const index_t n = x.dim(0);
  const index_t f = x.dim(1);
  const index_t o = weight.dim(0);
  PIT_CHECK(weight.dim(1) == f, "linear: feature mismatch x "
                                    << x.shape().to_string() << " w "
                                    << weight.shape().to_string());
  if (bias.defined()) {
    PIT_CHECK(bias.rank() == 1 && bias.dim(0) == o,
              "linear: bias shape " << bias.shape().to_string());
  }

  Tensor out = Tensor::empty(Shape{n, o});
  const float* xd = x.data();
  const float* wd = weight.data();
  const float* bd = bias.defined() ? bias.data() : nullptr;
  float* od = out.data();
  // Every (i, j) output is its own serial dot product; a block of rows
  // advances its K dot products with one weight row together.
  parallel_for_blocks(n, n * o * f, [&](auto chains, index_t i0) {
    constexpr index_t K = decltype(chains)::value;
    const float* xrows = xd + i0 * f;
    for (index_t j = 0; j < o; ++j) {
      const float* wrow = wd + j * f;
      float acc[K];
      for (index_t r = 0; r < K; ++r) {
        acc[r] = bd != nullptr ? bd[j] : 0.0F;
      }
      for (index_t p = 0; p < f; ++p) {
        for (index_t r = 0; r < K; ++r) {
          acc[r] += xrows[r * f + p] * wrow[p];
        }
      }
      for (index_t r = 0; r < K; ++r) {
        od[(i0 + r) * o + j] = acc[r];
      }
    }
  });

  const Tensor tx = x;
  const Tensor tw = weight;
  const Tensor tb = bias;
  std::vector<Tensor> inputs = {x, weight};
  if (bias.defined()) {
    inputs.push_back(bias);
  }
  return make_op_output(
      std::move(out), inputs, "linear", [tx, tw, tb, n, f, o](TensorImpl& out_impl) {
        const float* dy = out_impl.grad.data();
        const float* xd2 = tx.data();
        const float* wd2 = tw.data();
        const index_t work = n * o * f;
        if (tx.impl()->requires_grad || tx.impl()->grad_fn != nullptr) {
          float* xg = grad_span(*tx.impl()).data();
          // dX = dY @ W : (n,o) @ (o,f), split over rows of dX.
          parallel_for(n, work, [&](index_t i) {
            const float* dyrow = dy + i * o;
            float* xgrow = xg + i * f;
            for (index_t j = 0; j < o; ++j) {
              const float g = dyrow[j];
              if (g == 0.0F) {
                continue;
              }
              const float* wrow = wd2 + j * f;
              for (index_t p = 0; p < f; ++p) {
                xgrow[p] += g * wrow[p];
              }
            }
          });
        }
        if (tw.impl()->requires_grad || tw.impl()->grad_fn != nullptr) {
          float* wg = grad_span(*tw.impl()).data();
          // dW = dY^T @ X : (o,n) @ (n,f), split over rows j of dW; each
          // element still accumulates over i in increasing order.
          parallel_for(o, work, [&](index_t j) {
            float* wgrow = wg + j * f;
            for (index_t i = 0; i < n; ++i) {
              const float g = dy[i * o + j];
              if (g == 0.0F) {
                continue;
              }
              const float* xrow = xd2 + i * f;
              for (index_t p = 0; p < f; ++p) {
                wgrow[p] += g * xrow[p];
              }
            }
          });
        }
        if (tb.defined() &&
            (tb.impl()->requires_grad || tb.impl()->grad_fn != nullptr)) {
          auto bg = grad_span(*tb.impl());
          for (index_t i = 0; i < n; ++i) {
            const float* dyrow = dy + i * o;
            for (index_t j = 0; j < o; ++j) {
              bg[j] += dyrow[j];
            }
          }
        }
      });
}

Linear::Linear(index_t in_features, index_t out_features, bool bias,
               RandomEngine& rng)
    : in_features_(in_features), out_features_(out_features) {
  PIT_CHECK(in_features >= 1 && out_features >= 1,
            "Linear: features must be >= 1");
  const auto fan_in = static_cast<float>(in_features);
  const float bound = std::sqrt(6.0F / fan_in);
  weight_ = register_parameter(
      "weight",
      Tensor::uniform(Shape{out_features, in_features}, -bound, bound, rng));
  if (bias) {
    const float bias_bound = 1.0F / std::sqrt(fan_in);
    bias_ = register_parameter(
        "bias",
        Tensor::uniform(Shape{out_features}, -bias_bound, bias_bound, rng));
  }
}

Tensor Linear::forward(const Tensor& input) {
  return linear(input, weight_, bias_);
}

}  // namespace pit::nn
