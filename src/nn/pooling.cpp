#include "nn/pooling.hpp"

#include "tensor/autograd.hpp"
#include "tensor/error.hpp"
#include "tensor/parallel.hpp"

namespace pit::nn {

namespace {

/// y[to] = (0 + x[to * stride] + ... + x[to * stride + kernel - 1]) / kernel
/// over one row. Every window's sum keeps its serial order; the loop over
/// windows is innermost, so the windows' chains advance together.
void avg_pool_row(const float* __restrict x, float* __restrict y,
                  index_t t_out, index_t kernel, index_t stride, float inv_k) {
  for (index_t to = 0; to < t_out; ++to) {
    y[to] = 0.0F;
  }
  for (index_t k = 0; k < kernel; ++k) {
    for (index_t to = 0; to < t_out; ++to) {
      y[to] += x[to * stride + k];
    }
  }
  for (index_t to = 0; to < t_out; ++to) {
    y[to] *= inv_k;
  }
}

/// dx[to * stride + k] += dy[to] / kernel for every window of one row, in
/// window order (overlapping windows add to an element in `to` order).
/// The rows are restrict-qualified: a gradient never aliases its input's.
void avg_pool_backward_row(const float* __restrict dy, float* __restrict dx,
                           index_t t_out, index_t kernel, index_t stride,
                           float inv_k) {
  for (index_t to = 0; to < t_out; ++to) {
    const float g = dy[to] * inv_k;
    for (index_t k = 0; k < kernel; ++k) {
      dx[to * stride + k] += g;
    }
  }
}

}  // namespace

Tensor avg_pool1d(const Tensor& x, index_t kernel, index_t stride) {
  PIT_CHECK(x.rank() == 3,
            "avg_pool1d: input must be (N, C, T), got "
                << x.shape().to_string());
  PIT_CHECK(kernel >= 1 && stride >= 1,
            "avg_pool1d: kernel=" << kernel << " stride=" << stride);
  const index_t n = x.dim(0);
  const index_t c = x.dim(1);
  const index_t t_in = x.dim(2);
  PIT_CHECK(t_in >= kernel, "avg_pool1d: T=" << t_in << " < kernel=" << kernel);
  const index_t t_out = (t_in - kernel) / stride + 1;

  Tensor out = Tensor::empty(Shape{n, c, t_out});
  const float* xd = x.data();
  float* od = out.data();
  const float inv_k = 1.0F / static_cast<float>(kernel);
  // Rows (one (n, c) pair each) are independent: split them.
  parallel_for(n * c, n * c * t_in, [&](index_t row) {
    avg_pool_row(xd + row * t_in, od + row * t_out, t_out, kernel, stride,
                 inv_k);
  });

  const Tensor tx = x;
  return make_op_output(
      std::move(out), {x}, "avg_pool1d",
      [tx, n, c, t_in, t_out, kernel, stride](TensorImpl& o) {
        if (!(tx.impl()->requires_grad || tx.impl()->grad_fn != nullptr)) {
          return;
        }
        float* xg = grad_span(*tx.impl()).data();
        const float inv_k = 1.0F / static_cast<float>(kernel);
        const float* dy = o.grad.data();
        parallel_for(n * c, n * c * t_in, [&](index_t row) {
          avg_pool_backward_row(dy + row * t_out, xg + row * t_in, t_out,
                                kernel, stride, inv_k);
        });
      });
}

Tensor global_avg_pool1d(const Tensor& x) {
  PIT_CHECK(x.rank() == 3, "global_avg_pool1d: input must be (N, C, T), got "
                               << x.shape().to_string());
  const index_t n = x.dim(0);
  const index_t c = x.dim(1);
  const index_t t = x.dim(2);
  Tensor out = Tensor::zeros(Shape{n, c});
  const float* xd = x.data();
  float* od = out.data();
  const float inv_t = 1.0F / static_cast<float>(t);
  for (index_t ni = 0; ni < n; ++ni) {
    for (index_t ci = 0; ci < c; ++ci) {
      const float* xrow = xd + (ni * c + ci) * t;
      float acc = 0.0F;
      for (index_t ti = 0; ti < t; ++ti) {
        acc += xrow[ti];
      }
      od[ni * c + ci] = acc * inv_t;
    }
  }
  const Tensor tx = x;
  return make_op_output(
      std::move(out), {x}, "global_avg_pool1d", [tx, n, c, t](TensorImpl& o) {
        if (!(tx.impl()->requires_grad || tx.impl()->grad_fn != nullptr)) {
          return;
        }
        auto xg = grad_span(*tx.impl());
        const float inv_t = 1.0F / static_cast<float>(t);
        for (index_t ni = 0; ni < n; ++ni) {
          for (index_t ci = 0; ci < c; ++ci) {
            const float g = o.grad[static_cast<std::size_t>(ni * c + ci)] * inv_t;
            float* xgrow = xg.data() + (ni * c + ci) * t;
            for (index_t ti = 0; ti < t; ++ti) {
              xgrow[ti] += g;
            }
          }
        }
      });
}

Tensor flatten(const Tensor& x) {
  PIT_CHECK(x.rank() >= 1, "flatten: rank must be >= 1");
  const index_t n = x.dim(0);
  const index_t rest = x.numel() / n;
  return x.reshape(Shape{n, rest});
}

AvgPool1d::AvgPool1d(index_t kernel, index_t stride)
    : kernel_(kernel), stride_(stride) {
  PIT_CHECK(kernel >= 1 && stride >= 1,
            "AvgPool1d: kernel=" << kernel << " stride=" << stride);
}

Tensor AvgPool1d::forward(const Tensor& input) {
  return avg_pool1d(input, kernel_, stride_);
}

Tensor GlobalAvgPool1d::forward(const Tensor& input) {
  return global_avg_pool1d(input);
}

}  // namespace pit::nn
