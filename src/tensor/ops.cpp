#include "tensor/ops.hpp"

#include <cmath>
#include <vector>

#include "tensor/autograd.hpp"
#include "tensor/error.hpp"
#include "tensor/parallel.hpp"

namespace pit {

namespace {

bool wants_grad(const TensorImpl& impl) {
  return impl.requires_grad || impl.grad_fn != nullptr;
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  PIT_CHECK(a.shape() == b.shape(), op << ": shape mismatch "
                                       << a.shape().to_string() << " vs "
                                       << b.shape().to_string());
}

/// Shared skeleton for unary ops: out[i] = f(a[i]),
/// da[i] += dout[i] * dfdx(a[i], out[i]). Backward reads the output
/// through the node's own impl: capturing it in the closure would make a
/// cycle (impl -> grad_fn -> closure -> impl) that leaks every graph that
/// is built but never backwarded.
template <typename Fwd, typename Bwd>
Tensor unary_op(const Tensor& a, const char* name, Fwd fwd, Bwd dfdx) {
  Tensor out = Tensor::empty(a.shape());
  const float* ad = a.data();
  float* od = out.data();
  const index_t numel = a.numel();
  parallel_for(numel, numel, [&](index_t i) { od[i] = fwd(ad[i]); });
  const Tensor ta = a;
  return make_op_output(
      std::move(out), {a}, name, [ta, dfdx](TensorImpl& o) {
        if (!wants_grad(*ta.impl())) {
          return;
        }
        float* ag = grad_span(*ta.impl()).data();
        const float* ad2 = ta.data();
        const float* od2 = o.data.data();
        const float* dy = o.grad.data();
        const index_t numel2 = ta.numel();
        parallel_for(numel2, numel2, [&](index_t i) {
          ag[i] += dy[i] * dfdx(ad2[i], od2[i]);
        });
      });
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out = Tensor::zeros(a.shape());
  const auto av = a.span();
  const auto bv = b.span();
  auto ov = out.span();
  for (std::size_t i = 0; i < av.size(); ++i) {
    ov[i] = av[i] + bv[i];
  }
  const Tensor ta = a;
  const Tensor tb = b;
  return make_op_output(std::move(out), {a, b}, "add", [ta, tb](TensorImpl& o) {
    if (wants_grad(*ta.impl())) {
      accumulate_grad(*ta.impl(), {o.grad.data(), o.grad.size()});
    }
    if (wants_grad(*tb.impl())) {
      accumulate_grad(*tb.impl(), {o.grad.data(), o.grad.size()});
    }
  });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out = Tensor::zeros(a.shape());
  const auto av = a.span();
  const auto bv = b.span();
  auto ov = out.span();
  for (std::size_t i = 0; i < av.size(); ++i) {
    ov[i] = av[i] - bv[i];
  }
  const Tensor ta = a;
  const Tensor tb = b;
  return make_op_output(std::move(out), {a, b}, "sub", [ta, tb](TensorImpl& o) {
    if (wants_grad(*ta.impl())) {
      accumulate_grad(*ta.impl(), {o.grad.data(), o.grad.size()});
    }
    if (wants_grad(*tb.impl())) {
      auto bg = grad_span(*tb.impl());
      for (std::size_t i = 0; i < bg.size(); ++i) {
        bg[i] -= o.grad[i];
      }
    }
  });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out = Tensor::zeros(a.shape());
  const auto av = a.span();
  const auto bv = b.span();
  auto ov = out.span();
  for (std::size_t i = 0; i < av.size(); ++i) {
    ov[i] = av[i] * bv[i];
  }
  const Tensor ta = a;
  const Tensor tb = b;
  return make_op_output(std::move(out), {a, b}, "mul", [ta, tb](TensorImpl& o) {
    const auto av2 = ta.span();
    const auto bv2 = tb.span();
    if (wants_grad(*ta.impl())) {
      auto ag = grad_span(*ta.impl());
      for (std::size_t i = 0; i < ag.size(); ++i) {
        ag[i] += o.grad[i] * bv2[i];
      }
    }
    if (wants_grad(*tb.impl())) {
      auto bg = grad_span(*tb.impl());
      for (std::size_t i = 0; i < bg.size(); ++i) {
        bg[i] += o.grad[i] * av2[i];
      }
    }
  });
}

Tensor div(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "div");
  Tensor out = Tensor::zeros(a.shape());
  const auto av = a.span();
  const auto bv = b.span();
  auto ov = out.span();
  for (std::size_t i = 0; i < av.size(); ++i) {
    ov[i] = av[i] / bv[i];
  }
  const Tensor ta = a;
  const Tensor tb = b;
  return make_op_output(std::move(out), {a, b}, "div", [ta, tb](TensorImpl& o) {
    const auto av2 = ta.span();
    const auto bv2 = tb.span();
    if (wants_grad(*ta.impl())) {
      auto ag = grad_span(*ta.impl());
      for (std::size_t i = 0; i < ag.size(); ++i) {
        ag[i] += o.grad[i] / bv2[i];
      }
    }
    if (wants_grad(*tb.impl())) {
      auto bg = grad_span(*tb.impl());
      for (std::size_t i = 0; i < bg.size(); ++i) {
        bg[i] -= o.grad[i] * av2[i] / (bv2[i] * bv2[i]);
      }
    }
  });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(
      a, "add_scalar", [s](float x) { return x + s; },
      [](float, float) { return 1.0F; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(
      a, "mul_scalar", [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Tensor neg(const Tensor& a) {
  return mul_scalar(a, -1.0F);
}

Tensor relu(const Tensor& a) {
  return unary_op(
      a, "relu", [](float x) { return relu_value(x); },
      [](float x, float) { return x > 0.0F ? 1.0F : 0.0F; });
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, "sigmoid", [](float x) { return 1.0F / (1.0F + std::exp(-x)); },
      [](float, float y) { return y * (1.0F - y); });
}

Tensor tanh_op(const Tensor& a) {
  return unary_op(
      a, "tanh", [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0F - y * y; });
}

Tensor exp_op(const Tensor& a) {
  return unary_op(
      a, "exp", [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor log_op(const Tensor& a) {
  return unary_op(
      a, "log", [](float x) { return std::log(x); },
      [](float x, float) { return 1.0F / x; });
}

Tensor abs_op(const Tensor& a) {
  return unary_op(
      a, "abs", [](float x) { return std::fabs(x); },
      [](float x, float) { return x > 0.0F ? 1.0F : (x < 0.0F ? -1.0F : 0.0F); });
}

Tensor square(const Tensor& a) {
  return unary_op(
      a, "square", [](float x) { return x * x; },
      [](float x, float) { return 2.0F * x; });
}

Tensor sqrt_op(const Tensor& a) {
  return unary_op(
      a, "sqrt", [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5F / y; });
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  PIT_CHECK(lo <= hi, "clamp: lo " << lo << " > hi " << hi);
  return unary_op(
      a, "clamp",
      [lo, hi](float x) { return x < lo ? lo : (x > hi ? hi : x); },
      [lo, hi](float x, float) {
        return (x >= lo && x <= hi) ? 1.0F : 0.0F;
      });
}

Tensor binarize(const Tensor& a, float threshold) {
  // Forward: Heaviside step (Eq. 2 of the paper). Backward: straight-through
  // estimator — the step is replaced by the identity, so the gradient
  // passes unchanged (BinaryConnect).
  return unary_op(
      a, "binarize",
      [threshold](float x) { return x >= threshold ? 1.0F : 0.0F; },
      [](float, float) { return 1.0F; });
}

Tensor sum(const Tensor& a) {
  double acc = 0.0;
  for (const float v : a.span()) {
    acc += v;
  }
  Tensor out = Tensor::scalar(static_cast<float>(acc));
  const Tensor ta = a;
  return make_op_output(std::move(out), {a}, "sum", [ta](TensorImpl& o) {
    if (!wants_grad(*ta.impl())) {
      return;
    }
    auto ag = grad_span(*ta.impl());
    const float g = o.grad[0];
    for (float& v : ag) {
      v += g;
    }
  });
}

Tensor mean(const Tensor& a) {
  const auto n = static_cast<float>(a.numel());
  double acc = 0.0;
  for (const float v : a.span()) {
    acc += v;
  }
  Tensor out = Tensor::scalar(static_cast<float>(acc / n));
  const Tensor ta = a;
  return make_op_output(std::move(out), {a}, "mean", [ta, n](TensorImpl& o) {
    if (!wants_grad(*ta.impl())) {
      return;
    }
    auto ag = grad_span(*ta.impl());
    const float g = o.grad[0] / n;
    for (float& v : ag) {
      v += g;
    }
  });
}

namespace {

/// C = A(m x k) * B(k x n), accumulating into C (caller zero-fills).
void gemm_acc(const float* a, const float* b, float* c, index_t m, index_t k,
              index_t n) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0F) {
        continue;
      }
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (index_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

/// C += A(m x k) * B^T where B is (n x k)  => C is (m x n).
void gemm_bt_acc(const float* a, const float* b, float* c, index_t m,
                 index_t k, index_t n) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const float* arow = a + i * k;
      const float* brow = b + j * k;
      float acc = 0.0F;
      for (index_t p = 0; p < k; ++p) {
        acc += arow[p] * brow[p];
      }
      c[i * n + j] += acc;
    }
  }
}

/// C += A^T * B where A is (m x k), B is (m x n) => C is (k x n).
void gemm_at_acc(const float* a, const float* b, float* c, index_t m,
                 index_t k, index_t n) {
  for (index_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (index_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0F) {
        continue;
      }
      float* crow = c + p * n;
      for (index_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  PIT_CHECK(a.rank() == 2 && b.rank() == 2,
            "matmul expects rank-2 tensors, got " << a.shape().to_string()
                                                  << " @ "
                                                  << b.shape().to_string());
  const index_t m = a.dim(0);
  const index_t k = a.dim(1);
  const index_t n = b.dim(1);
  PIT_CHECK(b.dim(0) == k, "matmul: inner dims " << a.shape().to_string()
                                                 << " @ "
                                                 << b.shape().to_string());
  Tensor out = Tensor::zeros(Shape{m, n});
  gemm_acc(a.data(), b.data(), out.data(), m, k, n);
  const Tensor ta = a;
  const Tensor tb = b;
  return make_op_output(
      std::move(out), {a, b}, "matmul", [ta, tb, m, k, n](TensorImpl& o) {
        if (wants_grad(*ta.impl())) {
          auto ag = grad_span(*ta.impl());
          gemm_bt_acc(o.grad.data(), tb.data(), ag.data(), m, n, k);
        }
        if (wants_grad(*tb.impl())) {
          auto bg = grad_span(*tb.impl());
          gemm_at_acc(ta.data(), o.grad.data(), bg.data(), m, k, n);
        }
      });
}

Tensor transpose(const Tensor& a) {
  PIT_CHECK(a.rank() == 2,
            "transpose expects rank-2, got " << a.shape().to_string());
  const index_t r = a.dim(0);
  const index_t c = a.dim(1);
  Tensor out = Tensor::zeros(Shape{c, r});
  const float* ad = a.data();
  float* od = out.data();
  for (index_t i = 0; i < r; ++i) {
    for (index_t j = 0; j < c; ++j) {
      od[j * r + i] = ad[i * c + j];
    }
  }
  const Tensor ta = a;
  return make_op_output(
      std::move(out), {a}, "transpose", [ta, r, c](TensorImpl& o) {
        if (!wants_grad(*ta.impl())) {
          return;
        }
        auto ag = grad_span(*ta.impl());
        for (index_t i = 0; i < r; ++i) {
          for (index_t j = 0; j < c; ++j) {
            ag[i * c + j] += o.grad[j * r + i];
          }
        }
      });
}

Tensor prod_dim0(const Tensor& a) {
  PIT_CHECK(a.rank() == 2,
            "prod_dim0 expects rank-2, got " << a.shape().to_string());
  const index_t rows = a.dim(0);
  const index_t cols = a.dim(1);
  Tensor out = Tensor::ones(Shape{cols});
  const float* ad = a.data();
  float* od = out.data();
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      od[c] *= ad[r * cols + c];
    }
  }
  const Tensor ta = a;
  return make_op_output(
      std::move(out), {a}, "prod_dim0", [ta, rows, cols](TensorImpl& o) {
        if (!wants_grad(*ta.impl())) {
          return;
        }
        // d(prod_r x[r,c]) / d x[r,c] = prod of the other rows; computed via
        // prefix/suffix products so zeros are handled exactly.
        auto ag = grad_span(*ta.impl());
        const float* ad2 = ta.data();
        std::vector<float> prefix(static_cast<std::size_t>(rows) + 1);
        std::vector<float> suffix(static_cast<std::size_t>(rows) + 1);
        for (index_t c = 0; c < cols; ++c) {
          prefix[0] = 1.0F;
          for (index_t r = 0; r < rows; ++r) {
            prefix[r + 1] = prefix[r] * ad2[r * cols + c];
          }
          suffix[rows] = 1.0F;
          for (index_t r = rows - 1; r >= 0; --r) {
            suffix[r] = suffix[r + 1] * ad2[r * cols + c];
          }
          for (index_t r = 0; r < rows; ++r) {
            ag[r * cols + c] += o.grad[c] * prefix[r] * suffix[r + 1];
          }
        }
      });
}

Tensor replicate_cols(const Tensor& v, index_t cols) {
  PIT_CHECK(v.rank() == 1,
            "replicate_cols expects rank-1, got " << v.shape().to_string());
  PIT_CHECK(cols >= 1, "replicate_cols: cols must be >= 1, got " << cols);
  const index_t rows = v.dim(0);
  Tensor out = Tensor::zeros(Shape{rows, cols});
  const float* vd = v.data();
  float* od = out.data();
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      od[r * cols + c] = vd[r];
    }
  }
  const Tensor tv = v;
  return make_op_output(
      std::move(out), {v}, "replicate_cols", [tv, rows, cols](TensorImpl& o) {
        if (!wants_grad(*tv.impl())) {
          return;
        }
        auto vg = grad_span(*tv.impl());
        for (index_t r = 0; r < rows; ++r) {
          float acc = 0.0F;
          for (index_t c = 0; c < cols; ++c) {
            acc += o.grad[static_cast<std::size_t>(r * cols + c)];
          }
          vg[r] += acc;
        }
      });
}

Tensor prepend_one(const Tensor& v) {
  PIT_CHECK(v.rank() == 1,
            "prepend_one expects rank-1, got " << v.shape().to_string());
  const index_t n = v.dim(0);
  Tensor out = Tensor::zeros(Shape{n + 1});
  out.data()[0] = 1.0F;
  const float* vd = v.data();
  for (index_t i = 0; i < n; ++i) {
    out.data()[i + 1] = vd[i];
  }
  const Tensor tv = v;
  return make_op_output(
      std::move(out), {v}, "prepend_one", [tv, n](TensorImpl& o) {
        if (!wants_grad(*tv.impl())) {
          return;
        }
        auto vg = grad_span(*tv.impl());
        for (index_t i = 0; i < n; ++i) {
          vg[i] += o.grad[static_cast<std::size_t>(i + 1)];
        }
      });
}

}  // namespace pit
