#include "nn/optim.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/error.hpp"
#include "tensor/parallel.hpp"

namespace pit::nn {

Optimizer::Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {
  for (const Tensor& p : params_) {
    PIT_CHECK(p.defined(), "Optimizer: undefined parameter");
  }
}

void Optimizer::zero_grad() {
  for (Tensor& p : params_) {
    p.zero_grad();
  }
}

SGD::SGD(std::vector<Tensor> params, double lr, double momentum,
         double weight_decay)
    : Optimizer(std::move(params)),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  lr_ = lr;
  velocity_.resize(params_.size());
}

void SGD::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    auto pv = p.span();
    const float* g = p.grad_data();
    if (momentum_ != 0.0) {
      auto& vel = velocity_[i];
      if (vel.empty()) {
        vel.assign(pv.size(), 0.0F);
      }
      for (std::size_t j = 0; j < pv.size(); ++j) {
        const float grad =
            g[j] + static_cast<float>(weight_decay_) * pv[j];
        vel[j] = static_cast<float>(momentum_) * vel[j] + grad;
        pv[j] -= static_cast<float>(lr_) * vel[j];
      }
    } else {
      for (std::size_t j = 0; j < pv.size(); ++j) {
        const float grad =
            g[j] + static_cast<float>(weight_decay_) * pv[j];
        pv[j] -= static_cast<float>(lr_) * grad;
      }
    }
  }
}

namespace {

/// Most elements of one Adam chunk.
constexpr index_t kAdamChunk = 4096;

struct AdamCoeffs {
  double beta1, beta2, one_minus_beta1, one_minus_beta2;
  double bc1, bc2, lr, eps, lr_decay;
};

/// One Adam update of `count` elements. Built with -fno-math-errno (see
/// CMakeLists.txt), so the square root vectorizes; it is only taken of a
/// non-negative vhat, where errno is never set, so no value changes.
template <bool kDecay>
void adam_update(float* __restrict p, const float* __restrict g,
                 float* __restrict m, float* __restrict v, index_t count,
                 const AdamCoeffs& k) {
  for (index_t j = 0; j < count; ++j) {
    const double grad = g[j];
    m[j] = static_cast<float>(k.beta1 * m[j] + k.one_minus_beta1 * grad);
    v[j] = static_cast<float>(k.beta2 * v[j] +
                              k.one_minus_beta2 * grad * grad);
    const double mhat = m[j] / k.bc1;
    const double vhat = v[j] / k.bc2;
    double update = k.lr * mhat / (std::sqrt(vhat) + k.eps);
    if (kDecay) {
      update += k.lr_decay * p[j];  // decoupled (AdamW)
    }
    p[j] -= static_cast<float>(update);
  }
}

}  // namespace

Adam::Adam(std::vector<Tensor> params, double lr, double beta1, double beta2,
           double eps, double weight_decay)
    : Optimizer(std::move(params)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  lr_ = lr;
  offsets_.push_back(0);
  for (const Tensor& p : params_) {
    const auto count = static_cast<std::size_t>(p.numel());
    m_.emplace_back(count, 0.0F);
    v_.emplace_back(count, 0.0F);
    offsets_.push_back(offsets_.back() + p.numel());
  }
}

void Adam::step() {
  ++step_count_;
  const AdamCoeffs k{.beta1 = beta1_,
                     .beta2 = beta2_,
                     .one_minus_beta1 = 1.0 - beta1_,
                     .one_minus_beta2 = 1.0 - beta2_,
                     .bc1 = 1.0 - std::pow(beta1_, step_count_),
                     .bc2 = 1.0 - std::pow(beta2_, step_count_),
                     .lr = lr_,
                     .eps = eps_,
                     .lr_decay = lr_ * weight_decay_};
  // Pointers are taken (and missing gradients allocated) before the fork.
  std::vector<float*> values(params_.size());
  std::vector<const float*> grads(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    values[i] = params_[i].data();
    grads[i] = params_[i].grad_data();
  }
  // Elements update independently: split all parameters' elements into
  // equal chunks; a chunk may span several (small) parameters.
  const bool decay = weight_decay_ != 0.0;
  const index_t total = offsets_.back();
  const index_t chunks = (total + kAdamChunk - 1) / kAdamChunk;
  parallel_for(chunks, total, [&](index_t c) {
    index_t lo = c * kAdamChunk;
    const index_t hi = std::min(total, lo + kAdamChunk);
    // The last parameter that starts at or before lo holds it.
    auto i = static_cast<std::size_t>(
        std::upper_bound(offsets_.begin(), offsets_.end(), lo) -
        offsets_.begin() - 1);
    for (; lo < hi; ++i) {
      const index_t b = lo - offsets_[i];
      const index_t count = std::min(hi, offsets_[i + 1]) - lo;
      float* p = values[i] + b;
      const float* g = grads[i] + b;
      float* m = m_[i].data() + b;
      float* v = v_[i].data() + b;
      if (decay) {
        adam_update<true>(p, g, m, v, count, k);
      } else {
        adam_update<false>(p, g, m, v, count, k);
      }
      lo += count;
    }
  });
}

}  // namespace pit::nn
