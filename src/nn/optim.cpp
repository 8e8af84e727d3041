#include "nn/optim.hpp"

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

Adam::Adam(std::vector<Tensor> params, double lr, double beta1, double beta2,
           double eps, double weight_decay)
    : Optimizer(std::move(params)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  lr_ = lr;
  m_.resize(params_.size());
  v_.resize(params_.size());
}

void Adam::step() {
  ++step_count_;
  const double bc1 = 1.0 - std::pow(beta1_, step_count_);
  const double bc2 = 1.0 - std::pow(beta2_, step_count_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    auto pv = p.span();
    const float* g = p.grad_data();
    auto& m = m_[i];
    auto& v = v_[i];
    if (m.empty()) {
      m.assign(pv.size(), 0.0F);
      v.assign(pv.size(), 0.0F);
    }
    // Elements update independently: split them.
    const auto count = static_cast<index_t>(pv.size());
    parallel_for(count, count, [&](index_t j) {
      const double grad = g[j];
      m[j] = static_cast<float>(beta1_ * m[j] + (1.0 - beta1_) * grad);
      v[j] = static_cast<float>(beta2_ * v[j] + (1.0 - beta2_) * grad * grad);
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      double update = lr_ * mhat / (std::sqrt(vhat) + eps_);
      if (weight_decay_ != 0.0) {
        update += lr_ * weight_decay_ * pv[j];  // decoupled (AdamW)
      }
      pv[j] -= static_cast<float>(update);
    });
  }
}

}  // namespace pit::nn
