// First-order optimizers.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace pit::nn {

/// Base class: holds shared handles to the parameters it updates.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params);
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from the currently accumulated gradients.
  virtual void step() = 0;
  /// Clears the gradients of all managed parameters.
  void zero_grad();

  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

 protected:
  std::vector<Tensor> params_;
  double lr_ = 1e-3;
};

/// SGD with optional momentum and decoupled weight decay.
class SGD : public Optimizer {
 public:
  SGD(std::vector<Tensor> params, double lr, double momentum = 0.0,
      double weight_decay = 0.0);
  void step() override;

 private:
  double momentum_;
  double weight_decay_;
  std::vector<std::vector<float>> velocity_;
};

/// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW-style).
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);
  void step() override;

 private:
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  long step_count_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  /// offsets_[i] is the number of elements in parameters [0, i); the
  /// last entry is the total. One OpenMP region updates all parameters
  /// as equal chunks of this concatenated element range.
  std::vector<index_t> offsets_;
};

}  // namespace pit::nn
