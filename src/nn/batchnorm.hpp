// Batch normalization over the channel dimension of (N, C, T) or (N, C).
#pragma once

#include "nn/module.hpp"

namespace pit::nn {

/// BatchNorm1d: normalizes each channel over the batch (and time) axes in
/// training mode, and with tracked running statistics in eval mode.
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(index_t num_features, float eps = 1e-5F,
                       float momentum = 0.1F);

  Tensor forward(const Tensor& input) override;
  /// relu(forward(input)) as one autograd op: the same values and
  /// gradients bit for bit, without the ReLU's node and buffers.
  Tensor forward_relu(const Tensor& input);

  index_t num_features() const { return num_features_; }
  float eps() const { return eps_; }
  float momentum() const { return momentum_; }
  Tensor gamma() const { return gamma_; }
  Tensor beta() const { return beta_; }
  Tensor running_mean() const { return running_mean_; }
  Tensor running_var() const { return running_var_; }

 private:
  Tensor forward_impl(const Tensor& input, bool fuse_relu);

  index_t num_features_;
  float eps_;
  float momentum_;
  Tensor gamma_;
  Tensor beta_;
  Tensor running_mean_;
  Tensor running_var_;
};

}  // namespace pit::nn
