#include "core/regularizer.hpp"

#include <cmath>

#include "core/gamma.hpp"
#include "tensor/error.hpp"
#include "tensor/ops.hpp"

namespace pit::core {

std::vector<float> gamma_slice_weights(index_t rf_max) {
  const index_t levels = num_gamma_levels(rf_max);
  std::vector<float> weights;
  if (levels <= 1) {
    return weights;
  }
  weights.reserve(static_cast<std::size_t>(levels - 1));
  for (index_t i = 1; i <= levels - 1; ++i) {
    // round((rf_max - 1) / 2^(L - i)): slices re-enabled by gamma_i.
    const double denom = std::pow(2.0, static_cast<double>(levels - i));
    weights.push_back(static_cast<float>(
        std::llround(static_cast<double>(rf_max - 1) / denom)));
  }
  return weights;
}

namespace {

// lambda * sum over the layers with trainable gammas of
// Cin*Cout * sum_j scale[i] * w_j * |gamma_hat_j| (paper Eq. 6), where
// w_j are the layer's slice weights. `who` names the caller in errors.
Tensor scaled_gamma_cost(const std::vector<PITConv1d*>& layers, double lambda,
                         const std::vector<float>& scale, const char* who) {
  PIT_CHECK(lambda >= 0.0, who << ": lambda must be >= 0");
  Tensor total = Tensor::scalar(0.0F);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const PITConv1d* layer = layers[i];
    PIT_CHECK(layer != nullptr, who << ": null layer");
    if (layer->gamma().num_trainable() == 0 || layer->gamma().frozen()) {
      continue;
    }
    std::vector<float> weights = gamma_slice_weights(layer->rf_max());
    for (float& w : weights) {
      w *= scale[i];
    }
    Tensor w = Tensor::from_vector(
        weights, Shape{static_cast<index_t>(weights.size())});
    Tensor term = sum(mul(abs_op(layer->gamma().values()), w));
    const auto channel_product =
        static_cast<float>(layer->in_channels() * layer->out_channels());
    total = add(total, mul_scalar(term, channel_product));
  }
  return mul_scalar(total, static_cast<float>(lambda));
}

}  // namespace

Tensor size_regularizer(const std::vector<PITConv1d*>& layers, double lambda) {
  // Scale 1 leaves every slice weight bit-identical (w * 1.0f == w).
  return scaled_gamma_cost(layers, lambda,
                           std::vector<float>(layers.size(), 1.0F),
                           "size_regularizer");
}

Tensor flops_regularizer(const std::vector<PITConv1d*>& layers, double lambda,
                         const std::vector<index_t>& t_out_per_layer) {
  PIT_CHECK(t_out_per_layer.size() == layers.size(),
            "flops_regularizer: " << t_out_per_layer.size()
                                  << " t_out entries for " << layers.size()
                                  << " layers");
  return scaled_gamma_cost(
      layers, lambda,
      std::vector<float>(t_out_per_layer.begin(), t_out_per_layer.end()),
      "flops_regularizer");
}

index_t total_effective_params(const std::vector<PITConv1d*>& layers) {
  index_t total = 0;
  for (const PITConv1d* layer : layers) {
    PIT_CHECK(layer != nullptr, "total_effective_params: null layer");
    total += layer->effective_params();
  }
  return total;
}

}  // namespace pit::core
