#include "core/pit_conv1d.hpp"

#include <cmath>

#include "core/mask.hpp"
#include "nn/conv1d.hpp"
#include "nn/kernels/kernels.hpp"
#include "tensor/autograd.hpp"
#include "tensor/error.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace pit::core {

Tensor masked_causal_conv1d(const Tensor& x, const Tensor& weight,
                            const Tensor& bias, const Tensor& mask,
                            index_t stride) {
  PIT_CHECK(x.rank() == 3, "masked_causal_conv1d: input must be (N, C, T)");
  PIT_CHECK(weight.rank() == 3,
            "masked_causal_conv1d: weight must be (Cout, Cin, K)");
  PIT_CHECK(mask.defined() && mask.rank() == 1 &&
                mask.dim(0) == weight.dim(2),
            "masked_causal_conv1d: mask must have one entry per tap");
  PIT_CHECK(x.dim(1) == weight.dim(1), "masked_causal_conv1d: Cin mismatch");
  PIT_CHECK(stride >= 1, "masked_causal_conv1d: stride must be >= 1");
  if (bias.defined()) {
    PIT_CHECK(bias.rank() == 1 && bias.dim(0) == weight.dim(0),
              "masked_causal_conv1d: bias shape");
  }

  nn::kernels::ConvDims dims{};
  dims.n = x.dim(0);
  dims.c_in = x.dim(1);
  dims.t_in = x.dim(2);
  dims.c_out = weight.dim(0);
  dims.k = weight.dim(2);
  dims.dilation = 1;  // dilation is *encoded in the mask* (seed layout)
  dims.stride = stride;
  dims.t_out = nn::causal_conv1d_output_steps(dims.t_in, stride);

  // Effective weights W ⊙ M (mask broadcast over channel pairs). Saved for
  // the backward input pass.
  Tensor weff = Tensor::empty(weight.shape());
  {
    const float* wd = weight.data();
    const float* md = mask.data();
    float* ed = weff.data();
    const index_t pairs = dims.c_out * dims.c_in;
    parallel_for(pairs, pairs * dims.k, [&](index_t p) {
      for (index_t i = 0; i < dims.k; ++i) {
        ed[p * dims.k + i] = wd[p * dims.k + i] * md[i];
      }
    });
  }

  Tensor out = Tensor::zeros(Shape{dims.n, dims.c_out, dims.t_out});
  nn::kernels::conv_forward(x.data(), weff.data(),
                           bias.defined() ? bias.data() : nullptr, out.data(),
                           dims);

  const Tensor tx = x;
  const Tensor tw = weight;
  const Tensor tb = bias;
  const Tensor tm = mask;
  const Tensor teff = weff;
  std::vector<Tensor> inputs = {x, weight, mask};
  if (bias.defined()) {
    inputs.push_back(bias);
  }
  return make_op_output(
      std::move(out), inputs, "masked_causal_conv1d",
      [tx, tw, tb, tm, teff, dims](TensorImpl& o) {
        const float* dy = o.grad.data();
        auto needs = [](const Tensor& t) {
          return t.defined() &&
                 (t.impl()->requires_grad || t.impl()->grad_fn != nullptr);
        };
        if (needs(tx)) {
          auto xg = grad_span(*tx.impl());
          nn::kernels::conv_backward_input(dy, teff.data(), xg.data(), dims);
        }
        const bool w_needs = needs(tw);
        const bool m_needs = needs(tm);
        if (w_needs || m_needs) {
          // Gradient w.r.t. the *effective* weights, then chain rule:
          // dW = dWeff ⊙ M,  dM_i = sum_{co,ci} dWeff[co,ci,i] * W[co,ci,i].
          // Zero-filled: the kernel accumulates into it.
          FloatBuffer dweff(static_cast<std::size_t>(tw.numel()), 0.0F);
          nn::kernels::conv_backward_weight(dy, tx.data(), dweff.data(), dims);
          const float* de = dweff.data();
          const float* wd = tw.data();
          const float* md = tm.data();
          const index_t pairs = dims.c_out * dims.c_in;
          const index_t work = pairs * dims.k;
          if (w_needs) {
            float* wg = grad_span(*tw.impl()).data();
            parallel_for(pairs, work, [&](index_t p) {
              for (index_t i = 0; i < dims.k; ++i) {
                wg[p * dims.k + i] += de[p * dims.k + i] * md[i];
              }
            });
          }
          if (m_needs) {
            // One serial reduction over pairs per tap; blocks of taps
            // split, a block's chains advance together.
            float* mg = grad_span(*tm.impl()).data();
            const index_t k = dims.k;
            parallel_for_blocks(k, work, [&](auto chains, index_t i0) {
              constexpr index_t K = decltype(chains)::value;
              float acc[K] = {};
              for (index_t p = 0; p < pairs; ++p) {
                for (index_t j = 0; j < K; ++j) {
                  acc[j] += de[p * k + i0 + j] * wd[p * k + i0 + j];
                }
              }
              for (index_t j = 0; j < K; ++j) {
                mg[i0 + j] += acc[j];
              }
            });
          }
        }
        if (needs(tb)) {
          auto bg = grad_span(*tb.impl());
          nn::kernels::conv_backward_bias(dy, bg.data(), dims);
        }
      });
}

PITConv1d::PITConv1d(index_t in_channels, index_t out_channels, index_t rf_max,
                     const PitConv1dOptions& options, RandomEngine& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      rf_max_(rf_max),
      options_(options),
      gamma_(rf_max) {
  PIT_CHECK(in_channels >= 1 && out_channels >= 1 && rf_max >= 1,
            "PITConv1d: channels and rf_max must be >= 1");
  PIT_CHECK(options.stride >= 1, "PITConv1d: stride must be >= 1");
  PIT_CHECK(options.binarize_threshold > 0.0F &&
                options.binarize_threshold < 1.0F,
            "PITConv1d: threshold must be in (0, 1)");
  const auto fan_in = static_cast<float>(in_channels * rf_max);
  const float bound = std::sqrt(6.0F / fan_in);
  weight_ = register_parameter(
      "weight", Tensor::uniform(Shape{out_channels, in_channels, rf_max},
                                -bound, bound, rng));
  if (options.bias) {
    const float bias_bound = 1.0F / std::sqrt(fan_in);
    bias_ = register_parameter(
        "bias",
        Tensor::uniform(Shape{out_channels}, -bias_bound, bias_bound, rng));
  }
  if (gamma_.num_trainable() > 0) {
    // Registered so snapshots/optimizers can reach it; the trainer splits
    // gamma tensors from weight tensors by layer introspection.
    register_parameter("gamma_hat", gamma_.values());
  }
}

Tensor PITConv1d::forward(const Tensor& input) {
  if (gamma_.frozen()) {
    if (!frozen_mask_.defined()) {
      frozen_mask_ = Tensor::from_vector(
          reference_mask(gamma_.binary_snapshot(options_.binarize_threshold),
                         rf_max_),
          Shape{rf_max_});
    }
    return masked_causal_conv1d(input, weight_, bias_, frozen_mask_,
                                options_.stride);
  }
  Tensor mask;
  if (gamma_.num_trainable() > 0) {
    Tensor gamma_bin =
        binarize(gamma_.values(), options_.binarize_threshold);
    mask = build_mask(gamma_bin, rf_max_);
  } else {
    mask = Tensor::ones(Shape{rf_max_});
  }
  return masked_causal_conv1d(input, weight_, bias_, mask, options_.stride);
}

index_t PITConv1d::current_dilation() const {
  return gamma_.dilation(options_.binarize_threshold);
}

index_t PITConv1d::current_alive_taps() const {
  return gamma_.alive_taps(options_.binarize_threshold);
}

index_t PITConv1d::effective_params() const {
  index_t params = in_channels_ * out_channels_ * current_alive_taps();
  if (bias_.defined()) {
    params += out_channels_;
  }
  return params;
}

void PITConv1d::freeze_gamma() {
  gamma_.freeze();
  frozen_mask_ = Tensor();  // rebuilt lazily from the frozen snapshot
}

models::ConvFactory pit_conv_factory(RandomEngine& rng,
                                     std::vector<PITConv1d*>& out_layers,
                                     PitConv1dOptions options) {
  return [&rng, &out_layers, options](const models::TemporalConvSpec& spec) {
    PitConv1dOptions layer_options = options;
    layer_options.stride = spec.stride;
    auto layer = std::make_unique<PITConv1d>(spec.in_channels,
                                             spec.out_channels,
                                             spec.receptive_field(),
                                             layer_options, rng);
    out_layers.push_back(layer.get());
    return layer;
  };
}

std::vector<PITConv1d*> collect_pit_layers(
    const std::vector<nn::Module*>& temporal_convs) {
  std::vector<PITConv1d*> out;
  for (nn::Module* m : temporal_convs) {
    if (auto* p = dynamic_cast<PITConv1d*>(m)) {
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace pit::core
