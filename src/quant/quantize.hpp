// int8 post-training quantization (the paper deploys int8 models through
// GreenWaves' NN-Tool; this module is our stand-in for that flow).
//
// Weights use per-tensor symmetric quantization (zero point 0); activations
// use per-tensor affine quantization calibrated from observed ranges. The
// int8 runtime (runtime/quantize_plan.hpp) lowers compiled plans with these
// parameters, and fake-quantization utilities let any trained float model
// be evaluated "as deployed".
#pragma once

#include <cstdint>
#include <span>

#include "nn/module.hpp"
#include "tensor/tensor.hpp"

namespace pit::quant {

/// Smallest representable calibration scale. A degenerate observed range
/// (all-constant input, denormal spread, or an empty tensor) must never
/// produce a zero, denormal, or infinite scale — 1/scale is used in every
/// quantize step, so the scale is clamped here instead of trusting the
/// data.
inline constexpr float kMinScale = 1e-8F;

struct QuantParams {
  float scale = 1.0F;
  std::int32_t zero_point = 0;

  float dequantize(std::int32_t q) const {
    return scale * static_cast<float>(q - zero_point);
  }
  std::int8_t quantize(float v) const;
};

/// Symmetric int8 parameters from the max absolute value (weights).
/// Degenerate inputs (empty span, all-zero values) yield the identity
/// scale 1; a tiny but non-zero range is clamped to kMinScale.
QuantParams calibrate_symmetric(std::span<const float> values);

/// Affine int8 parameters from an explicit [lo, hi] range (e.g. a range
/// accumulated by a RangeObserver over many calibration batches). The
/// range is widened to include zero and clamped to kMinScale.
QuantParams affine_from_range(float lo, float hi);

/// Affine *uint8* parameters from an explicit [lo, hi] range: real value
/// = scale * (q - zero_point) with q in [0, 255] and zero_point in
/// [0, 255]. This is the activation encoding of the quantized compiled
/// runtime (unsigned activations feed the u8 x s8 dot-product kernels).
QuantParams affine_u8_from_range(float lo, float hi);

/// Worst-case absolute error of the round trip: <= scale/2 within range.
double max_roundtrip_error(std::span<const float> values,
                           const QuantParams& params);

/// Rounds every parameter of the module through int8 in place (symmetric
/// per-tensor), simulating deployed weights. Returns the worst per-tensor
/// round-trip error.
double fake_quantize_parameters(nn::Module& model);

/// int8 model size in bytes: one byte per parameter (biases are kept at
/// int32 by deployment flows; `int32_bias_params` counts those).
index_t int8_model_bytes(index_t params, index_t int32_bias_params = 0);

}  // namespace pit::quant
