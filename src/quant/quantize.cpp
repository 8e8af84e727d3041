#include "quant/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/error.hpp"

namespace pit::quant {

std::int8_t QuantParams::quantize(float v) const {
  const float q = std::round(v / scale) + static_cast<float>(zero_point);
  return static_cast<std::int8_t>(std::clamp(q, -128.0F, 127.0F));
}

QuantParams calibrate_symmetric(std::span<const float> values) {
  // Degenerate inputs (empty tensor, all zeros) quantize everything to 0;
  // the identity scale keeps the params usable instead of dividing by the
  // observed (zero) range.
  float max_abs = 0.0F;
  for (const float v : values) {
    max_abs = std::max(max_abs, std::fabs(v));
  }
  QuantParams params;
  params.scale = max_abs > 0.0F ? std::max(max_abs / 127.0F, kMinScale) : 1.0F;
  params.zero_point = 0;
  return params;
}

QuantParams calibrate_affine(std::span<const float> values) {
  if (values.empty()) {
    return {};  // identity scale, zero point 0
  }
  float lo = values[0];
  float hi = values[0];
  for (const float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return affine_from_range(lo, hi);
}

namespace {

/// Shared affine calibration over a [lo, hi] range for a quantized
/// integer domain [q_lo, q_hi]: widens the range to include zero and
/// clamps degenerate (all-constant / denormal-width) ranges to kMinScale
/// — a zero/denormal scale's reciprocal would overflow the zero point.
QuantParams affine_from_range_impl(float lo, float hi, std::int32_t q_lo,
                                   std::int32_t q_hi) {
  PIT_CHECK(lo <= hi, "affine_from_range: lo " << lo << " > hi " << hi);
  lo = std::min(lo, 0.0F);  // representable zero, as inference libs require
  hi = std::max(hi, 0.0F);
  QuantParams params;
  const float range = hi - lo;
  params.scale =
      range > 0.0F
          ? std::max(range / static_cast<float>(q_hi - q_lo), kMinScale)
          : 1.0F;
  params.zero_point = static_cast<std::int32_t>(
      std::round(static_cast<float>(q_lo) - lo / params.scale));
  params.zero_point = std::clamp(params.zero_point, q_lo, q_hi);
  return params;
}

}  // namespace

QuantParams affine_from_range(float lo, float hi) {
  return affine_from_range_impl(lo, hi, -128, 127);
}

QuantParams affine_u8_from_range(float lo, float hi) {
  return affine_from_range_impl(lo, hi, 0, 255);
}

std::uint8_t quantize_u8(float v, const QuantParams& params) {
  // Same arithmetic as the runtime kernels' stores (multiply by the
  // reciprocal, lrintf round-to-nearest-even) so this helper predicts the
  // staged bytes, ties included.
  const long q =
      std::lrintf(v * (1.0F / params.scale)) + params.zero_point;
  return static_cast<std::uint8_t>(std::clamp(q, 0L, 255L));
}

double max_roundtrip_error(std::span<const float> values,
                           const QuantParams& params) {
  double worst = 0.0;
  for (const float v : values) {
    const float back = params.dequantize(params.quantize(v));
    worst = std::max(worst, static_cast<double>(std::fabs(back - v)));
  }
  return worst;
}

double fake_quantize_parameters(nn::Module& model) {
  double worst = 0.0;
  for (const nn::NamedParameter& p : model.named_parameters()) {
    Tensor value = p.value;
    const QuantParams params = calibrate_symmetric(value.span());
    worst = std::max(worst, max_roundtrip_error(value.span(), params));
    for (float& v : value.span()) {
      v = params.dequantize(params.quantize(v));
    }
  }
  return worst;
}

index_t int8_model_bytes(index_t params, index_t int32_bias_params) {
  PIT_CHECK(params >= int32_bias_params,
            "int8_model_bytes: more biases than parameters");
  return (params - int32_bias_params) + 4 * int32_bias_params;
}

}  // namespace pit::quant
