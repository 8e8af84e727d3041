// int8 post-training quantization.
#include "quant/quantize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "models/temponet.hpp"
#include "tensor/error.hpp"

namespace pit::quant {
namespace {

TEST(QuantParams, SymmetricCalibrationCoversRange) {
  std::vector<float> values = {-2.0F, 0.5F, 1.9F};
  const QuantParams p = calibrate_symmetric(values);
  EXPECT_EQ(p.zero_point, 0);
  EXPECT_NEAR(p.scale, 2.0F / 127.0F, 1e-6);
  // Extremes survive the round trip within half a scale step.
  EXPECT_NEAR(p.dequantize(p.quantize(-2.0F)), -2.0F, p.scale / 2);
  EXPECT_NEAR(p.dequantize(p.quantize(1.9F)), 1.9F, p.scale / 2);
}

TEST(QuantParams, AffineCalibrationHandlesAsymmetricRange) {
  const QuantParams p = affine_from_range(0.0F, 4.0F);  // after ReLU
  EXPECT_NEAR(p.dequantize(p.quantize(0.0F)), 0.0F, p.scale / 2);
  EXPECT_NEAR(p.dequantize(p.quantize(4.0F)), 4.0F, p.scale / 2);
  EXPECT_NEAR(p.dequantize(p.quantize(2.3F)), 2.3F, p.scale / 2);
  // Values outside the calibrated range clamp to the int8 ends.
  EXPECT_EQ(p.quantize(-100.0F), -128);
  EXPECT_EQ(p.quantize(100.0F), 127);
}

TEST(QuantParams, ConstantTensorDoesNotDivideByZero) {
  std::vector<float> values = {0.0F, 0.0F};
  EXPECT_NO_THROW(calibrate_symmetric(values));
  // An all-zero range has no width: the identity scale, with zero at the
  // low end of the integer domain.
  const QuantParams s8 = affine_from_range(0.0F, 0.0F);
  EXPECT_FLOAT_EQ(s8.scale, 1.0F);
  EXPECT_EQ(s8.zero_point, -128);
  const QuantParams u8 = affine_u8_from_range(0.0F, 0.0F);
  EXPECT_FLOAT_EQ(u8.scale, 1.0F);
  EXPECT_EQ(u8.zero_point, 0);
}

TEST(QuantParams, DegenerateRangesClampToMinimumScale) {
  // Regression: a denormal-width range used to produce a denormal scale
  // whose reciprocal overflowed the zero point; an empty span threw.
  const std::vector<float> denormal = {1e-42F, 2e-42F};
  const QuantParams sym = calibrate_symmetric(denormal);
  EXPECT_GE(sym.scale, kMinScale);
  EXPECT_TRUE(std::isfinite(sym.scale));
  const QuantParams aff = affine_from_range(1e-42F, 2e-42F);
  EXPECT_GE(aff.scale, kMinScale);
  EXPECT_TRUE(std::isfinite(aff.scale));
  EXPECT_GE(aff.zero_point, -128);
  EXPECT_LE(aff.zero_point, 127);

  EXPECT_NO_THROW(calibrate_symmetric(std::span<const float>{}));
  EXPECT_FLOAT_EQ(calibrate_symmetric(std::span<const float>{}).scale, 1.0F);
  EXPECT_THROW(affine_from_range(1.0F, -1.0F), Error);

  // All-constant (non-zero) data stays usable and round-trips exactly.
  const QuantParams c = affine_from_range(2.5F, 2.5F);
  EXPECT_TRUE(std::isfinite(c.scale));
  EXPECT_NEAR(c.dequantize(c.quantize(2.5F)), 2.5F, c.scale / 2 + 1e-6F);
}

TEST(QuantParams, AffineU8CoversRangeAndClampsDegenerates) {
  // The runtime kernels' u8 store: multiply by the reciprocal scale,
  // round to nearest even, add the zero point.
  const auto stage = [](float v, const QuantParams& p) {
    return std::lrintf(v * (1.0F / p.scale)) + p.zero_point;
  };
  const QuantParams p = affine_u8_from_range(-1.0F, 3.0F);
  EXPECT_GE(p.zero_point, 0);
  EXPECT_LE(p.zero_point, 255);
  EXPECT_NEAR(p.scale, 4.0F / 255.0F, 1e-6F);
  // Zero is exactly representable (q = zero_point) and the range ends
  // land on the u8 ends.
  EXPECT_EQ(stage(0.0F, p), p.zero_point);
  EXPECT_EQ(p.dequantize(p.zero_point), 0.0F);
  EXPECT_EQ(stage(-1.0F, p), 0);
  EXPECT_EQ(stage(3.0F, p), 255);
  EXPECT_NEAR(p.dequantize(static_cast<std::int32_t>(stage(2.3F, p))), 2.3F,
              p.scale / 2);

  // A range that excludes zero is widened to include it, so the zero
  // point clamps to the domain's end.
  EXPECT_EQ(affine_u8_from_range(1.0F, 3.0F).zero_point, 0);
  EXPECT_EQ(affine_u8_from_range(-3.0F, -1.0F).zero_point, 255);
  EXPECT_EQ(affine_from_range(1.0F, 3.0F).zero_point, -128);
  EXPECT_EQ(affine_from_range(-3.0F, -1.0F).zero_point, 127);

  const QuantParams tiny = affine_u8_from_range(0.0F, 1e-40F);
  EXPECT_GE(tiny.scale, kMinScale);
  EXPECT_TRUE(std::isfinite(tiny.scale));
}

TEST(QuantRoundTrip, ErrorBoundedByHalfScale) {
  RandomEngine rng(601);
  Tensor t = Tensor::randn(Shape{1000}, rng);
  const QuantParams p = calibrate_symmetric(t.span());
  EXPECT_LE(max_roundtrip_error(t.span(), p), p.scale / 2 + 1e-6);
  for (const float v : t.span()) {
    EXPECT_NEAR(p.dequantize(p.quantize(v)), v, p.scale / 2 + 1e-6);
  }
}

TEST(FakeQuantize, KeepsModelUsableAndBoundsError) {
  RandomEngine rng(617);
  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;
  models::TempoNet model(cfg, models::hand_tuned_conv_factory(rng), rng);
  model.eval();
  Tensor x = Tensor::randn(Shape{2, 4, 64}, rng);
  Tensor before = model.forward(x);
  const double worst = fake_quantize_parameters(model);
  Tensor after = model.forward(x);
  EXPECT_GT(worst, 0.0);
  EXPECT_LT(worst, 0.1);  // int8 round trip is fine-grained
  // Outputs move, but stay close: quantization must not destroy the model.
  double max_delta = 0.0;
  for (index_t i = 0; i < before.numel(); ++i) {
    max_delta = std::max(max_delta, static_cast<double>(std::abs(
                                        before.data()[i] - after.data()[i])));
  }
  EXPECT_LT(max_delta, 30.0);  // BPM-scale outputs shift by well under 30
  EXPECT_GT(max_delta, 0.0);
}

TEST(Int8ModelBytes, AccountsForBiasWidth) {
  EXPECT_EQ(int8_model_bytes(1000, 0), 1000);
  EXPECT_EQ(int8_model_bytes(1000, 100), 900 + 400);
  EXPECT_THROW(int8_model_bytes(10, 20), Error);
}

}  // namespace
}  // namespace pit::quant
