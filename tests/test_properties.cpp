// Cross-cutting property tests: invariants that must hold across whole
// parameter sweeps rather than at hand-picked points.
#include <gtest/gtest.h>

#include "core/gamma.hpp"
#include "core/mask.hpp"
#include "core/regularizer.hpp"
#include "hw/deploy.hpp"
#include "hw/gap8.hpp"
#include "models/restcn.hpp"
#include "models/tcn_common.hpp"
#include "models/temponet.hpp"
#include "nn/conv1d.hpp"
#include "tensor/ops.hpp"

namespace pit {
namespace {

// ---- PIT mask algebra ------------------------------------------------------

TEST(Property, AliveTapsTimesDilationCoversReceptiveField) {
  // The exported kernel always spans the original receptive field:
  // (alive_taps - 1) * d + 1 is in (rf - d, rf].
  for (index_t rf = 2; rf <= 64; ++rf) {
    for (index_t d = 1; d <= core::max_dilation(rf); d *= 2) {
      const index_t taps = models::alive_taps(rf, d);
      const index_t span = (taps - 1) * d + 1;
      EXPECT_LE(span, rf) << "rf=" << rf << " d=" << d;
      EXPECT_GT(span, rf - d) << "rf=" << rf << " d=" << d;
    }
  }
}

TEST(Property, MaskAliveCountMatchesAliveTaps) {
  for (index_t rf = 2; rf <= 48; ++rf) {
    for (index_t d = 1; d <= core::max_dilation(rf); d *= 2) {
      const auto mask = core::mask_for_dilation(d, rf);
      index_t alive = 0;
      for (const float m : mask) {
        alive += m > 0.5F ? 1 : 0;
      }
      EXPECT_EQ(alive, models::alive_taps(rf, d)) << "rf=" << rf << " d=" << d;
    }
  }
}

TEST(Property, LargerDilationNeverEnablesNewTaps) {
  // Doubling the dilation only removes taps (monotone nesting) — the
  // structural reason PIT's search space is well-ordered by size.
  for (index_t rf : {5, 9, 17, 33, 21, 12}) {
    for (index_t d = 1; 2 * d <= core::max_dilation(rf); d *= 2) {
      const auto fine = core::mask_for_dilation(d, rf);
      const auto coarse = core::mask_for_dilation(2 * d, rf);
      for (index_t t = 0; t < rf; ++t) {
        EXPECT_LE(coarse[static_cast<std::size_t>(t)],
                  fine[static_cast<std::size_t>(t)])
            << "rf=" << rf << " d=" << d << " tap=" << t;
      }
    }
  }
}

TEST(Property, RegularizerWeightsEqualTapDifferences) {
  // Knob gamma_i's Eq. 6 weight equals the taps gained by halving the
  // dilation from 2^(L-i) to 2^(L-i-1) — exactly for power-of-two-plus-one
  // receptive fields, and to within rounding for all others.
  for (index_t rf : {3, 5, 9, 17, 33, 65}) {
    const auto weights = core::gamma_slice_weights(rf);
    const index_t levels = core::num_gamma_levels(rf);
    for (index_t i = 1; i <= levels - 1; ++i) {
      const index_t d_high = index_t{1} << (levels - i);      // gamma_i = 0
      const index_t d_low = d_high / 2;                       // gamma_i = 1
      const index_t gained =
          models::alive_taps(rf, d_low) - models::alive_taps(rf, d_high);
      EXPECT_EQ(static_cast<index_t>(weights[static_cast<std::size_t>(i - 1)]),
                gained)
          << "rf=" << rf << " i=" << i;
    }
  }
}

// ---- GAP8 model monotonicity ----------------------------------------------

hw::LayerDesc conv_desc(index_t cin, index_t cout, index_t k, index_t d,
                        index_t t) {
  hw::LayerDesc desc;
  desc.kind = hw::LayerKind::kConv;
  desc.cin = cin;
  desc.cout = cout;
  desc.k = k;
  desc.dilation = d;
  desc.t_in = t;
  desc.t_out = t;
  return desc;
}

TEST(Property, Gap8LatencyMonotoneInEveryDimension) {
  hw::Gap8Model model;
  const auto base = model.layer_perf(conv_desc(8, 8, 5, 2, 64));
  // Growing any extensive quantity must not reduce latency.
  EXPECT_GE(model.layer_perf(conv_desc(16, 8, 5, 2, 64)).total_cycles,
            base.total_cycles);
  EXPECT_GE(model.layer_perf(conv_desc(8, 16, 5, 2, 64)).total_cycles,
            base.total_cycles);
  EXPECT_GE(model.layer_perf(conv_desc(8, 8, 9, 2, 64)).total_cycles,
            base.total_cycles);
  EXPECT_GE(model.layer_perf(conv_desc(8, 8, 5, 4, 64)).total_cycles,
            base.total_cycles);
  EXPECT_GE(model.layer_perf(conv_desc(8, 8, 5, 2, 128)).total_cycles,
            base.total_cycles);
}

TEST(Property, Gap8PrunedNetworkNeverSlower) {
  // For every reachable dilation assignment of a TEMPONet, higher dilation
  // in any layer must not increase latency (fewer taps, same traffic).
  hw::Gap8Model model;
  models::TempoNetConfig cfg;
  const std::vector<index_t> base_d = {1, 1, 1, 1, 1, 1, 1};
  const double base_lat =
      model.network_perf(hw::describe_temponet(cfg, base_d)).latency_ms;
  for (std::size_t layer = 0; layer < 7; ++layer) {
    const auto specs = models::TempoNet::conv_specs(cfg);
    std::vector<index_t> d = base_d;
    d[layer] = core::max_dilation(specs[layer].receptive_field());
    const double lat =
        model.network_perf(hw::describe_temponet(cfg, d)).latency_ms;
    EXPECT_LE(lat, base_lat) << "pruning layer " << layer << " slowed it";
  }
}

TEST(Property, Gap8EnergyProportionalToLatency) {
  hw::Gap8Model model;
  models::ResTcnConfig cfg;
  for (const auto& d : {std::vector<index_t>{1, 1, 1, 1, 1, 1, 1, 1},
                        std::vector<index_t>{4, 4, 8, 8, 16, 16, 32, 32}}) {
    const auto perf = model.network_perf(hw::describe_restcn(cfg, d, 128));
    EXPECT_NEAR(perf.energy_mj / perf.latency_ms,
                model.config().active_power_w, 1e-9);
  }
}

// ---- Conv algebra -----------------------------------------------------------

TEST(Property, ConvIsLinearInInput) {
  // conv(a*x1 + b*x2) == a*conv(x1) + b*conv(x2) for bias-free convs.
  RandomEngine rng(4242);
  Tensor w = Tensor::randn(Shape{3, 2, 5}, rng);
  Tensor x1 = Tensor::randn(Shape{2, 2, 12}, rng);
  Tensor x2 = Tensor::randn(Shape{2, 2, 12}, rng);
  const float a = 0.7F;
  const float b = -1.3F;
  Tensor mixed = add(mul_scalar(x1, a), mul_scalar(x2, b));
  Tensor lhs = nn::causal_conv1d(mixed, w, Tensor(), 2, 1);
  Tensor rhs = add(mul_scalar(nn::causal_conv1d(x1, w, Tensor(), 2, 1), a),
                   mul_scalar(nn::causal_conv1d(x2, w, Tensor(), 2, 1), b));
  for (index_t i = 0; i < lhs.numel(); ++i) {
    EXPECT_NEAR(lhs.data()[i], rhs.data()[i], 1e-3);
  }
}

TEST(Property, ConvShiftEquivariance) {
  // Shifting the input right by s shifts the output right by s (causal,
  // stride 1, away from the left boundary).
  RandomEngine rng(4243);
  Tensor w = Tensor::randn(Shape{1, 1, 3}, rng);
  Tensor x = Tensor::randn(Shape{1, 1, 24}, rng);
  const index_t shift = 5;
  Tensor x_shifted = Tensor::zeros(Shape{1, 1, 24});
  for (index_t t = shift; t < 24; ++t) {
    x_shifted.data()[t] = x.data()[t - shift];
  }
  Tensor y = nn::causal_conv1d(x, w, Tensor(), 2, 1);
  Tensor y_shifted = nn::causal_conv1d(x_shifted, w, Tensor(), 2, 1);
  // Compare where both receptive fields are past the zero padding.
  for (index_t t = shift + 4; t < 24; ++t) {
    EXPECT_NEAR(y_shifted.data()[t], y.data()[t - shift], 1e-4)
        << "t=" << t;
  }
}

}  // namespace
}  // namespace pit
