// Kernel engine: blocked-engine parity against the scalar reference
// across adversarial shapes, the registry's scalar-vs-blocked heuristic,
// and gradchecks through the autograd path on shapes it sends to blocked.
#include "nn/kernels/kernels.hpp"

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "core/pit_conv1d.hpp"
#include "nn/conv1d.hpp"
#include "nn/kernels/registry.hpp"
#include "tensor/gradcheck.hpp"
#include "tensor/tensor.hpp"

namespace pit::nn::kernels {
namespace {

struct KernelCase {
  index_t n, c_in, c_out, k, t_in, dilation, stride;
  bool with_bias;
  int masked_taps;  // leading taps whose weights are zeroed (pruned)
};

std::ostream& operator<<(std::ostream& os, const KernelCase& c) {
  return os << "n" << c.n << "_ci" << c.c_in << "_co" << c.c_out << "_k"
            << c.k << "_t" << c.t_in << "_d" << c.dilation << "_s"
            << c.stride << (c.with_bias ? "_bias" : "") << "_m"
            << c.masked_taps;
}

ConvDims make_dims(const KernelCase& c) {
  ConvDims d{};
  d.n = c.n;
  d.c_in = c.c_in;
  d.c_out = c.c_out;
  d.k = c.k;
  d.t_in = c.t_in;
  d.dilation = c.dilation;
  d.stride = c.stride;
  d.t_out = causal_conv1d_output_steps(c.t_in, c.stride);
  return d;
}

/// True when the registry sends a problem of these dims to the blocked
/// engine (the training binding autograd looks up per call).
bool binds_blocked(const ConvDims& d) {
  const Registry& reg = Registry::instance();
  return &reg.conv_train_f32(d) == &reg.conv_train_f32_blocked();
}

std::vector<float> random_buffer(index_t numel, RandomEngine& rng) {
  Tensor t = Tensor::randn(Shape{numel}, rng);
  return std::vector<float>(t.data(), t.data() + numel);
}

/// Asserts blocked == scalar within 1e-5, relative to the magnitude each
/// output element actually accumulated (`mag`, the same kernel run on
/// absolute inputs). Long float32 reductions legitimately differ between
/// backends by ~sqrt(terms) * eps * magnitude, so a bound relative to the
/// result value alone would flag well-conditioned kernels on cancelling
/// data.
void expect_close(const std::vector<float>& want,
                  const std::vector<float>& got,
                  const std::vector<float>& mag, const char* what) {
  ASSERT_EQ(want.size(), got.size());
  ASSERT_EQ(want.size(), mag.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const float tol = 1e-5F * std::max(1.0F, mag[i]);
    ASSERT_NEAR(want[i], got[i], tol) << what << " diverges at flat index "
                                      << i;
  }
}

std::vector<float> abs_of(const std::vector<float>& v) {
  std::vector<float> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = std::abs(v[i]);
  }
  return out;
}

class BlockedMatchesScalar : public ::testing::TestWithParam<KernelCase> {};

TEST_P(BlockedMatchesScalar, ForwardAndBothBackwards) {
  const KernelCase c = GetParam();
  const ConvDims d = make_dims(c);
  RandomEngine rng(77);

  std::vector<float> x = random_buffer(d.n * d.c_in * d.t_in, rng);
  std::vector<float> w = random_buffer(d.c_out * d.c_in * d.k, rng);
  std::vector<float> bias = random_buffer(d.c_out, rng);
  std::vector<float> dy = random_buffer(d.n * d.c_out * d.t_out, rng);
  // Pruned taps: PIT masks broadcast a zero across every channel pair.
  for (int i = 0; i < c.masked_taps && i < c.k; ++i) {
    for (index_t p = 0; p < d.c_out * d.c_in; ++p) {
      w[static_cast<std::size_t>(p * d.k + i)] = 0.0F;
    }
  }
  const float* bp = c.with_bias ? bias.data() : nullptr;
  const std::vector<float> xa = abs_of(x);
  const std::vector<float> wa = abs_of(w);
  const std::vector<float> ba = abs_of(bias);
  const std::vector<float> dya = abs_of(dy);
  const float* bpa = c.with_bias ? ba.data() : nullptr;
  const ConvTrainF32& blocked =
      Registry::instance().conv_train_f32_blocked();

  std::vector<float> y_ref(static_cast<std::size_t>(d.n * d.c_out * d.t_out),
                           0.0F);
  std::vector<float> y_blk(y_ref.size(), 0.0F);
  std::vector<float> y_mag(y_ref.size(), 0.0F);
  scalar::conv_forward(x.data(), w.data(), bp, y_ref.data(), d);
  blocked.forward(x.data(), w.data(), bp, y_blk.data(), d);
  scalar::conv_forward(xa.data(), wa.data(), bpa, y_mag.data(), d);
  expect_close(y_ref, y_blk, y_mag, "forward");

  std::vector<float> dx_ref(x.size(), 0.0F);
  std::vector<float> dx_blk(x.size(), 0.0F);
  std::vector<float> dx_mag(x.size(), 0.0F);
  scalar::conv_backward_input(dy.data(), w.data(), dx_ref.data(), d);
  blocked.backward_input(dy.data(), w.data(), dx_blk.data(), d);
  scalar::conv_backward_input(dya.data(), wa.data(), dx_mag.data(), d);
  expect_close(dx_ref, dx_blk, dx_mag, "backward_input");

  std::vector<float> dw_ref(w.size(), 0.0F);
  std::vector<float> dw_blk(w.size(), 0.0F);
  std::vector<float> dw_mag(w.size(), 0.0F);
  scalar::conv_backward_weight(dy.data(), x.data(), dw_ref.data(), d);
  blocked.backward_weight(dy.data(), x.data(), dw_blk.data(), d);
  scalar::conv_backward_weight(dya.data(), xa.data(), dw_mag.data(), d);
  expect_close(dw_ref, dw_blk, dw_mag, "backward_weight");
}

TEST_P(BlockedMatchesScalar, AccumulatesIntoPrefilledOutputs) {
  // The training kernels add into their outputs: autograd sums a conv's
  // gradient into an existing grad buffer. Pre-filled outputs must end
  // at prefill + scalar, within the zero-start tolerance.
  const KernelCase c = GetParam();
  const ConvDims d = make_dims(c);
  RandomEngine rng(78);
  std::vector<float> x = random_buffer(d.n * d.c_in * d.t_in, rng);
  std::vector<float> w = random_buffer(d.c_out * d.c_in * d.k, rng);
  std::vector<float> bias = random_buffer(d.c_out, rng);
  std::vector<float> dy = random_buffer(d.n * d.c_out * d.t_out, rng);
  for (int i = 0; i < c.masked_taps && i < c.k; ++i) {
    for (index_t p = 0; p < d.c_out * d.c_in; ++p) {
      w[static_cast<std::size_t>(p * d.k + i)] = 0.0F;
    }
  }
  const float* bp = c.with_bias ? bias.data() : nullptr;
  const std::vector<float> xa = abs_of(x);
  const std::vector<float> wa = abs_of(w);
  const std::vector<float> ba = abs_of(bias);
  const std::vector<float> dya = abs_of(dy);
  const float* bpa = c.with_bias ? ba.data() : nullptr;
  const ConvTrainF32& blocked =
      Registry::instance().conv_train_f32_blocked();

  // `scalar_run`/`blocked_run` add one kernel's result into their buffer;
  // `mag_run` accumulates the same kernel on absolute inputs.
  const auto check = [&](index_t numel, const auto& scalar_run,
                         const auto& blocked_run, const auto& mag_run,
                         const char* what) {
    const std::vector<float> prefill = random_buffer(numel, rng);
    std::vector<float> want(prefill.size(), 0.0F);
    std::vector<float> mag(prefill.size(), 0.0F);
    scalar_run(want.data());
    mag_run(mag.data());
    for (std::size_t i = 0; i < want.size(); ++i) {
      want[i] += prefill[i];
      mag[i] += std::abs(prefill[i]);
    }
    std::vector<float> got = prefill;
    blocked_run(got.data());
    expect_close(want, got, mag, what);
  };
  check(
      d.n * d.c_out * d.t_out,
      [&](float* y) { scalar::conv_forward(x.data(), w.data(), bp, y, d); },
      [&](float* y) { blocked.forward(x.data(), w.data(), bp, y, d); },
      [&](float* y) {
        scalar::conv_forward(xa.data(), wa.data(), bpa, y, d);
      },
      "forward");
  check(
      d.n * d.c_in * d.t_in,
      [&](float* dx) {
        scalar::conv_backward_input(dy.data(), w.data(), dx, d);
      },
      [&](float* dx) { blocked.backward_input(dy.data(), w.data(), dx, d); },
      [&](float* dx) {
        scalar::conv_backward_input(dya.data(), wa.data(), dx, d);
      },
      "backward_input");
  check(
      d.c_out * d.c_in * d.k,
      [&](float* dw) {
        scalar::conv_backward_weight(dy.data(), x.data(), dw, d);
      },
      [&](float* dw) {
        blocked.backward_weight(dy.data(), x.data(), dw, d);
      },
      [&](float* dw) {
        scalar::conv_backward_weight(dya.data(), xa.data(), dw, d);
      },
      "backward_weight");
}

/// The PIT search's seed layout (half-width TempoNet at d = 1, batch 16):
/// the first layer's 4 input channels and one conv per block, with rf taps
/// 5 / 9 / 17 at T = 128 / 64 / 32, plus a row whose causal lead is
/// longer than half of it.
const KernelCase kSearchShapes[] = {
    KernelCase{16, 4, 16, 5, 128, 1, 1, true, 0},
    KernelCase{16, 32, 32, 9, 64, 1, 1, true, 0},
    KernelCase{16, 64, 64, 17, 32, 1, 1, true, 0},
    KernelCase{4, 5, 6, 17, 24, 1, 1, true, 0},
};

std::vector<KernelCase> adversarial_shapes() {
  std::vector<KernelCase> cases = {
      // basic small shape, channels not a multiple of the 4-wide tile
      KernelCase{2, 3, 5, 3, 11, 1, 1, true, 0},
      // single everything
      KernelCase{1, 1, 1, 1, 1, 1, 1, false, 0},
      // t_out == 1 with a wide kernel reaching fully into the padding
      KernelCase{2, 2, 3, 7, 1, 2, 1, true, 0},
      // k == 1 pointwise
      KernelCase{3, 4, 4, 1, 19, 1, 1, false, 0},
      // stride > 1 (strided scatter path in backward_input)
      KernelCase{2, 3, 6, 5, 33, 1, 2, true, 0},
      KernelCase{1, 5, 3, 4, 26, 1, 3, false, 0},
      // dilation > 1, receptive field larger than t_in
      KernelCase{2, 4, 4, 9, 31, 4, 1, true, 0},
      KernelCase{1, 2, 7, 5, 16, 8, 1, false, 0},
      // dilation and stride combined
      KernelCase{2, 3, 5, 5, 40, 3, 2, true, 0},
      // zero-masked taps (pruned search state)
      KernelCase{2, 4, 4, 9, 31, 2, 1, true, 4},
      KernelCase{2, 3, 8, 17, 64, 1, 1, false, 12},
      // time extent crossing the 32-wide tile boundary unevenly
      KernelCase{2, 3, 5, 5, 67, 2, 1, true, 0},
      // big-ish batched shape (exercises the OpenMP grid)
      KernelCase{16, 8, 12, 9, 128, 2, 1, true, 0}};
  cases.insert(cases.end(), std::begin(kSearchShapes),
               std::end(kSearchShapes));
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialShapes, BlockedMatchesScalar,
    ::testing::ValuesIn(adversarial_shapes()),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

TEST(BlockedTrainingKernels, BitIdenticalAtOneTwoAndFourThreads) {
  // Every cell of the blocked kernels' OpenMP grid owns a disjoint output
  // slice and reduces in a fixed order, so the thread count must not move
  // a single bit (the search's parallel == sequential check relies on it).
#ifndef _OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  const ConvTrainF32& blocked =
      Registry::instance().conv_train_f32_blocked();
  const int saved = omp_get_max_threads();
  for (const KernelCase& c : kSearchShapes) {
    const ConvDims d = make_dims(c);
    RandomEngine rng(79);
    const std::vector<float> x = random_buffer(d.n * d.c_in * d.t_in, rng);
    const std::vector<float> w = random_buffer(d.c_out * d.c_in * d.k, rng);
    const std::vector<float> bias = random_buffer(d.c_out, rng);
    const std::vector<float> dy =
        random_buffer(d.n * d.c_out * d.t_out, rng);
    struct Outputs {
      std::vector<float> y, dx, dw;
    };
    const auto run = [&](int threads) {
      omp_set_num_threads(threads);
      Outputs o{std::vector<float>(dy.size(), 0.0F),
                std::vector<float>(x.size(), 0.0F),
                std::vector<float>(w.size(), 0.0F)};
      blocked.forward(x.data(), w.data(), bias.data(), o.y.data(), d);
      blocked.backward_input(dy.data(), w.data(), o.dx.data(), d);
      blocked.backward_weight(dy.data(), x.data(), o.dw.data(), d);
      return o;
    };
    const auto same_bits = [](const std::vector<float>& a,
                              const std::vector<float>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
    };
    const Outputs one = run(1);
    for (const int threads : {2, 4}) {
      const Outputs many = run(threads);
      EXPECT_TRUE(same_bits(one.y, many.y))
          << "forward, " << threads << " threads, " << c;
      EXPECT_TRUE(same_bits(one.dx, many.dx))
          << "backward_input, " << threads << " threads, " << c;
      EXPECT_TRUE(same_bits(one.dw, many.dw))
          << "backward_weight, " << threads << " threads, " << c;
    }
  }
  omp_set_num_threads(saved);
#endif
}

TEST(KernelDispatch, HeuristicPicksScalarForTinyProblems) {
  const Registry& reg = Registry::instance();
  KernelCase tiny{1, 1, 1, 3, 8, 1, 1, false, 0};
  const ConvTrainF32& t = reg.conv_train_f32(make_dims(tiny));
  EXPECT_FALSE(binds_blocked(make_dims(tiny)));
  EXPECT_EQ(t.forward, &scalar::conv_forward);
  EXPECT_EQ(t.backward_input, &scalar::conv_backward_input);
  EXPECT_EQ(t.backward_weight, &scalar::conv_backward_weight);
  EXPECT_STREQ(t.meta.isa, "scalar");
  // One MAC short of the threshold still stays scalar.
  KernelCase edge{1, 1, 1, 1, kBlockedMinMacs - 1, 1, 1, false, 0};
  EXPECT_FALSE(binds_blocked(make_dims(edge)));
}

TEST(KernelDispatch, HeuristicPicksBlockedForBatchedProblems) {
  KernelCase big{16, 32, 32, 9, 256, 1, 1, false, 0};
  EXPECT_TRUE(binds_blocked(make_dims(big)));
  KernelCase edge{1, 1, 1, 1, kBlockedMinMacs, 1, 1, false, 0};
  EXPECT_EQ(conv_macs(make_dims(edge)), kBlockedMinMacs);
  EXPECT_TRUE(binds_blocked(make_dims(edge)));
}

TEST(KernelDispatch, AutogradBlockedBindingSharesTheRuntimeIsa) {
  // The autograd path and a plan's strided conv get their blocked kernels
  // from the same registration as the packed inference kernels, so the
  // training kernels cannot run a different ISA level than the runtime.
  const Registry& reg = Registry::instance();
  const ConvTrainF32& blocked = reg.conv_train_f32_blocked();
  EXPECT_STREQ(blocked.meta.isa, reg.fp32_isa());
  EXPECT_STREQ(blocked.meta.op, "conv.train.f32");
  EXPECT_NE(blocked.forward, &scalar::conv_forward);
  EXPECT_NE(blocked.backward_input, &scalar::conv_backward_input);
  EXPECT_NE(blocked.backward_weight, &scalar::conv_backward_weight);
}

TEST(KernelDispatch, DispatchedConvMatchesForcedScalarThroughAutograd) {
  // End-to-end through causal_conv1d: a shape big enough that the
  // heuristic picks the blocked engine must match the scalar reference at
  // the op level (same accumulation order per output element).
  RandomEngine rng(5);
  Tensor x = Tensor::randn(Shape{16, 8, 64}, rng);
  Tensor w = Tensor::randn(Shape{12, 8, 9}, rng);
  Tensor b = Tensor::randn(Shape{12}, rng);
  const ConvDims d = make_dims(KernelCase{16, 8, 12, 9, 64, 2, 1, true, 0});
  ASSERT_TRUE(binds_blocked(d));

  std::vector<float> y_ref(static_cast<std::size_t>(d.n * d.c_out * d.t_out),
                           0.0F);
  scalar::conv_forward(x.data(), w.data(), b.data(), y_ref.data(), d);
  Tensor y_blk = causal_conv1d(x, w, b, 2, 1);
  ASSERT_EQ(y_blk.numel(), static_cast<index_t>(y_ref.size()));
  for (index_t i = 0; i < y_blk.numel(); ++i) {
    const float want = y_ref[static_cast<std::size_t>(i)];
    EXPECT_NEAR(want, y_blk.data()[i],
                1e-5F * std::max(1.0F, std::abs(want)));
  }
}

// The gradchecks run shapes at or above kBlockedMinMacs, so the autograd
// path takes the blocked engine for forward and both backwards.

TEST(KernelGradcheck, BlockedConvForwardBackward) {
  ASSERT_TRUE(binds_blocked(make_dims(
      KernelCase{2, 2, 8, 11, 48, 2, 1, true, 0})));
  RandomEngine rng(11);
  Tensor x = Tensor::randn(Shape{2, 2, 48}, rng);
  Tensor w = Tensor::randn(Shape{8, 2, 11}, rng);
  Tensor b = Tensor::randn(Shape{8}, rng);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  const auto result = gradcheck(
      [](const std::vector<Tensor>& in) {
        return causal_conv1d(in[0], in[1], in[2], 2, 1);
      },
      {x, w, b});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(KernelGradcheck, BlockedStridedConv) {
  ASSERT_TRUE(binds_blocked(make_dims(
      KernelCase{2, 2, 8, 11, 96, 1, 2, false, 0})));
  RandomEngine rng(13);
  Tensor x = Tensor::randn(Shape{2, 2, 96}, rng);
  Tensor w = Tensor::randn(Shape{8, 2, 11}, rng);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  const auto result = gradcheck(
      [](const std::vector<Tensor>& in) {
        return causal_conv1d(in[0], in[1], Tensor(), 1, 2);
      },
      {x, w});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(KernelGradcheck, BlockedMaskedPitConv) {
  // The PIT masked convolution (W ⊙ M with the mask chain rule) through
  // the blocked engine.
  ASSERT_TRUE(binds_blocked(make_dims(
      KernelCase{2, 2, 8, 11, 48, 1, 1, false, 0})));
  RandomEngine rng(17);
  Tensor x = Tensor::randn(Shape{2, 2, 48}, rng);
  Tensor w = Tensor::randn(Shape{8, 2, 11}, rng);
  Tensor m = Tensor::uniform(Shape{11}, 0.25F, 1.0F, rng);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  m.set_requires_grad(true);
  const auto result = gradcheck(
      [](const std::vector<Tensor>& in) {
        return core::masked_causal_conv1d(in[0], in[1], Tensor(), in[2], 1);
      },
      {x, w, m});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(PackedForward, MatchesScalarReferenceDenseAndPadded) {
  RandomEngine rng(911);
  struct Case {
    index_t n, c_in, c_out, k, t, dilation;
    bool with_bias, relu;
  };
  const Case cases[] = {
      {2, 3, 5, 3, 40, 2, true, false}, {1, 4, 4, 9, 33, 1, true, true},
      {3, 2, 7, 3, 64, 8, false, true}, {2, 6, 12, 5, 20, 4, true, true},
      {1, 1, 1, 1, 7, 1, true, false},
  };
  for (const Case& c : cases) {
    ConvDims d{};
    d.n = c.n;
    d.c_in = c.c_in;
    d.c_out = c.c_out;
    d.k = c.k;
    d.t_in = c.t;
    d.t_out = c.t;
    d.dilation = c.dilation;
    d.stride = 1;
    Tensor x = Tensor::randn(Shape{c.n, c.c_in, c.t}, rng);
    Tensor w = Tensor::randn(Shape{c.c_out, c.c_in, c.k}, rng);
    Tensor b = Tensor::randn(Shape{c.c_out}, rng);
    const float* bias = c.with_bias ? b.data() : nullptr;

    // Scalar reference (+ bias via the kernel, ReLU applied after).
    std::vector<float> expected(
        static_cast<std::size_t>(c.n * c.c_out * c.t), 0.0F);
    scalar::conv_forward(x.data(), w.data(), bias, expected.data(), d);
    if (c.relu) {
      for (float& v : expected) {
        v = v > 0.0F ? v : 0.0F;
      }
    }

    std::vector<float> wp(static_cast<std::size_t>(packed_weight_floats(d)));
    pack_conv_weight(w.data(), d, wp.data());
    const ConvPackedF32Fn conv_forward_packed =
        Registry::instance().conv_packed_f32_generic().fn;

    // Dense rows: edge tiles take the clamped path.
    std::vector<float> y_dense(expected.size(), -1.0F);
    conv_forward_packed(x.data(), wp.data(), bias, y_dense.data(), d, c.t,
                        c.t, /*x_padded=*/false, c.relu);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(expected[i], y_dense[i], 1e-4F) << "dense i=" << i;
    }

    // Padded rows: every tile takes the register path; the lead is the
    // materialized causal padding, the slack absorbs tail over-reads.
    const index_t lead = (c.k - 1) * c.dilation;
    const index_t stride = lead + c.t + kPackTimeTile;
    std::vector<float> xp(static_cast<std::size_t>(c.n * c.c_in * stride),
                          0.0F);
    for (index_t r = 0; r < c.n * c.c_in; ++r) {
      std::copy(x.data() + r * c.t, x.data() + (r + 1) * c.t,
                xp.data() + r * stride + lead);
    }
    std::vector<float> y_pad(expected.size(), -1.0F);
    conv_forward_packed(xp.data() + lead, wp.data(), bias, y_pad.data(), d,
                        stride, c.t, /*x_padded=*/true, c.relu);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(expected[i], y_pad[i], 1e-4F) << "padded i=" << i;
    }
  }
}

TEST(LinearForward, MatchesNaiveDotProducts) {
  RandomEngine rng(919);
  const index_t n = 3;
  const index_t f = 70;  // exercises the vector body and the scalar tail
  const index_t o = 5;
  Tensor x = Tensor::randn(Shape{n, f}, rng);
  Tensor w = Tensor::randn(Shape{o, f}, rng);
  Tensor b = Tensor::randn(Shape{o}, rng);
  std::vector<float> y(static_cast<std::size_t>(n * o), -1.0F);
  const LinearF32Fn linear_forward = Registry::instance().linear_f32().fn;
  linear_forward(x.data(), w.data(), b.data(), y.data(), n, f, o,
                 /*relu=*/true);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < o; ++j) {
      float acc = b.data()[j];
      for (index_t p = 0; p < f; ++p) {
        acc += x.data()[i * f + p] * w.data()[j * f + p];
      }
      acc = acc > 0.0F ? acc : 0.0F;
      EXPECT_NEAR(acc, y[static_cast<std::size_t>(i * o + j)], 1e-4F);
    }
  }
}

}  // namespace
}  // namespace pit::nn::kernels
