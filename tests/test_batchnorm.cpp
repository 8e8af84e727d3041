#include "nn/batchnorm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "tensor/error.hpp"
#include "tensor/gradcheck.hpp"
#include "tensor/ops.hpp"

namespace pit::nn {
namespace {

TEST(BatchNorm, NormalizesPerChannelInTraining) {
  BatchNorm1d bn(2);
  RandomEngine rng(83);
  // Channel 0 ~ N(5, 4), channel 1 ~ N(-3, 0.25).
  Tensor x = Tensor::zeros(Shape{16, 2, 10});
  for (index_t n = 0; n < 16; ++n) {
    for (index_t t = 0; t < 10; ++t) {
      x.data()[(n * 2 + 0) * 10 + t] = static_cast<float>(rng.normal(5.0, 2.0));
      x.data()[(n * 2 + 1) * 10 + t] =
          static_cast<float>(rng.normal(-3.0, 0.5));
    }
  }
  Tensor y = bn.forward(x);
  for (index_t c = 0; c < 2; ++c) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (index_t n = 0; n < 16; ++n) {
      for (index_t t = 0; t < 10; ++t) {
        const double v = y.data()[(n * 2 + c) * 10 + t];
        sum += v;
        sum_sq += v * v;
      }
    }
    const double m = sum / 160.0;
    const double var = sum_sq / 160.0 - m * m;
    EXPECT_NEAR(m, 0.0, 1e-4) << "channel " << c;
    EXPECT_NEAR(var, 1.0, 1e-2) << "channel " << c;
  }
}

TEST(BatchNorm, RunningStatsConvergeToDataMoments) {
  BatchNorm1d bn(1, 1e-5F, 0.2F);
  RandomEngine rng(89);
  for (int step = 0; step < 200; ++step) {
    Tensor x = Tensor::zeros(Shape{32, 1, 4});
    for (float& v : x.span()) {
      v = static_cast<float>(rng.normal(7.0, 3.0));
    }
    bn.forward(x);
  }
  EXPECT_NEAR(bn.running_mean().data()[0], 7.0F, 0.3F);
  EXPECT_NEAR(bn.running_var().data()[0], 9.0F, 1.0F);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm1d bn(1);
  // Force known running stats, then check eval output is (x - m)/sqrt(v+eps).
  bn.running_mean().data()[0] = 2.0F;
  bn.running_var().data()[0] = 4.0F;
  bn.eval();
  Tensor x = Tensor::from_vector({6.0F}, Shape{1, 1, 1});
  Tensor y = bn.forward(x);
  EXPECT_NEAR(y.data()[0], (6.0F - 2.0F) / std::sqrt(4.0F + 1e-5F), 1e-5);
}

TEST(BatchNorm, AffineParamsScaleAndShift) {
  BatchNorm1d bn(1);
  bn.eval();
  bn.running_mean().data()[0] = 0.0F;
  bn.running_var().data()[0] = 1.0F;
  bn.gamma().data()[0] = 3.0F;
  bn.beta().data()[0] = -1.0F;
  Tensor x = Tensor::from_vector({2.0F}, Shape{1, 1, 1});
  EXPECT_NEAR(bn.forward(x).data()[0], 3.0F * 2.0F - 1.0F, 1e-4);
}

TEST(BatchNorm, GradcheckTrainingMode) {
  BatchNorm1d bn(3);
  RandomEngine rng(97);
  Tensor x = Tensor::uniform(Shape{4, 3, 5}, -2.0F, 2.0F, rng);
  x.set_requires_grad(true);
  // Check gradients w.r.t. x, gamma, beta through the full training-mode
  // normalization (batch statistics depend on x).
  const auto result = gradcheck(
      [&bn](const std::vector<Tensor>& in) { return bn.forward(in[0]); }, {x},
      {.eps = 1e-2, .atol = 1e-2, .rtol = 8e-2});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(BatchNorm, GradcheckGammaBeta) {
  BatchNorm1d bn(2);
  RandomEngine rng(101);
  Tensor x = Tensor::uniform(Shape{6, 2, 3}, -1.0F, 1.0F, rng);
  // Perturb gamma/beta through the module-held parameters.
  const auto result = gradcheck(
      [&bn, &x](const std::vector<Tensor>&) { return bn.forward(x); },
      {bn.gamma(), bn.beta()});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(BatchNorm, GradcheckEvalMode) {
  BatchNorm1d bn(2);
  bn.eval();
  RandomEngine rng(103);
  Tensor x = Tensor::uniform(Shape{3, 2, 4}, -1.0F, 1.0F, rng);
  x.set_requires_grad(true);
  const auto result = gradcheck(
      [&bn](const std::vector<Tensor>& in) { return bn.forward(in[0]); }, {x});
  EXPECT_TRUE(result.ok) << result.detail;
}

// ---- fused BatchNorm + ReLU ---------------------------------------------

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

/// Values and every gradient of one BatchNorm pass: relu(bn(x)) as two ops
/// or bn.forward_relu(x) as one, from identical modules and inputs.
struct BnRun {
  Tensor y, dx, dgamma, dbeta, running_mean, running_var;
};

BnRun run_bn(bool fused, bool training, const Shape& shape) {
  BatchNorm1d bn(shape.dim(1));
  RandomEngine rng(109);
  for (float& g : bn.gamma().span()) {
    g = static_cast<float>(rng.uniform(0.5, 1.5));
  }
  for (float& b : bn.beta().span()) {
    b = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  for (float& m : bn.running_mean().span()) {
    m = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  if (!training) {
    bn.eval();
  }
  Tensor x = Tensor::uniform(shape, -2.0F, 2.0F, rng);
  x.set_requires_grad(true);
  // A non-uniform upstream gradient, so every element's dy matters.
  const Tensor w = Tensor::uniform(shape, -1.0F, 1.0F, rng);
  Tensor y = fused ? bn.forward_relu(x) : relu(bn.forward(x));
  sum(mul(y, w)).backward();
  return {y.detach(), x.grad(), bn.gamma().grad(), bn.beta().grad(),
          bn.running_mean().clone(), bn.running_var().clone()};
}

TEST(BatchNorm, FusedReluMatchesReluOfBnBitForBit) {
  for (const bool training : {true, false}) {
    // (32, 16, 64) is over the parallel threshold; (3, 4, 5) is not.
    for (const Shape& shape : {Shape{3, 4, 5}, Shape{32, 16, 64},
                               Shape{8, 6}}) {
      const BnRun a = run_bn(false, training, shape);
      const BnRun b = run_bn(true, training, shape);
      const std::string where = std::string(training ? "train " : "eval ") +
                                shape.to_string();
      EXPECT_TRUE(same_bits(a.y, b.y)) << "forward, " << where;
      EXPECT_TRUE(same_bits(a.dx, b.dx)) << "dx, " << where;
      EXPECT_TRUE(same_bits(a.dgamma, b.dgamma)) << "dgamma, " << where;
      EXPECT_TRUE(same_bits(a.dbeta, b.dbeta)) << "dbeta, " << where;
      EXPECT_TRUE(same_bits(a.running_mean, b.running_mean)) << where;
      EXPECT_TRUE(same_bits(a.running_var, b.running_var)) << where;
    }
  }
}

TEST(BatchNorm, FusedReluGradcheck) {
  for (const bool training : {true, false}) {
    BatchNorm1d bn(3);
    if (!training) {
      bn.eval();
    }
    RandomEngine rng(113);
    Tensor x = Tensor::uniform(Shape{4, 3, 5}, -2.0F, 2.0F, rng);
    x.set_requires_grad(true);
    const auto dx = gradcheck(
        [&bn](const std::vector<Tensor>& in) { return bn.forward_relu(in[0]); },
        {x}, {.eps = 1e-3, .atol = 1e-2, .rtol = 8e-2});
    EXPECT_TRUE(dx.ok) << (training ? "train: " : "eval: ") << dx.detail;
    const auto affine = gradcheck(
        [&bn, &x](const std::vector<Tensor>&) { return bn.forward_relu(x); },
        {bn.gamma(), bn.beta()}, {.eps = 1e-3, .atol = 1e-2, .rtol = 8e-2});
    EXPECT_TRUE(affine.ok) << (training ? "train: " : "eval: ")
                           << affine.detail;
  }
}

TEST(BatchNorm, FusedReluKeepsNanVisible) {
  // A NaN input (an unwritten recycled element in Debug and ASan builds)
  // must reach the output through the ReLU, fused or not, in train and
  // eval mode, under and over the parallel gate.
  for (const bool training : {true, false}) {
    for (const Shape& shape : {Shape{4, 3, 8}, Shape{32, 16, 64}}) {
      BatchNorm1d bn(shape[1]);
      if (!training) {
        bn.eval();
      }
      RandomEngine rng(127);
      Tensor x = Tensor::uniform(shape, -2.0F, 2.0F, rng);
      x.data()[shape[2] + 1] = std::nanf("");  // sample 0, channel 1
      for (const bool fused : {false, true}) {
        const Tensor y = fused ? bn.forward_relu(x) : relu(bn.forward(x));
        EXPECT_TRUE(std::isnan(y.data()[shape[2] + 1]))
            << (training ? "train" : "eval") << (fused ? " fused" : "");
        EXPECT_FALSE(std::isnan(y.data()[0]));  // channel 0 is untouched
      }
    }
  }
}

TEST(BatchNorm, UnbackwardedGraphIsFreed) {
  // The node reads its output through the impl it is handed, not by
  // capture, so dropping the output frees the whole graph.
  for (const bool fused : {false, true}) {
    BatchNorm1d bn(4);
    RandomEngine rng(127);
    Tensor x = Tensor::randn(Shape{8, 4, 16}, rng);
    x.set_requires_grad(true);
    std::weak_ptr<TensorImpl> watch;
    {
      Tensor y = fused ? bn.forward_relu(x) : bn.forward(x);
      ASSERT_NE(y.impl()->grad_fn, nullptr);
      watch = y.impl();
    }
    EXPECT_TRUE(watch.expired()) << (fused ? "forward_relu" : "forward");
  }
}

TEST(BatchNorm, Rank2InputSupported) {
  BatchNorm1d bn(4);
  RandomEngine rng(107);
  Tensor x = Tensor::randn(Shape{8, 4}, rng);
  Tensor y = bn.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(BatchNorm, Validation) {
  BatchNorm1d bn(2);
  EXPECT_THROW(bn.forward(Tensor::zeros(Shape{4})), Error);        // rank 1
  EXPECT_THROW(bn.forward(Tensor::zeros(Shape{4, 3, 2})), Error);  // C mismatch
  // Single sample per channel in training mode is degenerate.
  EXPECT_THROW(bn.forward(Tensor::zeros(Shape{1, 2, 1})), Error);
  EXPECT_THROW(BatchNorm1d(0), Error);
}

}  // namespace
}  // namespace pit::nn
