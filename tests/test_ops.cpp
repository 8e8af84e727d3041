// Value- and gradient-level tests for every op in tensor/ops.hpp.
// Every hand-written backward pass is validated against central finite
// differences through the gradcheck utility, including a parameterized
// sweep across shapes.
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "tensor/error.hpp"
#include "tensor/gradcheck.hpp"
#include "tensor/parallel.hpp"

namespace pit {
namespace {

Tensor make_seq(const Shape& shape, float start = 1.0F, float step = 0.5F) {
  Tensor t = Tensor::zeros(shape);
  float v = start;
  for (float& x : t.span()) {
    x = v;
    v += step;
  }
  return t;
}

// ---------------------------------------------------------------- values --

TEST(Ops, AddSubMulDivValues) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, Shape{4});
  Tensor b = Tensor::from_vector({4, 3, 2, 2}, Shape{4});
  EXPECT_FLOAT_EQ(add(a, b).data()[0], 5.0F);
  EXPECT_FLOAT_EQ(sub(a, b).data()[1], -1.0F);
  EXPECT_FLOAT_EQ(mul(a, b).data()[2], 6.0F);
  EXPECT_FLOAT_EQ(div(a, b).data()[3], 2.0F);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a = Tensor::zeros(Shape{2});
  Tensor b = Tensor::zeros(Shape{3});
  EXPECT_THROW(add(a, b), Error);
  EXPECT_THROW(sub(a, b), Error);
  EXPECT_THROW(mul(a, b), Error);
  EXPECT_THROW(div(a, b), Error);
}

TEST(Ops, ScalarOps) {
  Tensor a = Tensor::from_vector({1, -2}, Shape{2});
  EXPECT_FLOAT_EQ(add_scalar(a, 3.0F).data()[1], 1.0F);
  EXPECT_FLOAT_EQ(mul_scalar(a, -2.0F).data()[0], -2.0F);
  EXPECT_FLOAT_EQ(neg(a).data()[1], 2.0F);
}

TEST(Ops, UnaryValues) {
  Tensor a = Tensor::from_vector({-1.0F, 0.0F, 2.0F}, Shape{3});
  EXPECT_FLOAT_EQ(relu(a).data()[0], 0.0F);
  EXPECT_FLOAT_EQ(relu(a).data()[2], 2.0F);
  EXPECT_NEAR(sigmoid(a).data()[1], 0.5F, 1e-6);
  EXPECT_NEAR(tanh_op(a).data()[2], std::tanh(2.0F), 1e-6);
  EXPECT_NEAR(exp_op(a).data()[0], std::exp(-1.0F), 1e-6);
  EXPECT_FLOAT_EQ(abs_op(a).data()[0], 1.0F);
  EXPECT_FLOAT_EQ(square(a).data()[2], 4.0F);
}

TEST(Ops, ReluKeepsNanAndMapsEveryOtherNonPositiveToPositiveZero) {
  // Over the parallel gate and under it: the same element-wise rule.
  for (const index_t count : {index_t{7}, kParallelMinWork + 3}) {
    std::vector<float> in(static_cast<std::size_t>(count));
    const float specials[] = {std::nanf(""), -0.0F, 0.0F, -1.5F, 2.5F,
                              -INFINITY,     INFINITY};
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = i < 7 ? specials[i] : static_cast<float>(i % 11) - 5.0F;
    }
    const Tensor out = relu(Tensor::from_vector(in, Shape{count}));
    for (std::size_t i = 0; i < in.size(); ++i) {
      const float x = in[i];
      const float y = out.data()[i];
      if (std::isnan(x)) {
        EXPECT_TRUE(std::isnan(y)) << i;
      } else if (x > 0.0F) {
        EXPECT_EQ(std::memcmp(&x, &y, sizeof(float)), 0) << i;
      } else {
        EXPECT_EQ(y, 0.0F) << i;
        EXPECT_FALSE(std::signbit(y)) << i;
      }
    }
  }
}

TEST(Ops, LogAndSqrtValues) {
  Tensor a = Tensor::from_vector({1.0F, 4.0F}, Shape{2});
  EXPECT_NEAR(log_op(a).data()[1], std::log(4.0F), 1e-6);
  EXPECT_FLOAT_EQ(sqrt_op(a).data()[1], 2.0F);
}

TEST(Ops, ClampValues) {
  Tensor a = Tensor::from_vector({-2.0F, 0.5F, 3.0F}, Shape{3});
  Tensor c = clamp(a, 0.0F, 1.0F);
  EXPECT_FLOAT_EQ(c.data()[0], 0.0F);
  EXPECT_FLOAT_EQ(c.data()[1], 0.5F);
  EXPECT_FLOAT_EQ(c.data()[2], 1.0F);
  EXPECT_THROW(clamp(a, 1.0F, 0.0F), Error);
}

TEST(Ops, BinarizeForwardIsHeaviside) {
  Tensor a = Tensor::from_vector({0.49F, 0.5F, 0.51F, -1.0F}, Shape{4});
  Tensor b = binarize(a, 0.5F);
  EXPECT_FLOAT_EQ(b.data()[0], 0.0F);
  EXPECT_FLOAT_EQ(b.data()[1], 1.0F);  // threshold maps to 1 (Eq. 2: >=)
  EXPECT_FLOAT_EQ(b.data()[2], 1.0F);
  EXPECT_FLOAT_EQ(b.data()[3], 0.0F);
}

TEST(Ops, BinarizeBackwardIsStraightThrough) {
  Tensor a = Tensor::from_vector({0.2F, 0.8F}, Shape{2});
  a.set_requires_grad(true);
  // sum(3 * binarize(a)): STE passes d/da = 3 regardless of the step.
  sum(mul_scalar(binarize(a, 0.5F), 3.0F)).backward();
  EXPECT_FLOAT_EQ(a.grad().data()[0], 3.0F);
  EXPECT_FLOAT_EQ(a.grad().data()[1], 3.0F);
}

TEST(Ops, UnaryGraphIsFreedWithoutBackward) {
  // A forward that is never backwarded must not outlive its last handle:
  // the backward closure reads the output through the impl it is handed,
  // so there is no impl -> grad_fn -> closure -> impl cycle.
  RandomEngine rng(53);
  Tensor x = Tensor::randn(Shape{16, 32, 64}, rng);
  x.set_requires_grad(true);
  const std::vector<std::function<Tensor(const Tensor&)>> ops = {
      [](const Tensor& a) { return relu(a); },
      [](const Tensor& a) { return sigmoid(a); },
      [](const Tensor& a) { return tanh_op(a); },
      [](const Tensor& a) { return exp_op(a); },
      [](const Tensor& a) { return sqrt_op(square(a)); },
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::weak_ptr<TensorImpl> watch;
    {
      Tensor y = ops[i](x);
      ASSERT_NE(y.impl()->grad_fn, nullptr);
      watch = y.impl();
    }
    EXPECT_TRUE(watch.expired()) << "op " << i;
  }
}

TEST(Ops, UnaryOverParallelThresholdMatchesElementwise) {
  // Above kParallelMinWork the loops are split across threads; every
  // element must still equal its own serial formula exactly.
  RandomEngine rng(59);
  Tensor x = Tensor::randn(Shape{2 * kParallelMinWork + 3}, rng);
  x.set_requires_grad(true);
  Tensor y = sigmoid(x);
  sum(y).backward();
  const Tensor gx = x.grad();
  const float* xd = x.data();
  const float* yd = y.data();
  const float* gd = gx.data();
  for (index_t i = 0; i < x.numel(); ++i) {
    const float want = 1.0F / (1.0F + std::exp(-xd[i]));
    ASSERT_EQ(yd[i], want) << "element " << i;
    ASSERT_EQ(gd[i], 1.0F * (want * (1.0F - want))) << "element " << i;
  }
}

TEST(Ops, SumAndMeanValues) {
  Tensor a = make_seq(Shape{2, 3});  // 1, 1.5, ..., 3.5
  EXPECT_FLOAT_EQ(sum(a).item(), 13.5F);
  EXPECT_FLOAT_EQ(mean(a).item(), 2.25F);
}

TEST(Ops, MatmulValues) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  Tensor b = Tensor::from_vector({7, 8, 9, 10, 11, 12}, Shape{3, 2});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0F);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 64.0F);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 139.0F);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0F);
  EXPECT_THROW(matmul(a, a), Error);
}

TEST(Ops, TransposeValues) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  Tensor t = transpose(a);
  EXPECT_EQ(t.shape(), Shape({3, 2}));
  EXPECT_FLOAT_EQ(t.at({2, 0}), 3.0F);
  EXPECT_FLOAT_EQ(t.at({0, 1}), 4.0F);
}

TEST(Ops, ProdDim0Values) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 0, 6}, Shape{2, 3});
  Tensor p = prod_dim0(a);
  EXPECT_EQ(p.shape(), Shape({3}));
  EXPECT_FLOAT_EQ(p.data()[0], 4.0F);
  EXPECT_FLOAT_EQ(p.data()[1], 0.0F);
  EXPECT_FLOAT_EQ(p.data()[2], 18.0F);
}

TEST(Ops, ProdDim0GradientWithZeros) {
  // Column with one zero: gradient of the zero entry is the product of the
  // others; gradient of non-zero entries is 0. Prefix/suffix handles this.
  Tensor a = Tensor::from_vector({0.0F, 3.0F, 5.0F}, Shape{3, 1});
  a.set_requires_grad(true);
  sum(prod_dim0(a)).backward();
  EXPECT_FLOAT_EQ(a.grad().data()[0], 15.0F);
  EXPECT_FLOAT_EQ(a.grad().data()[1], 0.0F);
  EXPECT_FLOAT_EQ(a.grad().data()[2], 0.0F);
}

TEST(Ops, ReplicateColsValues) {
  Tensor v = Tensor::from_vector({1, 2, 3}, Shape{3});
  Tensor m = replicate_cols(v, 4);
  EXPECT_EQ(m.shape(), Shape({3, 4}));
  for (index_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(m.at({0, c}), 1.0F);
    EXPECT_FLOAT_EQ(m.at({2, c}), 3.0F);
  }
}

TEST(Ops, PrependOneValues) {
  Tensor v = Tensor::from_vector({5, 6}, Shape{2});
  Tensor w = prepend_one(v);
  EXPECT_EQ(w.shape(), Shape({3}));
  EXPECT_FLOAT_EQ(w.data()[0], 1.0F);
  EXPECT_FLOAT_EQ(w.data()[1], 5.0F);
  EXPECT_FLOAT_EQ(w.data()[2], 6.0F);
}

// ------------------------------------------------------------ gradchecks --

using UnaryFactory = std::function<Tensor(const Tensor&)>;

struct UnaryCase {
  const char* name;
  UnaryFactory fn;
  float lo;  // input sampling range, avoids non-differentiable points
  float hi;
};

// Without a printer gtest dumps the raw bytes of UnaryCase, which include
// the load address of `name` and so change from one build to the next; the
// registered test names would then change too.
void PrintTo(const UnaryCase& c, std::ostream* os) {
  *os << c.name << " on [" << c.lo << ", " << c.hi << "]";
}

class UnaryGradcheck : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradcheck, MatchesFiniteDifferences) {
  const UnaryCase& c = GetParam();
  RandomEngine rng(2024);
  Tensor x = Tensor::uniform(Shape{3, 4}, c.lo, c.hi, rng);
  x.set_requires_grad(true);
  const auto result = gradcheck(
      [&c](const std::vector<Tensor>& in) { return c.fn(in[0]); }, {x});
  EXPECT_TRUE(result.ok) << c.name << ": " << result.detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradcheck,
    ::testing::Values(
        UnaryCase{"relu_pos", [](const Tensor& x) { return relu(x); }, 0.2F, 2.0F},
        UnaryCase{"relu_neg", [](const Tensor& x) { return relu(x); }, -2.0F, -0.2F},
        UnaryCase{"sigmoid", [](const Tensor& x) { return sigmoid(x); }, -2.0F, 2.0F},
        UnaryCase{"tanh", [](const Tensor& x) { return tanh_op(x); }, -1.5F, 1.5F},
        UnaryCase{"exp", [](const Tensor& x) { return exp_op(x); }, -1.0F, 1.0F},
        UnaryCase{"log", [](const Tensor& x) { return log_op(x); }, 0.5F, 3.0F},
        UnaryCase{"abs", [](const Tensor& x) { return abs_op(x); }, 0.3F, 2.0F},
        UnaryCase{"square", [](const Tensor& x) { return square(x); }, -2.0F, 2.0F},
        UnaryCase{"sqrt", [](const Tensor& x) { return sqrt_op(x); }, 0.5F, 4.0F},
        UnaryCase{"mul_scalar",
                  [](const Tensor& x) { return mul_scalar(x, -1.7F); }, -2.0F, 2.0F},
        UnaryCase{"add_scalar",
                  [](const Tensor& x) { return add_scalar(x, 0.3F); }, -2.0F, 2.0F},
        UnaryCase{"clamp_inside",
                  [](const Tensor& x) { return clamp(x, -10.0F, 10.0F); }, -2.0F, 2.0F},
        UnaryCase{"mean", [](const Tensor& x) { return mean(x); }, -2.0F, 2.0F},
        UnaryCase{"transpose", [](const Tensor& x) { return transpose(x); }, -2.0F, 2.0F},
        UnaryCase{"reshape",
                  [](const Tensor& x) { return x.reshape(Shape{12}); }, -2.0F, 2.0F}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

TEST(OpsGradcheck, BinaryOps) {
  RandomEngine rng(7);
  for (const char* which : {"add", "sub", "mul", "div"}) {
    Tensor a = Tensor::uniform(Shape{2, 5}, -2.0F, 2.0F, rng);
    Tensor b = Tensor::uniform(Shape{2, 5}, 0.5F, 2.5F, rng);  // b > 0 for div
    a.set_requires_grad(true);
    b.set_requires_grad(true);
    const std::string name = which;
    const auto result = gradcheck(
        [&name](const std::vector<Tensor>& in) {
          if (name == "add") return add(in[0], in[1]);
          if (name == "sub") return sub(in[0], in[1]);
          if (name == "mul") return mul(in[0], in[1]);
          return div(in[0], in[1]);
        },
        {a, b});
    EXPECT_TRUE(result.ok) << name << ": " << result.detail;
  }
}

TEST(OpsGradcheck, Matmul) {
  RandomEngine rng(11);
  Tensor a = Tensor::uniform(Shape{3, 4}, -1.0F, 1.0F, rng);
  Tensor b = Tensor::uniform(Shape{4, 2}, -1.0F, 1.0F, rng);
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  const auto result = gradcheck(
      [](const std::vector<Tensor>& in) { return matmul(in[0], in[1]); },
      {a, b});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(OpsGradcheck, ProdDim0AwayFromZero) {
  RandomEngine rng(13);
  Tensor a = Tensor::uniform(Shape{4, 5}, 0.5F, 1.5F, rng);
  a.set_requires_grad(true);
  const auto result = gradcheck(
      [](const std::vector<Tensor>& in) { return prod_dim0(in[0]); }, {a});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(OpsGradcheck, ReplicateColsAndPrependOne) {
  RandomEngine rng(17);
  Tensor v = Tensor::uniform(Shape{6}, -1.0F, 1.0F, rng);
  v.set_requires_grad(true);
  auto r1 = gradcheck(
      [](const std::vector<Tensor>& in) { return replicate_cols(in[0], 7); },
      {v});
  EXPECT_TRUE(r1.ok) << r1.detail;
  auto r2 = gradcheck(
      [](const std::vector<Tensor>& in) { return prepend_one(in[0]); }, {v});
  EXPECT_TRUE(r2.ok) << r2.detail;
}

TEST(OpsGradcheck, ComposedMaskLikeChain) {
  // The exact op chain used by the PIT mask construction (Eq. 4):
  // replicate -> mul with constant -> add constant -> matmul -> prod_dim0.
  RandomEngine rng(19);
  Tensor gamma = Tensor::uniform(Shape{3}, 0.6F, 0.9F, rng);
  gamma.set_requires_grad(true);
  Tensor t_mat = Tensor::from_vector({1, 1, 1, 1, 1, 0, 1, 0, 0}, Shape{3, 3});
  Tensor ones_minus_t = sub(Tensor::ones(Shape{3, 3}), t_mat);
  Tensor k_mat = Tensor::from_vector({1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1},
                                     Shape{3, 4});
  const auto result = gradcheck(
      [&](const std::vector<Tensor>& in) {
        Tensor a = add(mul(replicate_cols(in[0], 3), t_mat), ones_minus_t);
        return prod_dim0(matmul(a, k_mat));
      },
      {gamma});
  EXPECT_TRUE(result.ok) << result.detail;
}

}  // namespace
}  // namespace pit
