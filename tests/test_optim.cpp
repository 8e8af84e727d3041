#include "nn/optim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "nn/schedule.hpp"
#include "nn/linear.hpp"
#include "tensor/error.hpp"
#include "tensor/ops.hpp"

namespace pit::nn {
namespace {

/// Minimizes f(p) = sum((p - target)^2) and returns the final parameters.
template <typename MakeOpt>
Tensor minimize_quadratic(MakeOpt make_opt, int steps) {
  Tensor p = Tensor::from_vector({5.0F, -3.0F}, Shape{2});
  p.set_requires_grad(true);
  Tensor target = Tensor::from_vector({1.0F, 2.0F}, Shape{2});
  auto opt = make_opt(std::vector<Tensor>{p});
  for (int i = 0; i < steps; ++i) {
    opt->zero_grad();
    Tensor loss = sum(square(sub(p, target)));
    loss.backward();
    opt->step();
  }
  return p;
}

TEST(SGD, ConvergesOnQuadratic) {
  Tensor p = minimize_quadratic(
      [](std::vector<Tensor> params) {
        return std::make_unique<SGD>(std::move(params), 0.1);
      },
      100);
  EXPECT_NEAR(p.data()[0], 1.0F, 1e-3);
  EXPECT_NEAR(p.data()[1], 2.0F, 1e-3);
}

TEST(SGD, MomentumAcceleratesConvergence) {
  Tensor plain = minimize_quadratic(
      [](std::vector<Tensor> params) {
        return std::make_unique<SGD>(std::move(params), 0.01);
      },
      40);
  Tensor momentum = minimize_quadratic(
      [](std::vector<Tensor> params) {
        return std::make_unique<SGD>(std::move(params), 0.01, 0.9);
      },
      40);
  const float err_plain = std::abs(plain.data()[0] - 1.0F);
  const float err_momentum = std::abs(momentum.data()[0] - 1.0F);
  EXPECT_LT(err_momentum, err_plain);
}

TEST(SGD, WeightDecayShrinksWeights) {
  Tensor p = Tensor::from_vector({1.0F}, Shape{1});
  p.set_requires_grad(true);
  SGD opt({p}, 0.1, 0.0, 0.5);
  // Zero task gradient: only decay acts; p <- p - lr*wd*p.
  opt.zero_grad();
  opt.step();
  EXPECT_NEAR(p.data()[0], 1.0F - 0.1F * 0.5F, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
  Tensor p = minimize_quadratic(
      [](std::vector<Tensor> params) {
        return std::make_unique<Adam>(std::move(params), 0.1);
      },
      300);
  EXPECT_NEAR(p.data()[0], 1.0F, 5e-3);
  EXPECT_NEAR(p.data()[1], 2.0F, 5e-3);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  // With bias correction, the very first Adam update is ~lr * sign(grad).
  Tensor p = Tensor::from_vector({0.0F}, Shape{1});
  p.set_requires_grad(true);
  Adam opt({p}, 0.5);
  opt.zero_grad();
  sum(mul_scalar(p, 3.0F)).backward();  // grad = 3
  opt.step();
  EXPECT_NEAR(p.data()[0], -0.5F, 1e-4);
}

TEST(Optimizer, ZeroGradResetsAccumulation) {
  Tensor p = Tensor::from_vector({1.0F}, Shape{1});
  p.set_requires_grad(true);
  SGD opt({p}, 0.0);
  sum(p).backward();
  sum(p).backward();
  EXPECT_FLOAT_EQ(p.grad().item(), 2.0F);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(p.grad().item(), 0.0F);
}

TEST(Optimizer, ParamWithNeverTouchedGradIsStable) {
  // A parameter that never saw backward has an all-zero gradient; stepping
  // must leave it unchanged (modulo weight decay = 0).
  Tensor p = Tensor::from_vector({2.5F}, Shape{1});
  p.set_requires_grad(true);
  Adam opt({p}, 0.1);
  opt.step();
  EXPECT_FLOAT_EQ(p.data()[0], 2.5F);
}

TEST(StepLR, DecaysOnSchedule) {
  Tensor p = Tensor::from_vector({0.0F}, Shape{1});
  p.set_requires_grad(true);
  SGD opt({p}, 1.0);
  StepLR sched(opt, 2, 0.5);
  sched.step();
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 1.0);
  sched.step();
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.5);
  sched.step();
  sched.step();
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.25);
}

TEST(EarlyStopping, StopsAfterPatienceStaleEpochs) {
  RandomEngine rng(181);
  Linear model(2, 1, true, rng);
  EarlyStopping es(3);
  EXPECT_TRUE(es.observe(1.0, model));
  EXPECT_FALSE(es.observe(1.1, model));
  EXPECT_FALSE(es.observe(1.2, model));
  EXPECT_FALSE(es.should_stop());
  EXPECT_FALSE(es.observe(1.3, model));
  EXPECT_TRUE(es.should_stop());
  EXPECT_DOUBLE_EQ(es.best_metric(), 1.0);
}

TEST(EarlyStopping, ImprovementResetsCounter) {
  RandomEngine rng(191);
  Linear model(2, 1, true, rng);
  EarlyStopping es(2);
  es.observe(1.0, model);
  es.observe(1.5, model);
  EXPECT_EQ(es.stale_epochs(), 1);
  es.observe(0.5, model);
  EXPECT_EQ(es.stale_epochs(), 0);
}

TEST(EarlyStopping, RestoreBestRecoversSnapshottedWeights) {
  RandomEngine rng(193);
  Linear model(2, 1, true, rng);
  EarlyStopping es(5);
  const float best_w0 = model.weight().data()[0];
  es.observe(1.0, model);  // snapshot taken here
  model.weight().data()[0] = 123.0F;
  es.observe(2.0, model);  // worse: no snapshot
  es.restore_best(model);
  EXPECT_FLOAT_EQ(model.weight().data()[0], best_w0);
}

TEST(EarlyStopping, MinDeltaIgnoresTinyImprovements) {
  RandomEngine rng(197);
  Linear model(2, 1, true, rng);
  EarlyStopping es(2, 0.1);
  es.observe(1.0, model);
  EXPECT_FALSE(es.observe(0.95, model));  // within min_delta: stale
  EXPECT_EQ(es.stale_epochs(), 1);
}

TEST(EarlyStopping, NanMetricCountsAsStale) {
  RandomEngine rng(199);
  Linear model(2, 1, true, rng);
  EarlyStopping es(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(es.observe(nan, model));
  EXPECT_EQ(es.stale_epochs(), 1);
  EXPECT_FALSE(es.observe(nan, model));
  EXPECT_TRUE(es.should_stop());
  EXPECT_TRUE(std::isinf(es.best_metric()));  // NaN never became "best"
}

TEST(EarlyStopping, RestoreBestWorksWhenEveryEpochDiverged) {
  RandomEngine rng(211);
  Linear model(2, 1, true, rng);
  EarlyStopping es(3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const float w0 = model.weight().data()[0];
  es.observe(nan, model);  // first observation still snapshots
  model.weight().data()[0] = 77.0F;
  es.observe(nan, model);
  es.restore_best(model);  // must not throw despite no improvement ever
  EXPECT_FLOAT_EQ(model.weight().data()[0], w0);
}

TEST(EarlyStopping, RealImprovementAfterNanIsAnImprovement) {
  RandomEngine rng(223);
  Linear model(2, 1, true, rng);
  EarlyStopping es(5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(es.observe(nan, model));
  EXPECT_TRUE(es.observe(1.5, model));
  EXPECT_EQ(es.stale_epochs(), 0);
  EXPECT_DOUBLE_EQ(es.best_metric(), 1.5);
}

TEST(EarlyStopping, MetricOnlyObserveStopsOnTheSameEpochs) {
  // PIT's pruning phase tracks its validation loss without snapshots; it
  // must stop on exactly the epochs the snapshotting form would.
  RandomEngine rng(227);
  Linear model(2, 1, true, rng);
  EarlyStopping with_model(3, 0.05);
  EarlyStopping metric_only(3, 0.05);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double metric : {nan, 2.0, 1.98, 1.5, nan, 1.6, 1.2, 1.3, 1.4,
                              1.19, 1.25}) {
    EXPECT_EQ(metric_only.observe(metric), with_model.observe(metric, model));
    EXPECT_EQ(metric_only.stale_epochs(), with_model.stale_epochs());
    EXPECT_EQ(metric_only.should_stop(), with_model.should_stop());
    EXPECT_DOUBLE_EQ(metric_only.best_metric(), with_model.best_metric());
  }
  EXPECT_TRUE(metric_only.should_stop());
  EXPECT_THROW(metric_only.restore_best(model), Error);  // nothing kept
}

}  // namespace
}  // namespace pit::nn
