// Frozen inference runtime: arena liveness planning, batch-norm folding,
// and end-to-end parity of compiled plans against Module::forward (eval).
#include "runtime/compile_models.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/pit_conv1d.hpp"
#include "models/restcn.hpp"
#include "models/temponet.hpp"
#include "runtime/arena.hpp"
#include "tensor/error.hpp"

namespace pit::runtime {
namespace {

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0F;
  for (index_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

// ---- Arena planner -------------------------------------------------------

bool ranges_overlap(index_t off_a, index_t size_a, index_t off_b,
                    index_t size_b) {
  return off_a < off_b + size_b && off_b < off_a + size_a;
}

TEST(ArenaPlanner, OverlappingLifetimesNeverShareMemory) {
  // A mixed bag: chains, long-lived residuals, and same-start pairs.
  const std::vector<ArenaRequest> requests = {
      {64, 0, 1}, {32, 1, 2},  {64, 2, 3},  {16, 0, 5}, {32, 3, 4},
      {8, 4, 5},  {128, 5, 7}, {64, 6, 10}, {64, 7, 9}, {16, 8, 9},
  };
  const ArenaPlan plan = plan_arena(requests);
  ASSERT_EQ(plan.offsets.size(), requests.size());
  index_t sum = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    sum += requests[i].size;
    EXPECT_LE(plan.offsets[i] + requests[i].size, plan.total);
    for (std::size_t j = i + 1; j < requests.size(); ++j) {
      const bool live_overlap = requests[i].start <= requests[j].end &&
                                requests[j].start <= requests[i].end;
      if (live_overlap) {
        EXPECT_FALSE(ranges_overlap(plan.offsets[i], requests[i].size,
                                    plan.offsets[j], requests[j].size))
            << "requests " << i << " and " << j << " share memory";
      }
    }
  }
  EXPECT_LE(plan.total, sum);
}

TEST(ArenaPlanner, DisjointLifetimesReuseMemory) {
  const ArenaPlan plan = plan_arena({{100, 0, 1}, {100, 2, 3}});
  EXPECT_EQ(plan.total, 100);
  EXPECT_EQ(plan.offsets[0], plan.offsets[1]);
}

TEST(ArenaPlanner, ChainPingPongsBetweenTwoSlots) {
  // a -> b -> c -> d: at any op only two activations are live.
  const ArenaPlan plan =
      plan_arena({{10, 0, 1}, {10, 1, 2}, {10, 2, 3}, {10, 3, 4}});
  EXPECT_EQ(plan.total, 20);
}

TEST(ArenaPlanner, RejectsBadRequests) {
  EXPECT_THROW(plan_arena({{0, 0, 1}}), Error);
  EXPECT_THROW(plan_arena({{4, 3, 1}}), Error);
}

// ---- Folding and single-op parity ----------------------------------------

void randomize_bn_stats(nn::BatchNorm1d& bn, RandomEngine& rng) {
  for (index_t c = 0; c < bn.num_features(); ++c) {
    bn.gamma().data()[c] = static_cast<float>(rng.uniform(0.5, 1.5));
    bn.beta().data()[c] = static_cast<float>(rng.uniform(-1.0, 1.0));
    bn.running_mean().data()[c] = static_cast<float>(rng.uniform(-2.0, 2.0));
    bn.running_var().data()[c] = static_cast<float>(rng.uniform(0.2, 2.0));
  }
}

TEST(FoldBatchnorm, MatchesEvalModeConvBnForward) {
  RandomEngine rng(601);
  nn::Conv1d conv(3, 4, 3, {.dilation = 2, .stride = 1, .bias = true}, rng);
  nn::BatchNorm1d bn(4);
  randomize_bn_stats(bn, rng);
  bn.eval();

  FrozenConv frozen = freeze_conv(conv);
  fold_batchnorm(frozen, bn);
  NetBuilder b;
  ValueId x = b.input(3, 20);
  const CompiledPlan plan = std::move(b).compile(b.conv(x, frozen, false));
  ExecutionContext ctx;

  Tensor in = Tensor::randn(Shape{2, 3, 20}, rng);
  Tensor expected = bn.forward(conv.forward(in));
  EXPECT_LT(max_abs_diff(plan.forward(in, ctx), expected), 1e-5F);
}

TEST(FoldBatchnorm, MaterializesBiasOnBiaslessConv) {
  RandomEngine rng(607);
  nn::Conv1d conv(2, 3, 3, {.dilation = 1, .stride = 1, .bias = false}, rng);
  nn::BatchNorm1d bn(3);
  randomize_bn_stats(bn, rng);
  bn.eval();

  FrozenConv frozen = freeze_conv(conv);
  ASSERT_TRUE(frozen.bias.empty());
  fold_batchnorm(frozen, bn);
  ASSERT_EQ(frozen.bias.size(), 3u);

  NetBuilder b;
  ValueId x = b.input(2, 12);
  const CompiledPlan plan = std::move(b).compile(b.conv(x, frozen, false));
  ExecutionContext ctx;
  Tensor in = Tensor::randn(Shape{1, 2, 12}, rng);
  Tensor expected = bn.forward(conv.forward(in));
  EXPECT_LT(max_abs_diff(plan.forward(in, ctx), expected), 1e-5F);
}

TEST(CompiledConv, StridedDilatedParity) {
  RandomEngine rng(613);
  nn::Conv1d conv(2, 5, 4, {.dilation = 3, .stride = 2, .bias = true}, rng);
  NetBuilder b;
  ValueId x = b.input(2, 31);
  const CompiledPlan plan =
      std::move(b).compile(b.conv(x, freeze_conv(conv), false));
  ExecutionContext ctx;
  Tensor in = Tensor::randn(Shape{3, 2, 31}, rng);
  EXPECT_LT(max_abs_diff(plan.forward(in, ctx), conv.forward(in)), 1e-6F);
}

TEST(FreezeTemporalConv, RejectsUnsupportedModules) {
  nn::BatchNorm1d bn(4);
  EXPECT_THROW(freeze_temporal_conv(bn), Error);
}

// ---- Whole-model parity ---------------------------------------------------

models::TempoNetConfig small_temponet_config() {
  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;
  return cfg;
}

TEST(CompiledTempoNet, MatchesModuleForwardFromDilatedConvs) {
  RandomEngine rng(617);
  const auto cfg = small_temponet_config();
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}), rng);
  // Make the batch-norm running statistics non-trivial before compiling.
  model.train();
  model.forward(Tensor::randn(Shape{8, 4, 64}, rng));
  model.eval();

  const auto plan = compile_plan(model);
  ExecutionContext ctx;
  Tensor x = Tensor::randn(Shape{5, 4, 64}, rng);
  EXPECT_LT(max_abs_diff(plan->forward(x, ctx), model.forward(x)), 1e-4F);
}

TEST(CompiledTempoNet, MatchesModuleForwardFromFrozenPitLayers) {
  RandomEngine rng(619);
  const auto cfg = small_temponet_config();
  std::vector<core::PITConv1d*> layers;
  models::TempoNet model(cfg, core::pit_conv_factory(rng, layers), rng);
  const std::vector<index_t> dilations = {2, 4, 1, 8, 2, 16, 16};
  for (std::size_t i = 0; i < layers.size(); ++i) {
    layers[i]->gamma().set_dilation(dilations[i]);
    layers[i]->freeze_gamma();
  }
  model.train();
  model.forward(Tensor::randn(Shape{8, 4, 64}, rng));
  model.eval();

  const auto plan = compile_plan(model);
  ExecutionContext ctx;
  Tensor x = Tensor::randn(Shape{4, 4, 64}, rng);
  EXPECT_LT(max_abs_diff(plan->forward(x, ctx), model.forward(x)), 1e-4F);
}

models::ResTcnConfig small_restcn_config() {
  models::ResTcnConfig cfg;
  cfg.input_channels = 6;
  cfg.output_channels = 6;
  cfg.hidden_channels = 8;
  return cfg;
}

TEST(CompiledResTcn, MatchesModuleForwardFromDilatedConvs) {
  RandomEngine rng(631);
  const auto cfg = small_restcn_config();
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 2, 4, 8, 16, 2, 1, 32}),
      rng);
  model.eval();
  const auto plan = compile_plan(model, 24);
  ExecutionContext ctx;
  Tensor x = Tensor::randn(Shape{3, 6, 24}, rng);
  EXPECT_LT(max_abs_diff(plan->forward(x, ctx), model.forward(x)), 1e-5F);
}

TEST(CompiledResTcn, MatchesModuleForwardFromFrozenPitLayers) {
  RandomEngine rng(641);
  const auto cfg = small_restcn_config();
  std::vector<core::PITConv1d*> layers;
  models::ResTCN model(cfg, core::pit_conv_factory(rng, layers), rng);
  const std::vector<index_t> dilations = {1, 2, 4, 8, 16, 2, 1, 32};
  for (std::size_t i = 0; i < layers.size(); ++i) {
    layers[i]->gamma().set_dilation(dilations[i]);
    layers[i]->freeze_gamma();
  }
  model.eval();
  const auto plan = compile_plan(model, 20);
  ExecutionContext ctx;
  Tensor x = Tensor::randn(Shape{2, 6, 20}, rng);
  EXPECT_LT(max_abs_diff(plan->forward(x, ctx), model.forward(x)), 1e-4F);
}

// ---- Runtime invariants ----------------------------------------------------

TEST(CompiledNet, ServesEveryBatchSizeFromOnePlan) {
  RandomEngine rng(643);
  const auto cfg = small_temponet_config();
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}), rng);
  model.train();
  model.forward(Tensor::randn(Shape{8, 4, 64}, rng));
  model.eval();
  const auto plan = compile_plan(model);
  ExecutionContext ctx;
  // Grow, shrink, grow again: offsets are planned per sample and scaled.
  for (const index_t n : {index_t{4}, index_t{1}, index_t{6}}) {
    Tensor x = Tensor::randn(Shape{n, 4, 64}, rng);
    EXPECT_LT(max_abs_diff(plan->forward(x, ctx), model.forward(x)), 1e-4F)
        << "batch " << n;
  }
}

TEST(CompiledNet, RepeatedForwardIsBitwiseStable) {
  RandomEngine rng(647);
  const auto cfg = small_restcn_config();
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 1, 2, 2, 4, 4, 8, 8}), rng);
  model.eval();
  const auto plan = compile_plan(model, 16);
  ExecutionContext ctx;
  Tensor x = Tensor::randn(Shape{2, 6, 16}, rng);
  Tensor a = plan->forward(x, ctx);
  Tensor b = plan->forward(x, ctx);  // arena reuse must leave no residue
  ASSERT_EQ(a.numel(), b.numel());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
}

TEST(CompiledNet, ArenaIsSmallerThanUnplannedActivations) {
  RandomEngine rng(653);
  const auto cfg = small_temponet_config();
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}), rng);
  model.eval();
  const auto plan = compile_plan(model);
  EXPECT_LT(plan->arena_floats_per_sample(),
            plan->activation_floats_per_sample());
  EXPECT_GT(plan->param_floats(), 0);
  const std::string text = plan->summary();
  EXPECT_NE(text.find("conv"), std::string::npos);
  EXPECT_NE(text.find("linear"), std::string::npos);
}

TEST(CompiledNet, RejectsWrongInputShape) {
  RandomEngine rng(659);
  const auto cfg = small_restcn_config();
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 1, 2, 2, 4, 4, 8, 8}), rng);
  const auto plan = compile_plan(model, 16);
  ExecutionContext ctx;
  EXPECT_THROW(plan->forward(Tensor::randn(Shape{2, 6, 17}, rng), ctx),
               Error);
  EXPECT_THROW(plan->forward(Tensor::randn(Shape{2, 5, 16}, rng), ctx),
               Error);
}

}  // namespace
}  // namespace pit::runtime
