// Static plan verification (runtime/verify.hpp): the paper networks'
// plans verify clean, every seeded corruption (tests/plan_mutator.hpp) is
// rejected with a diagnostic anchored to the violated invariant, randomized
// plan graphs survive compile -> verify -> execute, and the arena planner's
// final-pass overlap sweep rejects corrupted assignments.
#include "runtime/verify.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "models/restcn.hpp"
#include "models/temponet.hpp"
#include "plan_mutator.hpp"
#include "runtime/arena.hpp"
#include "runtime/compile_models.hpp"
#include "runtime/quantize_plan.hpp"
#include "tensor/error.hpp"

namespace pit::runtime {
namespace {

using analysis::Invariant;
using analysis::Report;
using analysis::verify_plan;

models::TempoNetConfig small_temponet_config() {
  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;
  return cfg;
}

std::shared_ptr<const CompiledPlan> temponet_plan(RandomEngine& rng) {
  models::TempoNet model(small_temponet_config(),
                         models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}),
                         rng);
  model.eval();
  return compile_plan(model);
}

std::shared_ptr<const CompiledPlan> restcn_plan(RandomEngine& rng,
                                                index_t steps) {
  models::ResTcnConfig cfg;
  cfg.input_channels = 6;
  cfg.output_channels = 5;
  cfg.hidden_channels = 10;
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 2, 4, 8, 16, 2, 1, 32}),
      rng);
  model.eval();
  return compile_plan(model, steps);
}

data::TensorDataset random_dataset(index_t count, index_t channels,
                                   index_t steps, RandomEngine& rng) {
  std::vector<Tensor> inputs;
  std::vector<Tensor> targets;
  for (index_t i = 0; i < count; ++i) {
    inputs.push_back(Tensor::randn(Shape{channels, steps}, rng));
    targets.push_back(Tensor::zeros(Shape{1}));
  }
  return data::TensorDataset(std::move(inputs), std::move(targets));
}

std::shared_ptr<const CompiledPlan> quantized_restcn_plan(RandomEngine& rng,
                                                          index_t steps) {
  const auto plan = restcn_plan(rng, steps);
  data::TensorDataset dataset = random_dataset(12, 6, steps, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  return quantize_plan(*plan, loader);
}

/// Applies one mutation to a private copy of `base` and asserts the
/// verifier rejects it with at least one issue of the expected invariant —
/// not merely that it fails somehow.
void expect_rejected(const CompiledPlan& base, bool (*mutate)(CompiledPlan&),
                     Invariant want) {
  CompiledPlan copy(base);
  ASSERT_TRUE(mutate(copy)) << "mutation found no site to corrupt";
  const Report report = verify_plan(copy);
  EXPECT_FALSE(report.ok()) << "corrupted plan verified clean";
  EXPECT_TRUE(report.has(want))
      << "expected an issue of invariant '" << analysis::invariant_name(want)
      << "', report:\n"
      << report.to_string();
}

// ---- Paper plans verify clean ---------------------------------------------

TEST(PlanVerify, TempoNetPlanVerifiesClean) {
  RandomEngine rng(1201);
  const auto plan = temponet_plan(rng);
  const Report report = verify_plan(*plan);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(PlanVerify, ResTcnPlanVerifiesClean) {
  RandomEngine rng(1203);
  const auto plan = restcn_plan(rng, 31);
  const Report report = verify_plan(*plan);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(plan->streamable());
}

TEST(PlanVerify, StreamBackbonePlanVerifiesClean) {
  RandomEngine rng(1207);
  models::TempoNet model(small_temponet_config(),
                         models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}),
                         rng);
  model.eval();
  const auto plan = compile_stream_backbone(model, 64);
  const Report report = verify_plan(*plan);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(PlanVerify, QuantizedPlansVerifyClean) {
  RandomEngine rng(1213);
  const auto qplan = quantized_restcn_plan(rng, 31);
  ASSERT_TRUE(qplan->quantized());
  const Report report = verify_plan(*qplan);
  EXPECT_TRUE(report.ok()) << report.to_string();

  models::TempoNet model(small_temponet_config(),
                         models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}),
                         rng);
  model.eval();
  data::TensorDataset dataset = random_dataset(12, 4, 64, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  const auto qtempo = compile_quantized(model, loader);
  const Report treport = verify_plan(*qtempo);
  EXPECT_TRUE(treport.ok()) << treport.to_string();
}

// ---- Structured diagnostics and the throw/toggle surface ------------------

TEST(PlanVerify, IssuesCarryStructuredDiagnostics) {
  RandomEngine rng(1217);
  const auto plan = restcn_plan(rng, 31);
  CompiledPlan copy(*plan);
  ASSERT_TRUE(PlanMutator::overlap_offsets<float>(copy));
  const Report report = verify_plan(copy);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const analysis::Issue& issue : report.issues) {
    if (issue.invariant != Invariant::kArenaOverlap) {
      continue;
    }
    found = true;
    EXPECT_GE(issue.value, 0);                // anchored to a storage root
    EXPECT_LT(issue.lo, issue.hi);            // a real byte/float range
    EXPECT_FALSE(issue.message.empty());
    const std::string text = issue.to_string();
    EXPECT_NE(text.find("arena-overlap"), std::string::npos) << text;
  }
  EXPECT_TRUE(found) << report.to_string();
}

TEST(PlanVerify, VerifyOrThrowRaisesOnCorruptPlan) {
  RandomEngine rng(1223);
  const auto plan = restcn_plan(rng, 31);
  CompiledPlan copy(*plan);
  ASSERT_TRUE(PlanMutator::shrink_arena<float>(copy));
  EXPECT_THROW(analysis::verify_or_throw(copy, "test"), pit::Error);
}

TEST(PlanVerify, SetVerifyEnabledSuppressesTheThrow) {
  RandomEngine rng(1229);
  const auto plan = restcn_plan(rng, 31);
  CompiledPlan copy(*plan);
  ASSERT_TRUE(PlanMutator::shrink_arena<float>(copy));
  const bool prev = analysis::set_verify_enabled(false);
  EXPECT_TRUE(prev);  // on by default
  EXPECT_NO_THROW(analysis::verify_or_throw(copy, "test"));
  analysis::set_verify_enabled(prev);
  EXPECT_THROW(analysis::verify_or_throw(copy, "test"), pit::Error);
  // verify_plan() itself is never gated — only the construction-site hook.
  EXPECT_FALSE(verify_plan(copy).ok());
}

// ---- Seeded corruptions, each pinned to its invariant ---------------------

class PlanMutation : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RandomEngine rng(1231);
    fp32_ = restcn_plan(rng, 31);
    RandomEngine qrng(1237);
    quant_ = quantized_restcn_plan(qrng, 31);
    RandomEngine trng(1249);
    tempo_ = temponet_plan(trng);
  }
  static void TearDownTestSuite() {
    fp32_.reset();
    quant_.reset();
    tempo_.reset();
  }

  static std::shared_ptr<const CompiledPlan> fp32_;   // streamable fp32
  static std::shared_ptr<const CompiledPlan> quant_;  // streamable int8
  static std::shared_ptr<const CompiledPlan> tempo_;  // pool + linear head
};

std::shared_ptr<const CompiledPlan> PlanMutation::fp32_;
std::shared_ptr<const CompiledPlan> PlanMutation::quant_;
std::shared_ptr<const CompiledPlan> PlanMutation::tempo_;

TEST_F(PlanMutation, OverlappingArenaOffsetsRejected) {
  expect_rejected(*fp32_, PlanMutator::overlap_offsets<float>,
                  Invariant::kArenaOverlap);
  expect_rejected(*tempo_, PlanMutator::overlap_offsets<float>,
                  Invariant::kArenaOverlap);
}

TEST_F(PlanMutation, ShrunkenArenaRejected) {
  expect_rejected(*fp32_, PlanMutator::shrink_arena<float>,
                  Invariant::kArenaOverlap);
}

TEST_F(PlanMutation, TruncatedCausalLeadRejected) {
  expect_rejected(*fp32_, PlanMutator::truncate_lead<float>,
                  Invariant::kFootprint);
}

TEST_F(PlanMutation, CorruptRowStrideRejected) {
  expect_rejected(*fp32_, PlanMutator::corrupt_stride<float>,
                  Invariant::kLayout);
}

TEST_F(PlanMutation, ParamOffsetPastPoolRejected) {
  expect_rejected(*fp32_, PlanMutator::overflow_param_offset,
                  Invariant::kParamPool);
  expect_rejected(*tempo_, PlanMutator::overflow_param_offset,
                  Invariant::kParamPool);
}

TEST_F(PlanMutation, NulledConvBindingRejected) {
  expect_rejected(*fp32_, PlanMutator::null_conv_binding,
                  Invariant::kBinding);
}

TEST_F(PlanMutation, SwappedConvBindingsRejected) {
  expect_rejected(*fp32_, PlanMutator::swap_conv_bindings,
                  Invariant::kBinding);
}

TEST_F(PlanMutation, CorruptStepBindingRejected) {
  expect_rejected(*fp32_, PlanMutator::corrupt_step_binding,
                  Invariant::kBinding);
}

TEST_F(PlanMutation, ShrunkenStreamRingRejected) {
  expect_rejected(*fp32_, PlanMutator::shrink_ring<float>, Invariant::kRing);
}

TEST_F(PlanMutation, CorruptStepVectorOffsetRejected) {
  expect_rejected(*fp32_, PlanMutator::corrupt_vec_off<float>,
                  Invariant::kRing);
}

TEST_F(PlanMutation, ZeroQuantScaleRejected) {
  expect_rejected(*quant_, PlanMutator::zero_quant_scale,
                  Invariant::kQuantParams);
}

TEST_F(PlanMutation, CorruptRequantClampRejected) {
  expect_rejected(*quant_, PlanMutator::corrupt_out_lo,
                  Invariant::kQuantParams);
}

TEST_F(PlanMutation, QuantWeightOffsetPastPoolRejected) {
  expect_rejected(*quant_, PlanMutator::overflow_qweight_offset,
                  Invariant::kParamPool);
}

TEST_F(PlanMutation, OverlappingByteArenaOffsetsRejected) {
  expect_rejected(*quant_, PlanMutator::overlap_offsets<std::uint8_t>,
                  Invariant::kArenaOverlap);
}

TEST_F(PlanMutation, ShrunkenQuantRingRejected) {
  expect_rejected(*quant_, PlanMutator::shrink_ring<std::uint8_t>,
                  Invariant::kRing);
}

// The u8 program shares the fp32 program's layout shape, so every layout
// corruption above has a byte-arena twin the same checks must reject.

TEST_F(PlanMutation, ShrunkenByteArenaRejected) {
  expect_rejected(*quant_, PlanMutator::shrink_arena<std::uint8_t>,
                  Invariant::kArenaOverlap);
}

TEST_F(PlanMutation, TruncatedZeroPointLeadRejected) {
  expect_rejected(*quant_, PlanMutator::truncate_lead<std::uint8_t>,
                  Invariant::kFootprint);
}

TEST_F(PlanMutation, CorruptByteRowStrideRejected) {
  expect_rejected(*quant_, PlanMutator::corrupt_stride<std::uint8_t>,
                  Invariant::kLayout);
}

TEST_F(PlanMutation, CorruptQuantStepVectorOffsetRejected) {
  expect_rejected(*quant_, PlanMutator::corrupt_vec_off<std::uint8_t>,
                  Invariant::kRing);
}


TEST_F(PlanMutation, SwappedQuantBindingRejected) {
  expect_rejected(*quant_, PlanMutator::swap_quant_binding,
                  Invariant::kBinding);
}

TEST_F(PlanMutation, UnmutatedCopiesStillVerifyClean) {
  // The mutation helper works on copies; prove the shared originals were
  // never touched (a mutation leaking through the copy would poison every
  // other case in this suite).
  EXPECT_TRUE(verify_plan(*fp32_).ok());
  EXPECT_TRUE(verify_plan(*quant_).ok());
  EXPECT_TRUE(verify_plan(*tempo_).ok());
}

// ---- Randomized plan graphs: compile -> verify -> execute -----------------

TEST(PlanFuzz, RandomGraphsCompileVerifyAndExecute) {
  RandomEngine rng(1259);
  constexpr int kGraphs = 200;
  for (int g = 0; g < kGraphs; ++g) {
    std::mt19937 gen(static_cast<unsigned>(7919 * g + 13));
    const auto pick = [&](int lo, int hi) {
      return lo + static_cast<int>(gen() % static_cast<unsigned>(hi - lo + 1));
    };

    const auto c0 = static_cast<index_t>(pick(1, 6));
    const auto t0 = static_cast<index_t>(2 * pick(6, 24));  // even steps
    NetBuilder b;
    ValueId cur = b.input(c0, t0);
    index_t cur_c = c0;
    index_t cur_t = t0;

    const int depth = pick(1, 4);
    for (int l = 0; l < depth; ++l) {
      const auto k = static_cast<index_t>(pick(1, 9));
      const auto d = static_cast<index_t>(pick(1, 4));
      const auto co = static_cast<index_t>(pick(1, 8));
      nn::Conv1d conv(cur_c, co, k,
                      {.dilation = d, .stride = 1, .bias = pick(0, 1) == 0},
                      rng);
      const bool relu = pick(0, 1) == 0;
      if (pick(0, 3) == 0) {
        // Residual block: main conv + pointwise projection, joined by add.
        nn::Conv1d proj(cur_c, co, 1,
                        {.dilation = 1, .stride = 1, .bias = false}, rng);
        ValueId h = b.conv(cur, freeze_conv(conv), relu);
        ValueId r = b.conv(cur, freeze_conv(proj), /*fuse_relu=*/false);
        cur = b.add(h, r, pick(0, 1) == 0);
      } else {
        cur = b.conv(cur, freeze_conv(conv), relu);
      }
      cur_c = co;
    }
    if (pick(0, 2) == 0) {
      cur = b.avg_pool(cur, 2, 2);
      cur_t = (cur_t - 2) / 2 + 1;
    }
    if (pick(0, 2) == 0) {
      cur = b.flatten(cur);
      const index_t features = cur_c * cur_t;
      const auto out = static_cast<index_t>(pick(1, 5));
      cur = b.linear(cur, Tensor::randn(Shape{out, features}, rng),
                     Tensor::randn(Shape{out}, rng), /*fuse_relu=*/false);
    }

    // compile() already runs verify_or_throw on its result; re-verify
    // explicitly so a failure reports the full structured diagnostics.
    const auto plan =
        std::make_shared<const CompiledPlan>(std::move(b).compile(cur));
    const Report report = verify_plan(*plan);
    ASSERT_TRUE(report.ok()) << "graph #" << g << ":\n" << report.to_string();

    ExecutionContext ctx;
    const auto n = static_cast<index_t>(pick(1, 3));
    const Tensor x = Tensor::randn(Shape{n, c0, t0}, rng);
    const Tensor y = plan->forward(x, ctx);
    for (index_t i = 0; i < y.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(y.data()[i]))
          << "graph #" << g << " produced a non-finite output";
    }
  }
}

// ---- Arena planner final-pass sweep ---------------------------------------

TEST(ArenaPlanner, CheckAcceptsPlannerOutput) {
  const std::vector<ArenaRequest> reqs = {
      {8, 0, 2}, {8, 1, 3}, {4, 2, 4}, {8, 4, 5}, {2, 5, 5},
  };
  const ArenaPlan plan = plan_arena(reqs);  // self-checks internally too
  EXPECT_NO_THROW(check_arena_plan(reqs, plan));
}

TEST(ArenaPlanner, CheckRejectsAliasedOffsets) {
  const std::vector<ArenaRequest> reqs = {{8, 0, 2}, {8, 1, 3}, {8, 4, 5}};
  ArenaPlan bad = plan_arena(reqs);
  // Requests 0 and 1 are live together at op 1..2; forcing them onto one
  // offset must trip the sweep.
  bad.offsets[1] = bad.offsets[0];
  EXPECT_THROW(check_arena_plan(reqs, bad), pit::Error);
}

TEST(ArenaPlanner, CheckRejectsPartialOverlap) {
  const std::vector<ArenaRequest> reqs = {{8, 0, 2}, {8, 1, 3}};
  ArenaPlan bad = plan_arena(reqs);
  bad.offsets[1] = bad.offsets[0] + 4;  // half-overlapping neighbors
  EXPECT_THROW(check_arena_plan(reqs, bad), pit::Error);
}

TEST(ArenaPlanner, CheckRejectsRegionPastCapacity) {
  const std::vector<ArenaRequest> reqs = {{8, 0, 2}, {8, 1, 3}};
  ArenaPlan bad = plan_arena(reqs);
  bad.offsets[1] = bad.total;  // 8 floats entirely past the planned end
  EXPECT_THROW(check_arena_plan(reqs, bad), pit::Error);
}

}  // namespace
}  // namespace pit::runtime
