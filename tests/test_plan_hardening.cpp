// Dynamic arena hardening (runtime/hardening.hpp): a kernel that writes
// outside its declared footprint is caught — by an ASan report over the
// poisoned slack in sanitizer builds, by the canary sweep everywhere else —
// while well-behaved plans produce bit-identical outputs under every mode.
#include "runtime/hardening.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "models/restcn.hpp"
#include "plan_mutator.hpp"
#include "runtime/compile_models.hpp"
#include "runtime/quantize_plan.hpp"
#include "tensor/error.hpp"

namespace pit::runtime {
namespace {

// ---- hostile kernel --------------------------------------------------------
// Wraps the genuine packed conv, then stores into the first output row's
// tail slack — memory the footprint model declares never-written. The
// first ASan shadow granule of a slack region is conservatively
// addressable, so the write covers 8 floats: bytes 8..31 past t_out land
// in fully poisoned granules regardless of alignment.

nn::kernels::ConvPackedF32Fn g_real_conv = nullptr;

void hostile_conv(const float* x, const float* wp, const float* bias,
                  float* y, const nn::kernels::ConvDims& d, index_t x_stride,
                  index_t y_stride, bool x_padded, bool relu) {
  g_real_conv(x, wp, bias, y, d, x_stride, y_stride, x_padded, relu);
  for (index_t j = 0; j < 8; ++j) {
    y[d.t_out + j] = 1.0F;
  }
}

/// input -> conv(k3,d2) -> conv(k3,d1) -> output. Op 0's output row is the
/// second conv's padded input, so it carries lead AND tile slack — the
/// region the hostile kernel clobbers. Streamable (both convs stride-1).
std::shared_ptr<const CompiledPlan> two_conv_plan(RandomEngine& rng) {
  nn::Conv1d first(4, 8, 3, {.dilation = 2, .stride = 1, .bias = true}, rng);
  nn::Conv1d second(8, 4, 3, {.dilation = 1, .stride = 1, .bias = true}, rng);
  NetBuilder b;
  ValueId x = b.input(4, 64);
  ValueId h = b.conv(x, freeze_conv(first), /*fuse_relu=*/true);
  ValueId y = b.conv(h, freeze_conv(second), /*fuse_relu=*/false);
  return std::make_shared<const CompiledPlan>(std::move(b).compile(y));
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

/// RAII mode override so a throwing assertion can't leak a mode into the
/// tests that follow.
class ScopedMode {
 public:
  explicit ScopedMode(hardening::Mode m)
      : prev_(hardening::set_mode_for_test(m)) {}
  ~ScopedMode() { hardening::set_mode_for_test(prev_); }
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  hardening::Mode prev_;
};

void expect_same(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (index_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "outputs diverge at " << i;
  }
}

// ---- positive: hardening never changes results ----------------------------

TEST(PlanHardening, ModesProduceIdenticalFp32Outputs) {
  RandomEngine rng(2003);
  models::ResTcnConfig cfg;
  cfg.input_channels = 6;
  cfg.output_channels = 5;
  cfg.hidden_channels = 10;
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 2, 4, 8, 16, 2, 1, 32}),
      rng);
  model.eval();
  const auto plan = compile_plan(model, 31);
  const Tensor x = Tensor::randn(Shape{3, 6, 31}, rng);

  Tensor off;
  {
    ScopedMode m(hardening::Mode::kOff);
    ExecutionContext ctx;
    off = plan->forward(x, ctx);
  }
  {
    ScopedMode m(hardening::Mode::kCanary);
    ExecutionContext ctx;
    expect_same(plan->forward(x, ctx), off);
  }
  {
    // Clamps to kCanary outside ASan builds; full poisoning inside them.
    ScopedMode m(hardening::Mode::kPoison);
    ExecutionContext ctx;
    expect_same(plan->forward(x, ctx), off);
  }
}

TEST(PlanHardening, ModesProduceIdenticalQuantizedOutputs) {
  RandomEngine rng(2011);
  const auto plan = two_conv_plan(rng);
  data::TensorDataset dataset = random_dataset(12, 4, 64, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  const auto qplan = quantize_plan(*plan, loader);
  const Tensor x = Tensor::randn(Shape{2, 4, 64}, rng);

  Tensor off;
  {
    ScopedMode m(hardening::Mode::kOff);
    ExecutionContext ctx;
    off = qplan->forward(x, ctx);
  }
  {
    ScopedMode m(hardening::Mode::kCanary);
    ExecutionContext ctx;
    expect_same(qplan->forward(x, ctx), off);
  }
  {
    ScopedMode m(hardening::Mode::kPoison);
    ExecutionContext ctx;
    expect_same(qplan->forward(x, ctx), off);
  }
}

/// Streams x one step at a time under kCanary and checks every step
/// against the batched forward (run with hardening off): bit-exact for the
/// int8 program, within float rounding for fp32.
void expect_stream_matches_batched(const CompiledPlan& plan, const Tensor& x) {
  const index_t c = x.dim(1);
  const index_t steps = x.dim(2);
  Tensor batched;
  {
    ScopedMode m(hardening::Mode::kOff);
    ExecutionContext ctx;
    batched = plan.forward(x, ctx);  // (1, C_out, steps)
  }
  ScopedMode m(hardening::Mode::kCanary);  // ring-layout checks active
  ExecutionContext sctx;
  const index_t c_out = plan.output_channels();
  for (index_t t = 0; t < steps; ++t) {
    Tensor step_in = Tensor::empty(Shape{c});
    for (index_t ch = 0; ch < c; ++ch) {
      step_in.data()[ch] = x.data()[ch * steps + t];
    }
    const Tensor step_out = plan.step(step_in, sctx);
    for (index_t ch = 0; ch < c_out; ++ch) {
      const float want = batched.data()[ch * steps + t];
      if (plan.quantized()) {
        ASSERT_EQ(step_out.data()[ch], want)
            << "stream diverges at t=" << t << " ch=" << ch;
      } else {
        ASSERT_FLOAT_EQ(step_out.data()[ch], want)
            << "stream diverges at t=" << t << " ch=" << ch;
      }
    }
  }
}

TEST(PlanHardening, StreamingRunsUnderHardening) {
  RandomEngine rng(2017);
  const auto plan = two_conv_plan(rng);
  ASSERT_TRUE(plan->streamable());
  const Tensor x = Tensor::randn(Shape{1, 4, 64}, rng);
  expect_stream_matches_batched(*plan, x);

  // The int8 program streams through the same step executor: bit-exact
  // against its own batched forward, ring checks active.
  data::TensorDataset dataset = random_dataset(12, 4, 64, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  const auto qplan = quantize_plan(*plan, loader);
  ASSERT_TRUE(qplan->streamable());
  expect_stream_matches_batched(*qplan, x);
}

// ---- dynamic ring enforcement at bind time --------------------------------

TEST(PlanHardening, StreamBindRejectsShrunkenRing) {
  RandomEngine rng(2027);
  const auto plan = two_conv_plan(rng);
  CompiledPlan bad(*plan);
  ASSERT_TRUE(PlanMutator::shrink_ring<float>(bad));
  data::TensorDataset dataset = random_dataset(12, 4, 64, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  CompiledPlan qbad(*quantize_plan(*plan, loader));
  ASSERT_TRUE(PlanMutator::shrink_ring<std::uint8_t>(qbad));
  ScopedMode m(hardening::Mode::kCanary);
  const Tensor step_in = Tensor::randn(Shape{4}, rng);
  ExecutionContext ctx;
  EXPECT_THROW(bad.step(step_in, ctx), pit::Error);
  ExecutionContext qctx;
  EXPECT_THROW(qbad.step(step_in, qctx), pit::Error);
}

// ---- hostile kernel: out-of-footprint store is caught ---------------------

TEST(PlanHardening, CanaryCatchesOutOfFootprintWrite) {
  RandomEngine rng(2029);
  const auto plan = two_conv_plan(rng);
  CompiledPlan bad(*plan);
  g_real_conv = PlanMutator::set_conv_fn(bad, 0, &hostile_conv);
  ASSERT_NE(g_real_conv, nullptr);
  const Tensor x = Tensor::randn(Shape{2, 4, 64}, rng);
  {
    ScopedMode m(hardening::Mode::kCanary);
    ExecutionContext ctx;
    EXPECT_THROW(bad.forward(x, ctx), pit::Error);
  }
  {
    // Documents what the layer buys: with enforcement off the same rogue
    // store lands in allocated slack and goes unobserved.
    ScopedMode m(hardening::Mode::kOff);
    ExecutionContext ctx;
    EXPECT_NO_THROW(bad.forward(x, ctx));
  }
}

#if PIT_ASAN
TEST(PlanHardeningDeath, PoisonedSlackTripsAddressSanitizer) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  RandomEngine rng(2039);
  const auto plan = two_conv_plan(rng);
  CompiledPlan bad(*plan);
  g_real_conv = PlanMutator::set_conv_fn(bad, 0, &hostile_conv);
  ASSERT_NE(g_real_conv, nullptr);
  const Tensor x = Tensor::randn(Shape{2, 4, 64}, rng);
  EXPECT_DEATH(
      {
        hardening::set_mode_for_test(hardening::Mode::kPoison);
        ExecutionContext ctx;
        bad.forward(x, ctx);
      },
      "AddressSanitizer");
}
#endif

}  // namespace
}  // namespace pit::runtime
