// Kernel registry: specialized-variant parity against the generic kernels
// across adversarial shapes (fp32 within float tolerance, i8 bit-exact),
// guaranteed generic fallback for unmatched signatures, and
// CompiledPlan::describe() binding reports.
#include "nn/kernels/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "nn/conv1d.hpp"
#include "runtime/compiled_net.hpp"
#include "runtime/quantize_plan.hpp"
#include "tensor/tensor.hpp"

namespace pit::nn::kernels {
namespace {

struct SpecCase {
  index_t k, c_in, c_out, t, dilation;
  bool bias, relu;
};

// Quad-aligned c_in (the fp32 specialization constraint), ragged c_out
// tiles, t below one time tile, and t < k * dilation (lead longer than
// the data).
const std::vector<SpecCase> kF32Cases = {
    {3, 4, 5, 16, 2, true, true},    {5, 8, 3, 32, 1, true, false},
    {9, 4, 4, 10, 4, false, true},   {1, 12, 17, 7, 1, true, false},
    {7, 16, 2, 5, 8, false, false},  {2, 4, 31, 64, 3, true, true},
};

// i8 specializations key on k alone (the C4 layout pads ragged quads), so
// ragged c_in appears here too.
const std::vector<SpecCase> kI8Cases = {
    {3, 4, 5, 16, 2, true, true},   {5, 6, 17, 31, 3, true, false},
    {9, 3, 4, 8, 4, false, true},   {1, 13, 8, 7, 1, true, false},
    {7, 1, 1, 5, 8, false, false},
};

float pseudo(index_t i, float scale) {
  return scale * static_cast<float>((i * 37 + 11) % 23 - 11);
}

/// Builds the padded row layout every packed conv consumes: lead zeroed
/// floats, the data, then a tile of slack. Returns the base allocation;
/// `*p` points at (row 0, t = 0).
std::vector<float> padded_rows(index_t rows, index_t t, index_t lead,
                               float** p, index_t* stride) {
  *stride = lead + t + kPackTimeTile;
  std::vector<float> buf(static_cast<std::size_t>(rows * *stride), 0.0F);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t s = 0; s < t; ++s) {
      buf[static_cast<std::size_t>(r * *stride + lead + s)] =
          pseudo(r * t + s, 0.25F);
    }
  }
  *p = buf.data() + lead;
  return buf;
}

void expect_close(const std::vector<float>& want,
                  const std::vector<float>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const float tol = 1e-5F * std::max(1.0F, std::abs(want[i]));
    ASSERT_NEAR(want[i], got[i], tol)
        << what << " diverges at flat index " << i;
  }
}

TEST(KernelRegistry, PackedF32SpecializedMatchesGeneric) {
  const Registry& reg = Registry::instance();
  const index_t n = 2;
  for (const SpecCase& c : kF32Cases) {
    const ConvSig sig{c.k, c.c_in, c.c_out};
    const auto spec = reg.conv_packed_f32(sig);
    const auto gen = reg.conv_packed_f32_generic();
    ASSERT_TRUE(spec);
    ASSERT_TRUE(gen);
    ASSERT_TRUE(spec.meta->specialized)
        << "k" << c.k << " c_in " << c.c_in << " should match a variant";
    ASSERT_FALSE(gen.meta->specialized);

    ConvDims d{};
    d.n = n;
    d.c_in = c.c_in;
    d.c_out = c.c_out;
    d.k = c.k;
    d.t_in = c.t;
    d.t_out = c.t;
    d.dilation = c.dilation;
    d.stride = 1;
    std::vector<float> w(
        static_cast<std::size_t>(c.c_out * c.c_in * c.k));
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = pseudo(static_cast<index_t>(i), 0.125F);
    }
    std::vector<float> wp(
        static_cast<std::size_t>(packed_weight_floats(d)));
    pack_conv_weight(w.data(), d, wp.data());
    std::vector<float> bias(static_cast<std::size_t>(c.c_out));
    for (std::size_t i = 0; i < bias.size(); ++i) {
      bias[i] = pseudo(static_cast<index_t>(i), 0.5F);
    }
    const float* bias_p = c.bias ? bias.data() : nullptr;

    float* x = nullptr;
    index_t x_stride = 0;
    const auto x_buf = padded_rows(n * c.c_in, c.t,
                                   (c.k - 1) * c.dilation, &x, &x_stride);
    std::vector<float> y_spec(static_cast<std::size_t>(n * c.c_out * c.t));
    std::vector<float> y_gen(y_spec.size());
    spec.fn(x, wp.data(), bias_p, y_spec.data(), d, x_stride, c.t,
            /*x_padded=*/true, c.relu);
    gen.fn(x, wp.data(), bias_p, y_gen.data(), d, x_stride, c.t,
           /*x_padded=*/true, c.relu);
    expect_close(y_gen, y_spec, "conv.packed.f32 specialized");
  }
}

TEST(KernelRegistry, StepF32SpecializedMatchesGeneric) {
  const Registry& reg = Registry::instance();
  for (const SpecCase& c : kF32Cases) {
    const ConvSig sig{c.k, c.c_in, c.c_out};
    const auto spec = reg.conv_step_f32(sig);
    const auto gen = reg.conv_step_f32_generic();
    ASSERT_TRUE(spec.meta->specialized);
    ASSERT_FALSE(gen.meta->specialized);

    ConvDims d{};
    d.c_in = c.c_in;
    d.c_out = c.c_out;
    d.k = c.k;
    std::vector<float> w(
        static_cast<std::size_t>(c.c_out * c.c_in * c.k));
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = pseudo(static_cast<index_t>(i), 0.125F);
    }
    std::vector<float> wp(
        static_cast<std::size_t>(packed_weight_floats(d)));
    pack_conv_weight(w.data(), d, wp.data());
    std::vector<float> bias(static_cast<std::size_t>(c.c_out));
    for (std::size_t i = 0; i < bias.size(); ++i) {
      bias[i] = pseudo(static_cast<index_t>(i), 0.5F);
    }

    const index_t span = (c.k - 1) * c.dilation + 1;
    std::vector<float> ring(static_cast<std::size_t>(c.c_in * span));
    for (std::size_t i = 0; i < ring.size(); ++i) {
      ring[i] = pseudo(static_cast<index_t>(i), 0.25F);
    }
    std::vector<float> y_spec(static_cast<std::size_t>(c.c_out));
    std::vector<float> y_gen(y_spec.size());
    for (index_t pos = 0; pos < span; ++pos) {
      spec.fn(ring.data(), wp.data(), c.bias ? bias.data() : nullptr,
              y_spec.data(), c.c_in, c.c_out, c.k, c.dilation, span, pos,
              c.relu);
      gen.fn(ring.data(), wp.data(), c.bias ? bias.data() : nullptr,
             y_gen.data(), c.c_in, c.c_out, c.k, c.dilation, span, pos,
             c.relu);
      expect_close(y_gen, y_spec, "conv.step.f32 specialized");
    }
  }
}

/// Packed s8 weights plus requantize constants for one i8 test case.
struct I8Problem {
  std::vector<std::int8_t> wp;
  std::vector<float> m;
  std::vector<float> b;
};

I8Problem make_i8_problem(const SpecCase& c) {
  ConvDims d{};
  d.c_in = c.c_in;
  d.c_out = c.c_out;
  d.k = c.k;
  std::vector<std::int8_t> wq(
      static_cast<std::size_t>(c.c_out * c.c_in * c.k));
  for (std::size_t i = 0; i < wq.size(); ++i) {
    wq[i] = static_cast<std::int8_t>((i * 53 + 7) % 255 - 127);
  }
  I8Problem p;
  p.wp.resize(static_cast<std::size_t>(packed_weight_bytes_i8(d)));
  pack_conv_weight_i8(wq.data(), d, p.wp.data());
  const index_t co_round = (c.c_out + kQuantCo - 1) / kQuantCo * kQuantCo;
  p.m.resize(static_cast<std::size_t>(co_round));
  p.b.resize(static_cast<std::size_t>(co_round));
  for (index_t co = 0; co < co_round; ++co) {
    p.m[static_cast<std::size_t>(co)] =
        0.001F + 0.0001F * static_cast<float>(co % 7);
    p.b[static_cast<std::size_t>(co)] =
        pseudo(co, 0.75F) + 128.0F;
  }
  return p;
}

TEST(KernelRegistry, PackedI8SpecializedBitExact) {
  const Registry& reg = Registry::instance();
  const index_t n = 2;
  for (const SpecCase& c : kI8Cases) {
    const auto spec = reg.conv_packed_i8({c.k, c.c_in, c.c_out});
    const auto gen = reg.conv_packed_i8_generic();
    ASSERT_TRUE(spec.meta->specialized) << "i8 k" << c.k;
    ASSERT_FALSE(gen.meta->specialized);

    const I8Problem prob = make_i8_problem(c);
    ConvDims d{};
    d.n = n;
    d.c_in = c.c_in;
    d.c_out = c.c_out;
    d.k = c.k;
    d.t_in = c.t;
    d.t_out = c.t;
    d.dilation = c.dilation;
    d.stride = 1;

    // u8 input: group-interleaved rows with a zero-point lead.
    const index_t lead = (c.k - 1) * c.dilation;
    const index_t x_stride = lead + c.t;
    const index_t g_in = quant_groups(c.c_in);
    std::vector<std::uint8_t> x_buf(
        static_cast<std::size_t>(n * g_in * kQuantCiGroup * x_stride), 128);
    for (std::size_t i = 0; i < x_buf.size(); ++i) {
      x_buf[i] = static_cast<std::uint8_t>((i * 31 + 5) % 256);
    }
    for (index_t row = 0; row < n * g_in; ++row) {  // zero-point lead
      std::memset(x_buf.data() + row * kQuantCiGroup * x_stride, 128,
                  static_cast<std::size_t>(kQuantCiGroup * lead));
    }
    const std::uint8_t* x = x_buf.data() + kQuantCiGroup * lead;

    const index_t g_out = quant_groups(c.c_out);
    std::vector<std::uint8_t> yq_spec(
        static_cast<std::size_t>(n * g_out * kQuantCiGroup * c.t), 0);
    std::vector<std::uint8_t> yq_gen(yq_spec.size(), 0);
    spec.fn(x, prob.wp.data(), prob.m.data(), prob.b.data(),
            yq_spec.data(), nullptr, d, x_stride, c.t, c.relu, 3);
    gen.fn(x, prob.wp.data(), prob.m.data(), prob.b.data(), yq_gen.data(),
           nullptr, d, x_stride, c.t, c.relu, 3);
    EXPECT_EQ(0, std::memcmp(yq_spec.data(), yq_gen.data(), yq_spec.size()))
        << "u8 store of i8 k" << c.k << " specialization is not bit-exact";

    std::vector<float> yf_spec(static_cast<std::size_t>(n * c.c_out * c.t));
    std::vector<float> yf_gen(yf_spec.size());
    spec.fn(x, prob.wp.data(), prob.m.data(), prob.b.data(), nullptr,
            yf_spec.data(), d, x_stride, c.t, c.relu, 0);
    gen.fn(x, prob.wp.data(), prob.m.data(), prob.b.data(), nullptr,
           yf_gen.data(), d, x_stride, c.t, c.relu, 0);
    for (std::size_t i = 0; i < yf_spec.size(); ++i) {
      ASSERT_EQ(yf_gen[i], yf_spec[i])
          << "float store of i8 k" << c.k
          << " specialization is not bit-exact at " << i;
    }
  }
}

TEST(KernelRegistry, StepI8SpecializedBitExact) {
  const Registry& reg = Registry::instance();
  for (const SpecCase& c : kI8Cases) {
    const auto spec = reg.conv_step_i8({c.k, c.c_in, c.c_out});
    const auto gen = reg.conv_step_i8_generic();
    ASSERT_TRUE(spec.meta->specialized);
    ASSERT_FALSE(gen.meta->specialized);

    const I8Problem prob = make_i8_problem(c);
    const index_t span = (c.k - 1) * c.dilation + 1;
    const index_t g_in = quant_groups(c.c_in);
    std::vector<std::uint8_t> ring(
        static_cast<std::size_t>(g_in * span * kQuantCiGroup));
    for (std::size_t i = 0; i < ring.size(); ++i) {
      ring[i] = static_cast<std::uint8_t>((i * 29 + 3) % 256);
    }
    const index_t g_out = quant_groups(c.c_out);
    std::vector<std::uint8_t> yq_spec(
        static_cast<std::size_t>(g_out * kQuantCiGroup), 0);
    std::vector<std::uint8_t> yq_gen(yq_spec.size(), 0);
    std::vector<float> yf_spec(static_cast<std::size_t>(c.c_out));
    std::vector<float> yf_gen(yf_spec.size());
    for (index_t pos = 0; pos < span; ++pos) {
      spec.fn(ring.data(), prob.wp.data(), prob.m.data(), prob.b.data(),
              yq_spec.data(), nullptr, c.c_in, c.c_out, c.k, c.dilation,
              span, pos, c.relu, 3);
      gen.fn(ring.data(), prob.wp.data(), prob.m.data(), prob.b.data(),
             yq_gen.data(), nullptr, c.c_in, c.c_out, c.k, c.dilation,
             span, pos, c.relu, 3);
      EXPECT_EQ(0,
                std::memcmp(yq_spec.data(), yq_gen.data(), yq_spec.size()));
      spec.fn(ring.data(), prob.wp.data(), prob.m.data(), prob.b.data(),
              nullptr, yf_spec.data(), c.c_in, c.c_out, c.k, c.dilation,
              span, pos, c.relu, 0);
      gen.fn(ring.data(), prob.wp.data(), prob.m.data(), prob.b.data(),
             nullptr, yf_gen.data(), c.c_in, c.c_out, c.k, c.dilation, span,
             pos, c.relu, 0);
      for (std::size_t i = 0; i < yf_spec.size(); ++i) {
        ASSERT_EQ(yf_gen[i], yf_spec[i]);
      }
    }
  }
}

TEST(KernelRegistry, UnmatchedSignatureBindsGenericNeverFails) {
  const Registry& reg = Registry::instance();
  // k beyond the specialization range.
  const auto big_k = reg.conv_packed_f32({11, 8, 8});
  ASSERT_TRUE(big_k);
  EXPECT_FALSE(big_k.meta->specialized);
  EXPECT_EQ(big_k.fn, reg.conv_packed_f32_generic().fn);
  // Ragged channel quads: the fp32 specializations require c_in % 4 == 0.
  const auto ragged = reg.conv_packed_f32({3, 6, 8});
  ASSERT_TRUE(ragged);
  EXPECT_FALSE(ragged.meta->specialized);
  // Same for the step and i8 tables.
  EXPECT_FALSE(reg.conv_step_f32({11, 8, 8}).meta->specialized);
  EXPECT_FALSE(reg.conv_packed_i8({12, 8, 8}).meta->specialized);
  EXPECT_FALSE(reg.conv_step_i8({12, 8, 8}).meta->specialized);
  ASSERT_TRUE(reg.conv_packed_i8({12, 8, 8}));
}

}  // namespace
}  // namespace pit::nn::kernels

namespace pit::runtime {
namespace {

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

/// A small streamable residual TCN: two specializable convs (quad c_in)
/// plus an add join.
CompiledPlan small_plan(RandomEngine& rng) {
  nn::Conv1d c1(4, 8, 3, {.dilation = 2, .stride = 1, .bias = true}, rng);
  nn::Conv1d c2(8, 8, 5, {.dilation = 1, .stride = 1, .bias = true}, rng);
  NetBuilder b;
  ValueId x = b.input(4, 32);
  ValueId h = b.conv(x, freeze_conv(c1), /*fuse_relu=*/true);
  ValueId h2 = b.conv(h, freeze_conv(c2), /*fuse_relu=*/true);
  ValueId y = b.add(h, h2, /*fuse_relu=*/false);
  return std::move(b).compile(y);
}

TEST(CompiledPlanDescribe, EveryOpReportsABinding) {
  RandomEngine rng(331);
  const CompiledPlan plan = small_plan(rng);
  const std::string desc = plan.describe();
  std::size_t op_lines = 0;
  std::size_t pos = 0;
  while ((pos = desc.find("  #", pos)) != std::string::npos) {
    const std::size_t eol = desc.find('\n', pos);
    const std::string line = desc.substr(pos, eol - pos);
    EXPECT_NE(line.find("kernel="), std::string::npos)
        << "op line without a kernel binding: " << line;
    ++op_lines;
    pos = eol;
  }
  EXPECT_EQ(op_lines, plan.num_ops());
  // The quad-aligned convs must have bound specialized variants, and the
  // streamable plan reports the per-step bindings too.
  EXPECT_NE(desc.find("specialized"), std::string::npos) << desc;
  EXPECT_NE(desc.find("key=conv.packed.f32"), std::string::npos) << desc;
  EXPECT_NE(desc.find("step="), std::string::npos) << desc;
}

TEST(CompiledPlanDescribe, StridedAndLinearOpsReportBindings) {
  RandomEngine rng(337);
  nn::Conv1d c1(3, 6, 3, {.dilation = 1, .stride = 2, .bias = true}, rng);
  Tensor w = Tensor::randn(Shape{2, 6 * 16}, rng);
  NetBuilder b;
  ValueId x = b.input(3, 32);
  ValueId h = b.conv(x, freeze_conv(c1), /*fuse_relu=*/true);
  ValueId f = b.flatten(h);
  ValueId y = b.linear(f, w, Tensor(), /*fuse_relu=*/false);
  const CompiledPlan plan = std::move(b).compile(y);
  const std::string desc = plan.describe();
  EXPECT_NE(desc.find("key=conv.train.f32"), std::string::npos) << desc;
  EXPECT_NE(desc.find("key=linear.f32"), std::string::npos) << desc;
}

TEST(CompiledPlanDescribe, QuantizedPlanReportsI8Bindings) {
  RandomEngine rng(347);
  const auto plan =
      std::make_shared<const CompiledPlan>(small_plan(rng));
  data::TensorDataset dataset = random_dataset(8, 4, 32, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  const auto qplan = quantize_plan(*plan, loader);
  const std::string desc = qplan->describe();
  EXPECT_NE(desc.find("int8 program"), std::string::npos) << desc;
  EXPECT_NE(desc.find("key=conv.packed.i8"), std::string::npos) << desc;
  EXPECT_NE(desc.find("key=stage.i8"), std::string::npos) << desc;
  // The streamable quantized plan reports its i8 step bindings.
  EXPECT_NE(desc.find("key=conv.step.i8"), std::string::npos) << desc;
  // Every op line still carries a binding.
  std::size_t pos = 0;
  while ((pos = desc.find("  #", pos)) != std::string::npos) {
    const std::size_t eol = desc.find('\n', pos);
    EXPECT_NE(desc.substr(pos, eol - pos).find("kernel="),
              std::string::npos);
    pos = eol;
  }
}

}  // namespace
}  // namespace pit::runtime
