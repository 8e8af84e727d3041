#include "runtime/compile_models.hpp"

#include "core/network_export.hpp"
#include "core/pit_conv1d.hpp"
#include "tensor/error.hpp"

namespace pit::runtime {

FrozenConv freeze_temporal_conv(const nn::Module& conv) {
  if (const auto* plain = dynamic_cast<const nn::Conv1d*>(&conv)) {
    return freeze_conv(*plain);
  }
  if (const auto* pit = dynamic_cast<const core::PITConv1d*>(&conv)) {
    FrozenConv out;
    out.c_in = pit->in_channels();
    out.c_out = pit->out_channels();
    out.k = pit->current_alive_taps();
    out.dilation = pit->current_dilation();
    out.stride = pit->stride();
    const Tensor w = core::exported_weight(*pit);
    out.weight.assign(w.span().begin(), w.span().end());
    if (pit->bias().defined()) {
      const auto b = pit->bias().span();
      out.bias.assign(b.begin(), b.end());
    }
    return out;
  }
  PIT_CHECK(false,
            "freeze_temporal_conv: module is neither nn::Conv1d nor "
            "core::PITConv1d");
  return {};  // unreachable
}

std::shared_ptr<const CompiledPlan> compile_plan(
    const models::TempoNet& model, WeightPool* pool) {
  const models::TempoNetConfig& cfg = model.config();
  NetBuilder b;
  ValueId x = b.input(cfg.input_channels, cfg.input_length);
  const std::vector<nn::Module*> convs = model.temporal_convs();
  PIT_CHECK(convs.size() == 7, "compile(TempoNet): expected 7 convs");
  std::size_t pool_idx = 0;
  for (std::size_t i = 0; i < convs.size(); ++i) {
    FrozenConv fc = freeze_temporal_conv(*convs[i]);
    fold_batchnorm(fc, model.norm(i));
    x = b.conv(x, fc, /*fuse_relu=*/true);
    // Pools close block 1 (after conv 2), block 2 (conv 4), block 3 (conv 6).
    if (i == 2 || i == 4 || i == 6) {
      const nn::AvgPool1d& pool = model.pool(pool_idx++);
      x = b.avg_pool(x, pool.kernel(), pool.stride());
    }
  }
  x = b.flatten(x);
  x = b.linear(x, model.fc1().weight(), model.fc1().bias(),
               /*fuse_relu=*/true);
  x = b.linear(x, model.fc2().weight(), model.fc2().bias(),
               /*fuse_relu=*/false);
  return std::make_shared<const CompiledPlan>(std::move(b).compile(x, pool));
}

std::shared_ptr<const CompiledPlan> compile_plan(const models::ResTCN& model,
                                                 index_t input_steps,
                                                 WeightPool* pool) {
  const models::ResTcnConfig& cfg = model.config();
  NetBuilder b;
  ValueId x = b.input(cfg.input_channels, input_steps);
  const std::vector<nn::Module*> convs = model.temporal_convs();
  PIT_CHECK(convs.size() == 2 * model.num_blocks(),
            "compile(ResTCN): " << convs.size() << " convs for "
                                << model.num_blocks() << " blocks");
  for (std::size_t blk = 0; blk < model.num_blocks(); ++blk) {
    ValueId y = b.conv(x, freeze_temporal_conv(*convs[2 * blk]),
                       /*fuse_relu=*/true);
    y = b.conv(y, freeze_temporal_conv(*convs[2 * blk + 1]),
               /*fuse_relu=*/true);
    const nn::Conv1d* down = model.downsample(blk);
    const ValueId res =
        down != nullptr ? b.conv(x, freeze_conv(*down), /*fuse_relu=*/false)
                        : x;
    x = b.add(y, res, /*fuse_relu=*/true);
  }
  x = b.conv(x, freeze_conv(model.head()), /*fuse_relu=*/false);
  return std::make_shared<const CompiledPlan>(std::move(b).compile(x, pool));
}

std::shared_ptr<const CompiledPlan> compile_stream_backbone(
    const models::TempoNet& model, index_t input_steps, WeightPool* pool) {
  const models::TempoNetConfig& cfg = model.config();
  NetBuilder b;
  ValueId x = b.input(cfg.input_channels, input_steps);
  const std::vector<nn::Module*> convs = model.temporal_convs();
  PIT_CHECK(convs.size() == 7,
            "compile_stream_backbone(TempoNet): expected 7 convs");
  for (std::size_t i = 0; i < convs.size(); ++i) {
    FrozenConv fc = freeze_temporal_conv(*convs[i]);
    PIT_CHECK(fc.stride == 1,
              "compile_stream_backbone(TempoNet): conv " << i
                                                         << " is strided");
    fold_batchnorm(fc, model.norm(i));
    x = b.conv(x, fc, /*fuse_relu=*/true);
  }
  auto plan = std::make_shared<const CompiledPlan>(std::move(b).compile(x, pool));
  PIT_CHECK(plan->streamable(),
            "compile_stream_backbone(TempoNet): plan is not streamable");
  return plan;
}

}  // namespace pit::runtime
