// Quantized inference: calibrate -> lower -> execute.
//
// The paper's deployed artifact is an int8 TCN (searched networks are
// quantized and shipped to GAP8 through NN-Tool). This example walks that
// arc on the compiled runtime: a searched TEMPONet is frozen and compiled
// (examples/compiled_inference.cpp covers that half), then
//   1. calibrate — the fp32 plan runs over a calibration loader while
//      range observers record every intermediate activation,
//   2. lower    — weights quantize to per-channel s8, activations to
//      affine u8, bias/zero-point/ReLU fold into per-channel requantize
//      constants, and the arena re-plans with byte rows,
//   3. execute  — the same CompiledPlan::forward() entry point now runs
//      int8 kernels end to end; output comes back as floats.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/example_quantized_inference
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "core/pit_conv1d.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "models/temponet.hpp"
#include "nn/kernels/registry.hpp"
#include "runtime/quantize_plan.hpp"

namespace {

using namespace pit;

double time_forward_ms(const std::function<void()>& fn, int reps) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main() {
  std::printf("PIT quantized inference: calibrate -> lower -> execute\n");
  std::printf("======================================================\n\n");

  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.5;

  RandomEngine rng(7);
  std::vector<core::PITConv1d*> layers;
  models::TempoNet model(cfg, core::pit_conv_factory(rng, layers), rng);

  // Pretend the search already ran: assign dilations, freeze the gammas,
  // give batch-norm real running statistics, switch to eval.
  const std::vector<index_t> dilations = {2, 2, 1, 4, 4, 8, 8};
  for (std::size_t i = 0; i < layers.size(); ++i) {
    layers[i]->gamma().set_dilation(dilations[i]);
    layers[i]->freeze_gamma();
  }
  model.train();
  model.forward(Tensor::randn(Shape{8, 4, 64}, rng));
  model.eval();

  // 1. Calibration data: in a real deployment this is a slice of the
  // training set; here a synthetic loader with the input distribution.
  std::vector<Tensor> calib_inputs;
  std::vector<Tensor> calib_targets;
  for (int i = 0; i < 32; ++i) {
    calib_inputs.push_back(Tensor::randn(Shape{4, 64}, rng));
    calib_targets.push_back(Tensor::zeros(Shape{1}));
  }
  data::TensorDataset calib(std::move(calib_inputs),
                            std::move(calib_targets));
  data::DataLoader loader(calib, 8, /*shuffle=*/false);

  // 2. Compile the fp32 plan and lower it to int8.
  const auto fp32_plan = runtime::compile_plan(model);
  const auto int8_plan = runtime::compile_quantized(model, loader);
  std::printf("%s\n", int8_plan->summary().c_str());
  std::printf("i8 kernel variant on this host: %s\n",
              nn::kernels::Registry::instance().i8_isa());
  std::printf("fp32 params: %lld floats (%lld bytes); int8 weights: %lld "
              "bytes\n\n",
              static_cast<long long>(fp32_plan->param_floats()),
              static_cast<long long>(fp32_plan->param_floats() * 4),
              static_cast<long long>(int8_plan->quant_weight_bytes()));

  // 3. Execute: same forward() entry point, int8 program inside.
  Tensor x = Tensor::randn(Shape{32, 4, 64}, rng);
  runtime::ExecutionContext fp32_ctx;
  runtime::ExecutionContext int8_ctx;
  const Tensor fp32_out = fp32_plan->forward(x, fp32_ctx);
  const Tensor int8_out = int8_plan->forward(x, int8_ctx);
  float worst = 0.0F;
  for (index_t i = 0; i < fp32_out.numel(); ++i) {
    worst = std::max(worst,
                     std::abs(fp32_out.data()[i] - int8_out.data()[i]));
  }
  std::printf("parity vs fp32 plan (batch 32): max |diff| = %.3e "
              "(rms-model estimate %.3e, worst-case bound %.3e)\n",
              static_cast<double>(worst),
              int8_plan->quant_error_estimate(),
              int8_plan->quant_error_bound());
  if (static_cast<double>(worst) >
      int8_plan->quant_error_bound() * 1.02 + 1e-3) {
    std::fprintf(stderr, "int8 output violates the analytic bound\n");
    return 1;
  }

  // Per-layer view of where the quantization error accumulates.
  const auto deltas = runtime::compare_quantized_layers(*int8_plan, x);
  std::printf("\nper-layer |int8 - fp32| (batch 32):\n");
  for (const auto& d : deltas) {
    std::printf("  #%-2zu %-24s max %.3e  mean %.3e\n", d.op,
                d.desc.c_str(), d.max_abs_err, d.mean_abs_err);
  }

  const double fp32_ms =
      time_forward_ms([&] { fp32_plan->forward(x, fp32_ctx); }, 10);
  const double int8_ms =
      time_forward_ms([&] { int8_plan->forward(x, int8_ctx); }, 10);
  std::printf("\nfp32 plan: %.3f ms   int8 plan: %.3f ms   (%.2fx)\n",
              fp32_ms, int8_ms, int8_ms > 0.0 ? fp32_ms / int8_ms : 0.0);
  std::printf("\ndone — bench_quant_runtime sweeps models and batch sizes "
              "and writes BENCH_quant.json.\n");
  return 0;
}
