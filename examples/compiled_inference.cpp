// Compiled inference: freeze a searched network and serve it.
//
// A searchable TEMPONet is given its learned dilations (skipping the
// training loop — see examples/ppg_heart_rate.cpp for the real search),
// frozen, and compiled into the inference runtime: batch-norm folded into
// the convs, ReLU fused, every activation placed in one liveness-planned
// arena, executed with no autograd tape. The compiled plan is checked
// against Module::forward and timed on a batch.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/example_compiled_inference
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

#include "core/pit_conv1d.hpp"
#include "models/temponet.hpp"
#include "runtime/compile_models.hpp"

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
  std::printf("PIT compiled inference: fold -> plan -> execute\n");
  std::printf("===============================================\n\n");

  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;

  RandomEngine rng(7);
  std::vector<core::PITConv1d*> layers;
  models::TempoNet model(cfg, core::pit_conv_factory(rng, layers), rng);

  // Pretend the search already ran: assign the paper-style dilations and
  // freeze the gammas (the state a PitTrainer leaves the model in).
  const std::vector<index_t> dilations = {2, 2, 1, 4, 4, 8, 8};
  for (std::size_t i = 0; i < layers.size(); ++i) {
    layers[i]->gamma().set_dilation(dilations[i]);
    layers[i]->freeze_gamma();
  }
  // Give batch-norm real running statistics, then switch to eval.
  model.train();
  model.forward(Tensor::randn(Shape{8, 4, 64}, rng));
  model.eval();

  const auto plan = runtime::compile_plan(model);
  runtime::ExecutionContext ctx;  // per-thread arena; the plan is shared
  std::printf("%s\n", plan->summary().c_str());

  Tensor x = Tensor::randn(Shape{32, 4, 64}, rng);
  Tensor compiled_out = plan->forward(x, ctx);
  Tensor module_out;
  {
    NoGradGuard guard;
    module_out = model.forward(x);
  }
  float worst = 0.0F;
  for (index_t i = 0; i < compiled_out.numel(); ++i) {
    worst = std::max(worst,
                     std::abs(compiled_out.data()[i] - module_out.data()[i]));
  }
  std::printf("parity vs Module::forward (batch 32): max |diff| = %.2e\n",
              static_cast<double>(worst));
  if (worst > 1e-4F) {
    std::fprintf(stderr, "compiled output diverged from the module graph\n");
    return 1;
  }

  const double module_ms = time_forward_ms(
      [&] {
        NoGradGuard guard;
        model.forward(x);
      },
      10);
  const double compiled_ms =
      time_forward_ms([&] { plan->forward(x, ctx); }, 10);
  std::printf("module graph: %.3f ms   compiled plan: %.3f ms   (%.2fx)\n",
              module_ms, compiled_ms,
              compiled_ms > 0.0 ? module_ms / compiled_ms : 0.0);
  std::printf("\ndone — bench_runtime sweeps batch sizes and thread counts "
              "and writes BENCH_runtime.json.\n");
  return 0;
}
