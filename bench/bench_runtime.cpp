// Frozen inference runtime vs. the autograd module graph.
//
// Builds trained-shaped TempoNet / ResTCN instances, compiles them with
// src/runtime, verifies output parity, then times Module::forward (eval
// mode, NoGradGuard) against CompiledPlan::forward across batch sizes and
// thread counts. Emits BENCH_runtime.json next to the binary's cwd.
//
//   ./bench_runtime [--quick]
//
// The acceptance bar tracked here: the compiled plan must beat the module
// graph by >= 2x on batched (N >= 16) TempoNet inference.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "models/restcn.hpp"
#include "models/temponet.hpp"
#include "runtime/compile_models.hpp"
#include "runtime/verify.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace pit;

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

/// Minimum of `reps` timed calls, in milliseconds.
template <typename Fn>
double time_min_ms(Fn&& fn, int reps) {
  fn();  // warm-up (arena growth, page faults, thread pool spin-up)
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    fn();
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

struct Row {
  std::string model;
  index_t batch = 0;
  int threads = 0;
  double module_ms = 0.0;
  double compiled_ms = 0.0;
  double speedup() const {
    return compiled_ms > 0.0 ? module_ms / compiled_ms : 0.0;
  }
};

float max_abs_diff(const Tensor& a, const Tensor& b) {
  float worst = 0.0F;
  for (index_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

struct BenchCase {
  std::string name;
  std::unique_ptr<nn::Module> module;
  std::shared_ptr<const runtime::CompiledPlan> compiled;
  runtime::ExecutionContext ctx;
  index_t input_channels = 0;
  index_t input_steps = 0;
};

BenchCase make_temponet_case(const std::string& name, double channel_scale,
                             index_t input_length) {
  models::TempoNetConfig cfg;
  cfg.channel_scale = channel_scale;
  cfg.input_length = input_length;
  RandomEngine rng(29);
  auto model = std::make_unique<models::TempoNet>(
      cfg, models::dilated_conv_factory(rng, cfg.dilations), rng);
  // Non-trivial batch-norm statistics, as after real training.
  model->train();
  model->forward(Tensor::randn(Shape{8, cfg.input_channels, input_length},
                               rng));
  model->eval();
  BenchCase c;
  c.name = name;
  c.compiled = runtime::compile_plan(*model);
  c.module = std::move(model);
  c.input_channels = cfg.input_channels;
  c.input_steps = input_length;
  return c;
}

BenchCase make_restcn_case(const std::string& name, index_t hidden,
                           index_t input_steps) {
  models::ResTcnConfig cfg;
  cfg.hidden_channels = hidden;
  RandomEngine rng(31);
  auto model = std::make_unique<models::ResTCN>(
      cfg, models::dilated_conv_factory(rng, {2, 4, 8, 8, 16, 16, 32, 32}),
      rng);
  model->eval();
  BenchCase c;
  c.name = name;
  c.compiled = runtime::compile_plan(*model, input_steps);
  c.module = std::move(model);
  c.input_channels = cfg.input_channels;
  c.input_steps = input_steps;
  return c;
}

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

int hardware_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";

  std::vector<BenchCase> cases;
  cases.push_back(make_temponet_case("temponet_scaled", 0.25, 64));
  cases.push_back(make_restcn_case("restcn_scaled", 16, 48));
  if (!quick) {
    cases.push_back(make_temponet_case("temponet_paper", 1.0, 256));
  }

  const std::vector<index_t> batches =
      quick ? std::vector<index_t>{1, 16} : std::vector<index_t>{1, 8, 16,
                                                                 32, 64};
  const int max_threads = hardware_threads();
  std::vector<int> thread_counts{1};
  if (max_threads > 1) {
    thread_counts.push_back(max_threads);
  }

  std::printf("frozen runtime vs module graph (min over reps, ms)\n");
  std::printf("%-16s %5s %7s %11s %12s %8s\n", "model", "batch", "threads",
              "module_ms", "compiled_ms", "speedup");

  std::vector<Row> rows;
  RandomEngine rng(41);
  for (BenchCase& c : cases) {
    // Parity gate before timing anything.
    {
      Tensor x = Tensor::randn(Shape{3, c.input_channels, c.input_steps},
                               rng);
      NoGradGuard guard;
      const float diff =
          max_abs_diff(c.compiled->forward(x, c.ctx), c.module->forward(x));
      if (diff > 1e-3F) {
        std::fprintf(stderr, "%s: compiled/module mismatch %.2e\n",
                     c.name.c_str(), static_cast<double>(diff));
        return 1;
      }
    }
    for (const index_t n : batches) {
      Tensor x =
          Tensor::randn(Shape{n, c.input_channels, c.input_steps}, rng);
      for (const int threads : thread_counts) {
        set_threads(threads);
        const int reps = n <= 16 ? 7 : 4;
        Row row;
        row.model = c.name;
        row.batch = n;
        row.threads = threads;
        row.module_ms = time_min_ms(
            [&] {
              NoGradGuard guard;
              c.module->forward(x);
            },
            reps);
        row.compiled_ms =
            time_min_ms([&] { c.compiled->forward(x, c.ctx); }, reps);
        std::printf("%-16s %5lld %7d %11.3f %12.3f %7.2fx\n",
                    row.model.c_str(), static_cast<long long>(row.batch),
                    row.threads, row.module_ms, row.compiled_ms,
                    row.speedup());
        rows.push_back(row);
      }
    }
  }
  set_threads(max_threads);

  // Plan-build cost of the always-on static verification pass
  // (runtime/verify.hpp). Verification runs once per compile and never on
  // the forward path, so its entire cost lives here; the tracked bar is
  // verify_overhead_frac <= 10% of an unverified plan build.
  double plan_build_ms = 0.0;
  double plan_build_noverify_ms = 0.0;
  {
    // Paper-sized model: its ~ms-scale weight packing makes the compile
    // long enough that the fraction is not timing-noise on a toy build.
    models::TempoNetConfig cfg;
    cfg.channel_scale = 1.0;
    cfg.input_length = 256;
    RandomEngine prng(53);
    models::TempoNet model(
        cfg, models::dilated_conv_factory(prng, cfg.dilations), prng);
    model.eval();
    constexpr int kPlansPerRep = 3;
    const int reps = quick ? 3 : 5;
    const auto build_many = [&] {
      for (int i = 0; i < kPlansPerRep; ++i) {
        runtime::compile_plan(model);
      }
    };
    plan_build_ms = time_min_ms(build_many, reps) / kPlansPerRep;
    const bool prev = runtime::analysis::set_verify_enabled(false);
    plan_build_noverify_ms = time_min_ms(build_many, reps) / kPlansPerRep;
    runtime::analysis::set_verify_enabled(prev);
  }
  const double verify_overhead_frac =
      plan_build_noverify_ms > 0.0
          ? std::max(0.0, plan_build_ms - plan_build_noverify_ms) /
                plan_build_noverify_ms
          : 0.0;
  std::printf("\nplan build: %.3f ms verified, %.3f ms unverified "
              "(verify overhead %.1f%%)\n",
              plan_build_ms, plan_build_noverify_ms,
              verify_overhead_frac * 100.0);

  // The tracked acceptance number: worst batched (N >= 16) TempoNet speedup.
  double worst_batched_temponet = 1e300;
  for (const Row& r : rows) {
    if (r.model.rfind("temponet", 0) == 0 && r.batch >= 16) {
      worst_batched_temponet = std::min(worst_batched_temponet, r.speedup());
    }
  }
  if (worst_batched_temponet == 1e300) {
    worst_batched_temponet = 0.0;
  }
  std::printf("\nworst batched (N>=16) TempoNet speedup: %.2fx (target: "
              ">= 2x)\n",
              worst_batched_temponet);

  FILE* json = std::fopen("BENCH_runtime.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_runtime.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"max_threads\": %d,\n", max_threads);
  std::fprintf(json, "  \"worst_batched_temponet_speedup\": %.3f,\n",
               worst_batched_temponet);
  std::fprintf(json, "  \"plan_build_ms\": %.4f,\n", plan_build_ms);
  std::fprintf(json, "  \"plan_build_noverify_ms\": %.4f,\n",
               plan_build_noverify_ms);
  std::fprintf(json, "  \"verify_overhead_frac\": %.4f,\n",
               verify_overhead_frac);
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"model\": \"%s\", \"batch\": %lld, \"threads\": %d, "
                 "\"module_ms\": %.4f, \"compiled_ms\": %.4f, "
                 "\"speedup\": %.3f}%s\n",
                 r.model.c_str(), static_cast<long long>(r.batch), r.threads,
                 r.module_ms, r.compiled_ms, r.speedup(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_runtime.json (%zu rows)\n", rows.size());
  return 0;
}
