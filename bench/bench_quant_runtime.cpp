// int8 quantized compiled runtime vs. the fp32 compiled plan.
//
// Builds trained-shaped TempoNet / ResTCN instances, compiles both the
// fp32 plan and the calibrated int8 lowering, gates on the analytic
// parity bound, then times fp32 vs int8 forwards across batch sizes and
// thread counts. Also records per-layer accuracy deltas against the float
// reference and cross-checks every op's MAC count against the analytical
// hw::gap8 model. Emits BENCH_quant.json in the cwd.
//
//   ./bench_quant_runtime [--quick]
//
// The acceptance bar tracked here: int8 compiled TempoNet throughput
// >= 1.5x the fp32 compiled plan at batch >= 16 on an AVX2+ host (the
// win comes from the AVX512-VNNI byte dot product where available — the
// resolved kernel variant is recorded in the JSON).
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

#include "bench_common.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "hw/gap8.hpp"
#include "models/restcn.hpp"
#include "models/temponet.hpp"
#include "nn/kernels/registry.hpp"
#include "runtime/quantize_plan.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace pit;
using bench::time_min_ms;

struct Row {
  std::string model;
  index_t batch = 0;
  int threads = 0;
  double fp32_ms = 0.0;
  double int8_ms = 0.0;
  double speedup() const { return int8_ms > 0.0 ? fp32_ms / int8_ms : 0.0; }
};

struct LayerRow {
  std::string model;
  std::size_t op = 0;
  std::string desc;
  double max_abs_err = 0.0;
  double mean_abs_err = 0.0;
  double bound = 0.0;
  double macs_plan = 0.0;
  double macs_gap8 = 0.0;
  bool macs_match = false;
};

struct BenchCase {
  std::string name;
  std::shared_ptr<const runtime::CompiledPlan> fp32;
  std::shared_ptr<const runtime::CompiledPlan> int8;
  index_t input_channels = 0;
  index_t input_steps = 0;
};

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

BenchCase make_temponet_case(const std::string& name, double channel_scale,
                             index_t input_length) {
  models::TempoNetConfig cfg;
  cfg.channel_scale = channel_scale;
  cfg.input_length = input_length;
  RandomEngine rng(29);
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, cfg.dilations), rng);
  model.train();
  model.forward(Tensor::randn(Shape{8, cfg.input_channels, input_length},
                              rng));
  model.eval();
  BenchCase c;
  c.name = name;
  c.fp32 = runtime::compile_plan(model);
  data::TensorDataset calib =
      random_dataset(32, cfg.input_channels, input_length, rng);
  data::DataLoader loader(calib, 8, /*shuffle=*/false);
  c.int8 = runtime::compile_quantized(model, loader);
  c.input_channels = cfg.input_channels;
  c.input_steps = input_length;
  return c;
}

BenchCase make_restcn_case(const std::string& name, index_t hidden,
                           index_t input_steps) {
  models::ResTcnConfig cfg;
  cfg.hidden_channels = hidden;
  RandomEngine rng(31);
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {2, 4, 8, 8, 16, 16, 32, 32}),
      rng);
  model.eval();
  BenchCase c;
  c.name = name;
  c.fp32 = runtime::compile_plan(model, input_steps);
  data::TensorDataset calib =
      random_dataset(16, cfg.input_channels, input_steps, rng);
  data::DataLoader loader(calib, 4, /*shuffle=*/false);
  c.int8 = runtime::compile_quantized(model, input_steps, loader);
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

hw::LayerDesc to_gap8_desc(const runtime::CompiledPlan::OpInfo& info) {
  hw::LayerDesc desc;
  switch (info.kind) {
    case runtime::detail::OpKind::kConv:
      desc.kind = hw::LayerKind::kConv;
      break;
    case runtime::detail::OpKind::kLinear:
      desc.kind = hw::LayerKind::kLinear;
      break;
    case runtime::detail::OpKind::kAvgPool:
      desc.kind = hw::LayerKind::kPool;
      break;
    case runtime::detail::OpKind::kAdd:
      desc.kind = hw::LayerKind::kPool;  // no gap8 add model; skipped
      break;
  }
  desc.cin = info.c_in;
  desc.cout = info.c_out;
  desc.k = info.k;
  desc.dilation = info.dilation;
  desc.stride = info.stride;
  desc.t_in = info.t_in;
  desc.t_out = info.t_out;
  return desc;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";

  // The paper-sized TempoNet is always measured — it carries the tracked
  // acceptance number. The quarter-scale miniature stays in the sweep as
  // an honest lower bound: at 8-32 channels the 16-wide int8 co tiles run
  // half empty and int8 only breaks even with fp32.
  std::vector<BenchCase> cases;
  cases.push_back(make_temponet_case("temponet_scaled", 0.25, 64));
  cases.push_back(make_restcn_case("restcn_scaled", 16, 48));
  cases.push_back(make_temponet_case("temponet_paper", 1.0, 256));

  const std::vector<index_t> batches =
      quick ? std::vector<index_t>{1, 16}
            : std::vector<index_t>{1, 8, 16, 32, 64};
  const int max_threads = hardware_threads();
  std::vector<int> thread_counts{1};
  if (max_threads > 1) {
    thread_counts.push_back(max_threads);
  }

  std::printf("int8 quantized runtime vs fp32 compiled plan (min over reps, "
              "ms; i8 kernels: %s)\n",
              nn::kernels::Registry::instance().i8_isa());
  std::printf("%-16s %5s %7s %11s %12s %8s\n", "model", "batch", "threads",
              "fp32_ms", "int8_ms", "speedup");

  std::vector<Row> rows;
  std::vector<LayerRow> layer_rows;
  const hw::Gap8Model gap8;
  bool macs_all_match = true;
  RandomEngine rng(41);
  for (BenchCase& c : cases) {
    // Parity gate before timing anything: the analytic bound must hold.
    {
      Tensor x = Tensor::randn(Shape{4, c.input_channels, c.input_steps},
                               rng);
      runtime::ExecutionContext fctx;
      runtime::ExecutionContext qctx;
      const Tensor want = c.fp32->forward(x, fctx);
      const Tensor got = c.int8->forward(x, qctx);
      float diff = 0.0F;
      for (index_t i = 0; i < want.numel(); ++i) {
        diff = std::max(diff, std::abs(want.data()[i] - got.data()[i]));
      }
      const double bound = c.int8->quant_error_bound();
      const double estimate = c.int8->quant_error_estimate();
      std::printf("%-16s parity: max |int8 - fp32| = %.3e (bound %.3e, "
                  "rms estimate %.3e)\n",
                  c.name.c_str(), static_cast<double>(diff), bound,
                  estimate);
      // Gate on both figures: the hard bound is the guarantee, but it is
      // vacuously loose at depth — the few-sigma RMS gate is what actually
      // catches a regressed lowering (same margins as the parity tests).
      if (diff > bound * 1.02 + 1e-3 ||
          diff > 10.0 * estimate + 1e-3) {
        std::fprintf(stderr,
                     "%s: int8 output error %.3e outside the analytic "
                     "bound (%.3e) or 10x the rms estimate (%.3e)\n",
                     c.name.c_str(), static_cast<double>(diff), bound,
                     estimate);
        return 1;
      }
    }
    // Per-layer accuracy deltas + MAC cross-check vs the gap8 model.
    {
      Tensor x = Tensor::randn(Shape{4, c.input_channels, c.input_steps},
                               rng);
      const auto deltas = runtime::compare_quantized_layers(*c.int8, x);
      const auto infos = c.int8->op_infos();
      for (const auto& d : deltas) {
        LayerRow lr;
        lr.model = c.name;
        lr.op = d.op;
        lr.desc = d.desc;
        lr.max_abs_err = d.max_abs_err;
        lr.mean_abs_err = d.mean_abs_err;
        lr.bound = d.bound;
        const auto& info = infos[d.op];
        lr.macs_plan = static_cast<double>(info.macs());
        if (info.kind != runtime::detail::OpKind::kAdd) {
          lr.macs_gap8 = gap8.layer_perf(to_gap8_desc(info)).macs;
          lr.macs_match = lr.macs_plan == lr.macs_gap8;
          macs_all_match = macs_all_match && lr.macs_match;
        } else {
          lr.macs_gap8 = 0.0;  // elementwise adds carry no MACs
          lr.macs_match = true;
        }
        layer_rows.push_back(lr);
      }
    }
    for (const index_t n : batches) {
      Tensor x =
          Tensor::randn(Shape{n, c.input_channels, c.input_steps}, rng);
      for (const int threads : thread_counts) {
        set_threads(threads);
        const int reps = n <= 16 ? 7 : 4;
        runtime::ExecutionContext fctx;
        runtime::ExecutionContext qctx;
        Row row;
        row.model = c.name;
        row.batch = n;
        row.threads = threads;
        row.fp32_ms =
            time_min_ms([&] { c.fp32->forward(x, fctx); }, reps);
        row.int8_ms =
            time_min_ms([&] { c.int8->forward(x, qctx); }, reps);
        std::printf("%-16s %5lld %7d %11.3f %12.3f %7.2fx\n",
                    row.model.c_str(), static_cast<long long>(row.batch),
                    row.threads, row.fp32_ms, row.int8_ms, row.speedup());
        rows.push_back(row);
      }
    }
  }
  set_threads(max_threads);

  // The tracked acceptance number: worst batched (N >= 16) int8-over-fp32
  // speedup of the paper-sized TempoNet (the network the paper deploys).
  double worst_batched_temponet = 1e300;
  for (const Row& r : rows) {
    if (r.model == "temponet_paper" && r.batch >= 16) {
      worst_batched_temponet = std::min(worst_batched_temponet, r.speedup());
    }
  }
  if (worst_batched_temponet == 1e300) {
    worst_batched_temponet = 0.0;
  }
  std::printf("\nworst batched (N>=16) paper-TempoNet int8 speedup: %.2fx "
              "(target: >= 1.5x with a VNNI-capable CPU)\n",
              worst_batched_temponet);
  std::printf("gap8 MAC cross-check: %s\n",
              macs_all_match ? "all ops match" : "MISMATCH");

  FILE* json = bench::open_bench_json("BENCH_quant.json");
  if (json == nullptr) {
    return 1;
  }
  std::fprintf(json, "{\n  \"max_threads\": %d,\n", max_threads);
  std::fprintf(json, "  \"i8_kernel_variant\": \"%s\",\n",
               nn::kernels::Registry::instance().i8_isa());
  std::fprintf(json, "  \"worst_batched_temponet_int8_speedup\": %.3f,\n",
               worst_batched_temponet);
  std::fprintf(json, "  \"gap8_macs_all_match\": %s,\n",
               macs_all_match ? "true" : "false");
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"model\": \"%s\", \"batch\": %lld, \"threads\": %d, "
                 "\"fp32_ms\": %.4f, \"int8_ms\": %.4f, "
                 "\"speedup\": %.3f}%s\n",
                 r.model.c_str(), static_cast<long long>(r.batch), r.threads,
                 r.fp32_ms, r.int8_ms, r.speedup(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"layers\": [\n");
  for (std::size_t i = 0; i < layer_rows.size(); ++i) {
    const LayerRow& l = layer_rows[i];
    std::fprintf(json,
                 "    {\"model\": \"%s\", \"op\": %zu, \"desc\": \"%s\", "
                 "\"max_abs_err\": %.6e, \"mean_abs_err\": %.6e, "
                 "\"bound\": %.6e, \"macs_plan\": %.0f, \"macs_gap8\": %.0f, "
                 "\"macs_match\": %s}%s\n",
                 l.model.c_str(), l.op, l.desc.c_str(), l.max_abs_err,
                 l.mean_abs_err, l.bound, l.macs_plan, l.macs_gap8,
                 l.macs_match ? "true" : "false",
                 i + 1 < layer_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_quant.json (%zu rows, %zu layer rows)\n",
              rows.size(), layer_rows.size());
  return macs_all_match ? 0 : 1;
}
