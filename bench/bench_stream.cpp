// Streaming serving bench: fp32 vs int8 single-step execution, and
// cross-session tick micro-batching at scale.
//
// Compiles TempoNet's conv backbone (the paper's continuous-sensing
// deployment: one PPG/accelerometer tick at a time) at paper width, both
// fp32 and int8-lowered, then measures:
//
//   single    — one session stepped as fast as possible, per dtype: the
//               dtype bar (int8 streaming >= 1.5x fp32 streaming where
//               the VNNI kernels resolve).
//   unbatched — S sessions advanced one step each by a sequential loop of
//               step() calls (the naive fleet loop).
//   tick      — the same S sessions advanced through one
//               SessionManager::step_tick call (the batching bar: >= 2x
//               unbatched at >= 64 sessions on a multi-core host).
//
// Reports session-steps/sec and p50/p99 per-step latency (per-step
// equivalent = tick wall / sessions for tick mode) and writes
// BENCH_stream.json in the cwd.
//
//   ./bench_stream [--quick]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "models/temponet.hpp"
#include "nn/kernels/registry.hpp"
#include "runtime/quantize_plan.hpp"
#include "serve/session_manager.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace pit;
using bench::us_between;
using bench::Percentiles;
using bench::percentiles;
using clock_type = bench::BenchClock;

struct Row {
  std::string dtype;
  std::string mode;  // single | unbatched | tick
  int sessions = 0;
  std::uint64_t session_steps = 0;
  double wall_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double steps_per_sec() const {
    return wall_us > 0.0
               ? 1e6 * static_cast<double>(session_steps) / wall_us
               : 0.0;
  }
};

/// Deterministic synthetic sensor tick.
void fill_input(int session, index_t t, float* out, index_t c) {
  for (index_t i = 0; i < c; ++i) {
    out[i] = 0.8F * std::sin(0.05F * static_cast<float>(t) *
                             static_cast<float>(i + 1)) +
             0.01F * static_cast<float>(session % 13);
  }
}

/// One session, `steps` ticks, per-step latency recorded.
Row drive_single(const std::shared_ptr<const runtime::CompiledPlan>& plan,
                 const std::string& dtype, index_t steps) {
  const index_t c = plan->input_channels();
  const index_t co = plan->output_channels();
  std::vector<float> in(static_cast<std::size_t>(c));
  std::vector<float> out(static_cast<std::size_t>(co));
  runtime::ExecutionContext ctx;
  // Warm-up: binds the stream state and touches every ring page.
  for (index_t t = 0; t < 32; ++t) {
    fill_input(0, t, in.data(), c);
    plan->step(in.data(), out.data(), ctx);
  }
  ctx.reset_stream();
  std::vector<double> lat;
  lat.reserve(static_cast<std::size_t>(steps));
  const auto wall0 = clock_type::now();
  for (index_t t = 0; t < steps; ++t) {
    fill_input(0, t, in.data(), c);
    const auto t0 = clock_type::now();
    plan->step(in.data(), out.data(), ctx);
    lat.push_back(us_between(t0, clock_type::now()));
  }
  const auto wall1 = clock_type::now();
  const Percentiles pct = percentiles(lat);
  Row row;
  row.dtype = dtype;
  row.mode = "single";
  row.sessions = 1;
  row.session_steps = static_cast<std::uint64_t>(steps);
  row.wall_us = us_between(wall0, wall1);
  row.p50_us = pct.p50;
  row.p99_us = pct.p99;
  return row;
}

/// S sessions x `steps` ticks through a SessionManager, either one
/// step() per session per tick (unbatched) or one step_tick per tick.
Row drive_sessions(const std::shared_ptr<const runtime::CompiledPlan>& plan,
                   const std::string& dtype, int sessions, index_t steps,
                   bool tick) {
  const index_t c = plan->input_channels();
  const index_t co = plan->output_channels();
  serve::SessionManager manager(plan);
  std::vector<serve::SessionManager::SessionId> ids;
  ids.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    ids.push_back(manager.open());
  }
  std::vector<float> inputs(static_cast<std::size_t>(sessions) *
                            static_cast<std::size_t>(c));
  std::vector<float> outputs(static_cast<std::size_t>(sessions) *
                             static_cast<std::size_t>(co));
  const auto run_tick = [&](index_t t) {
    for (int s = 0; s < sessions; ++s) {
      fill_input(s, t, inputs.data() + static_cast<std::size_t>(s) * c, c);
    }
    if (tick) {
      manager.step_tick(ids.data(), ids.size(), inputs.data(),
                        outputs.data());
    } else {
      for (int s = 0; s < sessions; ++s) {
        manager.step(ids[static_cast<std::size_t>(s)],
                     inputs.data() + static_cast<std::size_t>(s) * c,
                     outputs.data() + static_cast<std::size_t>(s) * co);
      }
    }
  };
  run_tick(0);  // warm-up (pool spin-up, ring binding)
  for (auto id : ids) {
    manager.reset(id);
  }
  std::vector<double> lat;  // per-step-equivalent latency per tick
  lat.reserve(static_cast<std::size_t>(steps));
  const auto wall0 = clock_type::now();
  for (index_t t = 0; t < steps; ++t) {
    const auto t0 = clock_type::now();
    run_tick(t);
    lat.push_back(us_between(t0, clock_type::now()) /
                  static_cast<double>(sessions));
  }
  const auto wall1 = clock_type::now();
  const Percentiles pct = percentiles(lat);
  Row row;
  row.dtype = dtype;
  row.mode = tick ? "tick" : "unbatched";
  row.sessions = sessions;
  row.session_steps =
      static_cast<std::uint64_t>(steps) * static_cast<std::uint64_t>(sessions);
  row.wall_us = us_between(wall0, wall1);
  row.p50_us = pct.p50;
  row.p99_us = pct.p99;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  const int hw_threads = static_cast<int>(
      std::max(1U, std::thread::hardware_concurrency()));

  // Paper-width TempoNet backbone (the deployed streaming network).
  models::TempoNetConfig cfg;
  cfg.channel_scale = 1.0;
  cfg.input_length = 256;
  RandomEngine rng(59);
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, cfg.dilations), rng);
  model.train();
  model.forward(Tensor::randn(Shape{8, cfg.input_channels, 256}, rng));
  model.eval();
  const auto fp32 = runtime::compile_stream_backbone(model, 256);

  std::vector<Tensor> calib_rows;
  std::vector<Tensor> calib_targets;
  for (int i = 0; i < 16; ++i) {
    calib_rows.push_back(
        Tensor::randn(Shape{cfg.input_channels, index_t{256}}, rng));
    calib_targets.push_back(Tensor::zeros(Shape{1}));
  }
  data::TensorDataset calib(std::move(calib_rows), std::move(calib_targets));
  data::DataLoader loader(calib, 4, /*shuffle=*/false);
  const auto int8 = runtime::quantize_plan(*fp32, loader);

  const std::size_t session_shards = serve::SessionManager(fp32).num_shards();
  std::printf("streaming: TempoNet conv backbone (paper width), %lld -> "
              "%lld channels per step; i8 kernels: %s; session shards: %zu\n",
              static_cast<long long>(fp32->input_channels()),
              static_cast<long long>(fp32->output_channels()),
              nn::kernels::Registry::instance().i8_isa(), session_shards);
  std::printf("%-6s %-10s %9s %14s %9s %9s\n", "dtype", "mode", "sessions",
              "steps/sec", "p50_us", "p99_us");

  std::vector<Row> rows;
  const auto emit = [&](Row row) {
    std::printf("%-6s %-10s %9d %13.0f/s %9.2f %9.2f\n", row.dtype.c_str(),
                row.mode.c_str(), row.sessions, row.steps_per_sec(),
                row.p50_us, row.p99_us);
    rows.push_back(std::move(row));
  };

  const index_t single_steps = quick ? 1500 : 6000;
  emit(drive_single(fp32, "fp32", single_steps));
  emit(drive_single(int8, "int8", single_steps));

  const std::vector<int> session_counts =
      quick ? std::vector<int>{16, 64} : std::vector<int>{16, 64, 256};
  const index_t tick_steps = quick ? 24 : 64;
  for (const auto& [dtype, plan] :
       {std::pair{std::string("fp32"), fp32},
        std::pair{std::string("int8"), int8}}) {
    for (const int sessions : session_counts) {
      emit(drive_sessions(plan, dtype, sessions, tick_steps, false));
      emit(drive_sessions(plan, dtype, sessions, tick_steps, true));
    }
  }

  // Bars. int8-over-fp32 on the single-session rows; tick-over-unbatched
  // as the best int8 ratio at >= 64 sessions.
  double fp32_single = 0.0;
  double int8_single = 0.0;
  double tick_speedup = 0.0;
  for (const Row& r : rows) {
    if (r.mode == "single") {
      (r.dtype == "fp32" ? fp32_single : int8_single) = r.steps_per_sec();
    }
  }
  for (const Row& a : rows) {
    if (a.dtype != "int8" || a.mode != "tick" || a.sessions < 64) {
      continue;
    }
    for (const Row& b : rows) {
      if (b.dtype == "int8" && b.mode == "unbatched" &&
          b.sessions == a.sessions && b.steps_per_sec() > 0.0) {
        tick_speedup =
            std::max(tick_speedup, a.steps_per_sec() / b.steps_per_sec());
      }
    }
  }
  const double dtype_speedup =
      fp32_single > 0.0 ? int8_single / fp32_single : 0.0;
  std::printf("\nint8 over fp32 single-session streaming: %.2fx (target: "
              ">= 1.5x where the i8 kernels resolve to vnni)\n",
              dtype_speedup);
  std::printf("tick over unbatched at >= 64 sessions (int8): %.2fx "
              "(target: >= 2x on a multi-core host; %d hardware threads "
              "here)\n",
              tick_speedup, hw_threads);

  FILE* json = bench::open_bench_json("BENCH_stream.json");
  if (json == nullptr) {
    return 1;
  }
  std::fprintf(json, "{\n  \"hardware_threads\": %d,\n", hw_threads);
  std::fprintf(json, "  \"session_shards\": %zu,\n", session_shards);
  std::fprintf(json, "  \"i8_kernel_variant\": \"%s\",\n",
               nn::kernels::Registry::instance().i8_isa());
  std::fprintf(json, "  \"model\": \"temponet_backbone_paper\",\n");
  std::fprintf(json, "  \"int8_over_fp32_stream_speedup\": %.3f,\n",
               dtype_speedup);
  std::fprintf(json, "  \"tick_over_unbatched_speedup\": %.3f,\n",
               tick_speedup);
  // Rows per mode, so the gate can require every mode to have run.
  auto mode_rows = [&](const char* mode) {
    return std::count_if(rows.begin(), rows.end(),
                         [&](const Row& r) { return r.mode == mode; });
  };
  std::fprintf(json,
               "  \"mode_rows\": {\"single\": %td, \"unbatched\": %td, "
               "\"tick\": %td},\n",
               mode_rows("single"), mode_rows("unbatched"), mode_rows("tick"));
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"dtype\": \"%s\", \"mode\": \"%s\", "
                 "\"sessions\": %d, \"steps_per_sec\": %.1f, "
                 "\"p50_us\": %.3f, \"p99_us\": %.3f}%s\n",
                 r.dtype.c_str(), r.mode.c_str(), r.sessions,
                 r.steps_per_sec(), r.p50_us, r.p99_us,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_stream.json (%zu rows)\n", rows.size());
  return 0;
}
