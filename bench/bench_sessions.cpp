// Session-fleet bench: the sharded SessionManager at resident scale.
//
// Two questions, two sections in BENCH_sessions.json:
//
//   resident   — open N sessions, step every one of them once, close them
//                all, at N = 10k and 100k (--full adds 1M): open/step/
//                close throughput and p99.9 latency per phase, plus the
//                eviction count during stepping — at steady state a
//                resident fleet must step with ZERO evictions (no
//                eviction thrash; gated in CI).
//   contention — T threads churning open/step*16/close on a single-shard
//                manager (the old global-mutex behavior) vs the sharded
//                default: session-steps/sec for both and the ratio as
//                sharded_over_single_speedup (>= 2x on >= 4 hardware
//                threads; loud skip below that — a 1-core runner cannot
//                observe contention).
//
// The model is deliberately tiny (4 -> 4 channels, hidden 8): per-step
// compute is small so registry and allocator costs dominate — this bench
// measures the fleet machinery, not the conv kernels (bench_stream does
// that).
//
//   ./bench_sessions [--quick|--full]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "models/restcn.hpp"
#include "runtime/compile_models.hpp"
#include "serve/session_manager.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace pit;
using bench::us_between;
using clock_type = bench::BenchClock;

std::shared_ptr<const runtime::CompiledPlan> tiny_plan() {
  RandomEngine rng(97);
  models::ResTcnConfig cfg;
  cfg.input_channels = 4;
  cfg.output_channels = 4;
  cfg.hidden_channels = 8;
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 2, 4, 8}), rng);
  model.eval();
  return runtime::compile_plan(model, 16);
}

void fill_input(std::uint64_t session, std::uint64_t t, float* out,
                index_t c) {
  for (index_t i = 0; i < c; ++i) {
    out[i] = std::sin(0.05F * static_cast<float>(t + 1) *
                      static_cast<float>(i + 1)) +
             0.01F * static_cast<float>(session % 13);
  }
}

double p999(std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<std::size_t>(
      0.999 * static_cast<double>(samples.size() - 1))];
}

struct PhaseFigures {
  double per_sec = 0.0;
  double p999_us = 0.0;
};

PhaseFigures figures(std::vector<double>& lat, double wall_us) {
  PhaseFigures out;
  out.per_sec = wall_us > 0.0
                    ? 1e6 * static_cast<double>(lat.size()) / wall_us
                    : 0.0;
  out.p999_us = p999(lat);
  return out;
}

struct ResidentRow {
  std::size_t resident = 0;
  PhaseFigures open;
  PhaseFigures step;
  PhaseFigures close;
  std::uint64_t evictions = 0;  // during the step phase; must be 0
};

/// Open N sessions, step each once (one fleet pass), close them all —
/// per-phase throughput and p99.9.
ResidentRow drive_resident(
    const std::shared_ptr<const runtime::CompiledPlan>& plan,
    std::size_t resident) {
  serve::SessionManagerOptions options;
  options.max_sessions = resident;
  options.idle_timeout = std::chrono::minutes(10);  // armed, never due
  serve::SessionManager manager(plan, options);
  const index_t c = plan->input_channels();
  const index_t co = plan->output_channels();
  std::vector<serve::SessionManager::SessionId> ids;
  ids.reserve(resident);
  std::vector<double> lat;
  lat.reserve(resident);
  ResidentRow row;
  row.resident = resident;

  auto wall0 = clock_type::now();
  for (std::size_t s = 0; s < resident; ++s) {
    const auto t0 = clock_type::now();
    ids.push_back(manager.open());
    lat.push_back(us_between(t0, clock_type::now()));
  }
  row.open = figures(lat, us_between(wall0, clock_type::now()));

  std::vector<float> in(static_cast<std::size_t>(c));
  std::vector<float> out(static_cast<std::size_t>(co));
  const std::uint64_t evicted_before = manager.stats().evicted;
  lat.clear();
  wall0 = clock_type::now();
  for (std::size_t s = 0; s < resident; ++s) {
    fill_input(s, 0, in.data(), c);
    const auto t0 = clock_type::now();
    manager.step(ids[s], in.data(), out.data());
    lat.push_back(us_between(t0, clock_type::now()));
  }
  row.step = figures(lat, us_between(wall0, clock_type::now()));
  row.evictions = manager.stats().evicted - evicted_before;

  lat.clear();
  wall0 = clock_type::now();
  for (std::size_t s = 0; s < resident; ++s) {
    const auto t0 = clock_type::now();
    manager.close(ids[s]);
    lat.push_back(us_between(t0, clock_type::now()));
  }
  row.close = figures(lat, us_between(wall0, clock_type::now()));
  return row;
}

/// T threads churning open -> 16 steps -> close against one manager.
/// Returns session-steps/sec.
double drive_contention(
    const std::shared_ptr<const runtime::CompiledPlan>& plan,
    std::size_t shards, int threads, int rounds_per_thread) {
  serve::SessionManagerOptions options;
  options.shards = shards;
  options.max_sessions = static_cast<std::size_t>(threads) * 4;
  serve::SessionManager manager(plan, options);
  const index_t c = plan->input_channels();
  const index_t co = plan->output_channels();
  constexpr int kStepsPerRound = 16;
  const auto churn = [&](int tid, int rounds) {
    std::vector<float> in(static_cast<std::size_t>(c));
    std::vector<float> out(static_cast<std::size_t>(co));
    for (int r = 0; r < rounds; ++r) {
      const auto id = manager.open();
      for (std::uint64_t t = 0; t < kStepsPerRound; ++t) {
        fill_input(static_cast<std::uint64_t>(tid), t, in.data(), c);
        manager.step(id, in.data(), out.data());
      }
      manager.close(id);
    }
  };
  churn(0, 2);  // warm-up: slot creation, ring binding, page faults
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  const auto wall0 = clock_type::now();
  for (int tid = 0; tid < threads; ++tid) {
    pool.emplace_back(churn, tid, rounds_per_thread);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  const double wall_us = us_between(wall0, clock_type::now());
  const double steps = static_cast<double>(threads) *
                       static_cast<double>(rounds_per_thread) *
                       kStepsPerRound;
  return wall_us > 0.0 ? 1e6 * steps / wall_us : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const bool quick = mode == "--quick";
  const bool full = mode == "--full";
  const int hw_threads = static_cast<int>(
      std::max(1U, std::thread::hardware_concurrency()));

  const auto plan = tiny_plan();
  serve::SessionManager probe(plan);
  const std::size_t shards_auto = probe.num_shards();

  std::printf("session fleet: tiny ResTCN (4 -> 4 ch), %d hardware "
              "threads, auto shards = %zu\n",
              hw_threads, shards_auto);

  // ---- resident scale ------------------------------------------------
  std::vector<std::size_t> scales{10000, 100000};
  if (quick) {
    scales = {10000, 100000};
  } else if (full) {
    scales.push_back(1000000);
  }
  std::printf("%-9s %14s %12s %14s %12s %14s %12s %10s\n", "resident",
              "open/sec", "open_p999", "step/sec", "step_p999",
              "close/sec", "close_p999", "evictions");
  std::vector<ResidentRow> resident_rows;
  for (const std::size_t resident : scales) {
    ResidentRow row = drive_resident(plan, resident);
    std::printf("%-9zu %13.0f/s %10.2fus %13.0f/s %10.2fus %13.0f/s "
                "%10.2fus %10llu\n",
                row.resident, row.open.per_sec, row.open.p999_us,
                row.step.per_sec, row.step.p999_us, row.close.per_sec,
                row.close.p999_us,
                static_cast<unsigned long long>(row.evictions));
    resident_rows.push_back(row);
  }

  // ---- contention: single shard vs sharded ---------------------------
  const int threads = std::min(hw_threads, 8);
  const int rounds = quick ? 150 : 400;
  const double single_ops = drive_contention(plan, 1, threads, rounds);
  const double sharded_ops =
      drive_contention(plan, shards_auto, threads, rounds);
  const double speedup = single_ops > 0.0 ? sharded_ops / single_ops : 0.0;
  std::printf("\ncontention (%d threads, open/step*16/close churn):\n",
              threads);
  std::printf("  shards=1:   %13.0f steps/sec\n", single_ops);
  std::printf("  shards=%-3zu %13.0f steps/sec\n", shards_auto, sharded_ops);
  std::printf("  sharded over single-shard: %.2fx (target: >= 2x at >= 4 "
              "hardware threads; %d here)\n",
              speedup, hw_threads);

  // The gated aggregates: the largest fleet measured, and the evictions
  // summed over every row at >= 100k resident sessions.
  std::size_t max_resident = 0;
  unsigned long long evictions_at_100k = 0;
  for (const ResidentRow& r : resident_rows) {
    max_resident = std::max(max_resident, r.resident);
    if (r.resident >= 100000) {
      evictions_at_100k += r.evictions;
    }
  }

  FILE* json = bench::open_bench_json("BENCH_sessions.json");
  if (json == nullptr) {
    return 1;
  }
  std::fprintf(json, "{\n  \"hardware_threads\": %d,\n", hw_threads);
  std::fprintf(json, "  \"shards_auto\": %zu,\n", shards_auto);
  std::fprintf(json, "  \"contention_threads\": %d,\n", threads);
  std::fprintf(json, "  \"single_shard_steps_per_sec\": %.1f,\n",
               single_ops);
  std::fprintf(json, "  \"sharded_steps_per_sec\": %.1f,\n", sharded_ops);
  std::fprintf(json, "  \"sharded_over_single_speedup\": %.3f,\n", speedup);
  std::fprintf(json, "  \"max_resident\": %zu,\n", max_resident);
  std::fprintf(json, "  \"evictions_at_100k\": %llu,\n", evictions_at_100k);
  std::fprintf(json, "  \"resident\": [\n");
  for (std::size_t i = 0; i < resident_rows.size(); ++i) {
    const ResidentRow& r = resident_rows[i];
    std::fprintf(json,
                 "    {\"resident\": %zu, "
                 "\"open_per_sec\": %.1f, \"open_p999_us\": %.3f, "
                 "\"step_per_sec\": %.1f, \"step_p999_us\": %.3f, "
                 "\"close_per_sec\": %.1f, \"close_p999_us\": %.3f, "
                 "\"evictions\": %llu}%s\n",
                 r.resident, r.open.per_sec, r.open.p999_us,
                 r.step.per_sec, r.step.p999_us, r.close.per_sec,
                 r.close.p999_us,
                 static_cast<unsigned long long>(r.evictions),
                 i + 1 < resident_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_sessions.json (%zu resident rows)\n",
              resident_rows.size());
  return 0;
}
