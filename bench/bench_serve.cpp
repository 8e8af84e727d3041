// Concurrent serving bench: micro-batching InferenceServer under load.
//
// Compiles the scaled TempoNet into one shared CompiledPlan, then drives
// it with closed-loop client threads (each submits a single sample, waits
// for its future, repeats) across a grid of worker counts and batching
// policies. Reports throughput and p50/p99 request latency per policy and
// emits BENCH_serve.json next to the binary's cwd.
//
//   ./bench_serve [--quick]
//
// The tracked acceptance number: batched multi-threaded serving must reach
// >= 2x the throughput of single-thread single-request serving (the
// max_batch=1, threads=1 direct loop every PR-2 caller was limited to).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_common.hpp"
#include "models/temponet.hpp"
#include "runtime/compile_models.hpp"
#include "serve/inference_server.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace pit;
using bench::ms_between;
using bench::Percentiles;
using bench::percentiles;
using clock_type = bench::BenchClock;

struct Row {
  std::string policy;
  int threads = 0;
  index_t max_batch = 0;
  int clients = 0;
  int requests = 0;
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
  double throughput_rps() const {
    return wall_ms > 0.0 ? 1000.0 * requests / wall_ms : 0.0;
  }
};

/// Closed-loop load: `clients` threads each fire `per_client` requests at
/// the server, one in flight per client.
Row drive_server(const std::shared_ptr<const runtime::CompiledPlan>& plan,
                 const serve::ServerOptions& options, int clients,
                 int per_client, const std::vector<Tensor>& samples,
                 const std::string& policy) {
  serve::InferenceServer server(plan, options);
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  const auto wall_start = clock_type::now();
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      auto& lat = latencies[static_cast<std::size_t>(c)];
      lat.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const Tensor& sample =
            samples[static_cast<std::size_t>(c + i) % samples.size()];
        const auto t0 = clock_type::now();
        server.submit(sample.clone()).get();
        lat.push_back(ms_between(t0, clock_type::now()));
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  const auto wall_end = clock_type::now();
  const serve::ServerStats stats = server.stats();

  std::vector<double> merged;
  for (auto& lat : latencies) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  const Percentiles pct = percentiles(merged);
  Row row;
  row.policy = policy;
  row.threads = options.threads;
  row.max_batch = options.max_batch;
  row.clients = clients;
  row.requests = clients * per_client;
  row.wall_ms = ms_between(wall_start, wall_end);
  row.p50_ms = pct.p50;
  row.p99_ms = pct.p99;
  row.mean_batch = stats.mean_batch();
  return row;
}

/// The PR-2 ceiling: one thread, one request at a time, straight through
/// the plan (no queue, no batching) — what serving looked like before.
Row drive_direct(const std::shared_ptr<const runtime::CompiledPlan>& plan,
                 int requests, const std::vector<Tensor>& samples) {
  runtime::ExecutionContext ctx;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(requests));
  const auto wall_start = clock_type::now();
  for (int i = 0; i < requests; ++i) {
    const Tensor& sample = samples[static_cast<std::size_t>(i) %
                                   samples.size()];
    const auto t0 = clock_type::now();
    plan->forward(sample, ctx);
    latencies.push_back(ms_between(t0, clock_type::now()));
  }
  const auto wall_end = clock_type::now();
  const Percentiles pct = percentiles(latencies);
  Row row;
  row.policy = "direct_single";
  row.threads = 1;
  row.max_batch = 1;
  row.clients = 1;
  row.requests = requests;
  row.wall_ms = ms_between(wall_start, wall_end);
  row.p50_ms = pct.p50;
  row.p99_ms = pct.p99;
  row.mean_batch = 1.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
#ifdef _OPENMP
  // Inter-request parallelism is the server's job; give the kernels one
  // thread each so worker counts, not OpenMP teams, are what is measured.
  omp_set_num_threads(1);
  const int hw_threads = omp_get_num_procs();
#else
  const int hw_threads = static_cast<int>(
      std::max(1U, std::thread::hardware_concurrency()));
#endif
  // Always include a genuine multi-worker policy, even on a single-core
  // box (where it measures the scheduling overhead rather than a win —
  // the >= 2x target needs real cores, which CI runners have).
  const int pool_threads = std::max(2, std::min(hw_threads, 8));

  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;
  RandomEngine rng(53);
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, cfg.dilations), rng);
  model.train();
  model.forward(Tensor::randn(Shape{8, cfg.input_channels, 64}, rng));
  model.eval();
  const auto plan = runtime::compile_plan(model);

  // Single (1, C, T) samples for the direct loop, (C, T) for submit().
  std::vector<Tensor> batched_samples;
  std::vector<Tensor> flat_samples;
  for (int i = 0; i < 16; ++i) {
    batched_samples.push_back(
        Tensor::randn(Shape{1, cfg.input_channels, 64}, rng));
    Tensor flat = Tensor::empty(Shape{cfg.input_channels, 64});
    std::copy(batched_samples.back().data(),
              batched_samples.back().data() + flat.numel(), flat.data());
    flat_samples.push_back(std::move(flat));
  }

  // Closed-loop clients bound the queue depth at `clients`, so keep at
  // least 2x max_batch of them in flight or batches could never fill.
  const index_t max_batch = 16;
  const int clients = std::max(32, 4 * pool_threads);
  const int per_client = (quick ? 4000 : 16000) / clients;
  const int requests = clients * per_client;

  std::printf("concurrent serving: TempoNet plan, closed-loop clients\n");
  std::printf("%-18s %7s %9s %7s %10s %8s %8s %10s\n", "policy", "threads",
              "max_batch", "clients", "throughput", "p50_ms", "p99_ms",
              "mean_batch");

  // Warm-up pass (thread pool spin-up, arena growth, page faults).
  drive_direct(plan, 200, batched_samples);

  // Every policy runs kPasses times, round-robin, with one direct pass
  // before each server pass and one after the last. A single pass moves
  // with whatever ran just before it (server_t4_b16 has read 60k-126k
  // req/s on a 4-vCPU host), so each row is its policy's median pass; the
  // direct_single median is also the speedup's denominator.
  constexpr int kPasses = 5;
  std::vector<Row> direct;
  std::vector<std::vector<Row>> passes;
  serve::ServerOptions options;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::size_t policy_index = 0;
    for (const int threads : {1, pool_threads}) {
      for (const index_t batch : {index_t{1}, max_batch}) {
        direct.push_back(drive_direct(plan, requests, batched_samples));
        options.threads = threads;
        options.max_batch = batch;
        const std::string policy = std::string("server_t") +
                                   std::to_string(threads) + "_b" +
                                   std::to_string(batch);
        if (passes.size() <= policy_index) {
          passes.emplace_back();
        }
        passes[policy_index++].push_back(drive_server(
            plan, options, clients, per_client, flat_samples, policy));
      }
    }
  }
  direct.push_back(drive_direct(plan, requests, batched_samples));
  passes.insert(passes.begin(), std::move(direct));
  std::vector<Row> rows;
  for (std::vector<Row>& runs : passes) {
    std::sort(runs.begin(), runs.end(), [](const Row& a, const Row& b) {
      return a.throughput_rps() < b.throughput_rps();
    });
    rows.push_back(runs[runs.size() / 2]);
  }
  for (const Row& row : rows) {
    std::printf("%-18s %7d %9lld %7d %9.0f/s %8.3f %8.3f %10.2f\n",
                row.policy.c_str(), row.threads,
                static_cast<long long>(row.max_batch), row.clients,
                row.throughput_rps(), row.p50_ms, row.p99_ms,
                row.mean_batch);
  }
  std::printf("\npasses per policy (req/s, sorted; each row is the median):\n");
  for (const std::vector<Row>& runs : passes) {
    std::printf("%-18s", runs.front().policy.c_str());
    for (const Row& pass : runs) {
      std::printf(" %.0f", pass.throughput_rps());
    }
    std::printf("\n");
  }

  // Acceptance: best batched multi-threaded policy vs single-thread
  // single-request serving (the direct loop — the PR-2 status quo; the
  // t1_b1 server row is the same thing paid through the queue).
  const double base_rps = rows[0].throughput_rps();
  double serial_server_rps = 0.0;
  double best_batched_rps = 0.0;
  std::string best_policy = "none";
  for (const Row& r : rows) {
    if (r.threads == 1 && r.max_batch == 1 && r.policy != "direct_single") {
      serial_server_rps = r.throughput_rps();
    }
    if (r.threads > 1 && r.max_batch > 1 &&
        r.throughput_rps() > best_batched_rps) {
      best_batched_rps = r.throughput_rps();
      best_policy = r.policy;
    }
  }
  const double speedup = base_rps > 0.0 ? best_batched_rps / base_rps : 0.0;
  std::printf("\nbatched multi-thread (%s) vs single-thread single-request: "
              "%.2fx (target: >= 2x on multi-core; %d hardware threads "
              "here)\n",
              best_policy.c_str(), speedup, hw_threads);

  FILE* json = bench::open_bench_json("BENCH_serve.json");
  if (json == nullptr) {
    return 1;
  }
  std::fprintf(json, "{\n  \"hardware_threads\": %d,\n", hw_threads);
  std::fprintf(json, "  \"pool_threads\": %d,\n", pool_threads);
  std::fprintf(json, "  \"requests_per_policy\": %d,\n", requests);
  std::fprintf(json, "  \"batched_over_single_speedup\": %.3f,\n", speedup);
  std::fprintf(json,
               "  \"batched_over_serial_server_speedup\": %.3f,\n",
               serial_server_rps > 0.0 ? best_batched_rps / serial_server_rps
                                       : 0.0);
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"policy\": \"%s\", \"threads\": %d, "
                 "\"max_batch\": %lld, \"clients\": %d, "
                 "\"throughput_rps\": %.1f, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"mean_batch\": %.2f}%s\n",
                 r.policy.c_str(), r.threads,
                 static_cast<long long>(r.max_batch), r.clients,
                 r.throughput_rps(), r.p50_ms, r.p99_ms, r.mean_batch,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_serve.json (%zu rows)\n", rows.size());
  return 0;
}
