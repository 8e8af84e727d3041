// Per-layer probes and the workload entry points.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "models.hpp"

namespace pitperf {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file written by a traced run
};

struct RunOutput {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::string detail;  ///< JSON object with everything not in `metrics`
};

RunOutput run_serving(const RunArgs& args);
RunOutput run_search(const RunArgs& args);

/// Every per-layer metric name, with its unit, preset to 0 — a traced
/// run reports all of them; one the workload does not exercise stays 0.
void preset_per_layer(Metrics& m);

/// runtime.*: forward b1/b16 (fp32, int8), GMAC/s, streaming step,
/// PlanHandle::acquire, compile/quantize time, arena bytes.
void probe_runtime(const Served& sv, std::uint64_t seed, Metrics& m,
                   Tracer& tr);
/// kernels.*: the registry-bound conv kernels on the plan's conv
/// signatures at batch 16 (forward fp32/i8, training backward).
void probe_kernels(const pit::runtime::CompiledPlan& plan, Metrics& m,
                   Tracer& tr);
/// net.encode_ns / decode_ns / reader_ns_per_frame over the given pools.
void probe_codec(const SubmitOracle& sub, const StreamOracle& str, Metrics& m);

/// Batched forward time (us) at a fractional batch, interpolated between
/// the measured b1 and b16 points of `dtype`.
double forward_us_at(const Metrics& m, const std::string& dtype, double batch);

}  // namespace pitperf
