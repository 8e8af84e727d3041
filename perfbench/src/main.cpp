// pitperf — the repository benchmark (see perfbench/README.md).
//
//   pitperf --workload submit|mixed|search --seed N --seconds S
//           --trace 0|1 [--trace-out PATH]
//
// Prints progress and a `# detail` JSON line, then as the LAST line one
// JSON object: {"correct", "attempted", "failed", "metrics", ...}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from the traced run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "probes.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload submit|mixed|search --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pitperf::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      return usage(argv[0]);
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--trace-out") {
      args.trace_out = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || args.seconds <= 0.0) {
    return usage(argv[0]);
  }
  try {
    pitperf::RunOutput out = args.workload == "search"
                                 ? pitperf::run_search(args)
                                 : pitperf::run_serving(args);
    std::printf("# detail {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
                "\"fingerprint\": %s, \"run\": %s}\n",
                pitperf::json_str(args.workload).c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                pitperf::fingerprint_json().c_str(), out.detail.c_str());
    if (args.trace) {
      const double f = out.metrics.get("trace.accounted_frac");
      const bool ok = std::fabs(f - 1.0) <= pitperf::kAccountTol;
      out.metrics.set("trace.accounted_ok", ok ? 1.0 : 0.0, "count");
      std::printf("# trace accounting: the blocking-path layer times add up to "
                  "%.3f of the untraced p50 (tolerance 1 +- %.2f): %s\n",
                  f, pitperf::kAccountTol, ok ? "ok" : "OUT OF TOLERANCE");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                out.metrics.json().c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pitperf: %s\n", e.what());
    return 1;
  }
  return 0;
}
