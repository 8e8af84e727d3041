// Shared pieces of the pitperf benchmark: clock, sample statistics,
// result metrics, the host fingerprint, and the in-memory span tracer.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace pitperf {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Nearest-rank percentile of `v` (sorted copy); 0 for an empty sample.
double percentile(std::vector<double> v, double pct);
double median(std::vector<double> v);


/// Tail latency robust to one host stall: `v` (in arrival order) is cut
/// into consecutive windows of `window` samples, each window's `pct`
/// percentile is taken, and the median of those is returned. With fewer
/// than two windows' worth of samples it is the plain percentile.
double windowed_percentile(const std::vector<double>& v, double pct,
                           std::size_t window);

// Tail latency as every workload reports it: within each window of 100
// consecutive samples the highest percentile with ten samples beyond it is
// p90; the tail is the median of the per-window p90s, so one host stall
// moves it little.
inline constexpr double kTailPct = 90.0;
inline constexpr std::size_t kTailWindow = 100;
inline double tail_latency(const std::vector<double>& v) {
  return windowed_percentile(v, kTailPct, kTailWindow);
}

/// Set-ups per untraced run; setup_s is their median. The first ones run
/// on cold caches and page in the library, so the median leans on the
/// warm ones.
inline constexpr int kSetups = 9;

/// How far the layer times on a request's blocking path may stray from
/// the untraced end-to-end p50, as a share of it (trace.accounted_ok).
inline constexpr double kAccountTol = 0.25;

/// One reported metric: name, value, unit — printed in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  const std::vector<Metric>& items() const { return items_; }
  std::string json() const;  ///< {"name": {"value": v, "unit": u}, ...}

 private:
  std::vector<Metric> items_;
};

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Host and build fingerprint: results whose fingerprints differ are not
/// comparable (perfbench/compare.py refuses them).
std::string fingerprint_json();

/// Restricts the calling thread's CPU affinity while it lives (threads
/// started meanwhile inherit the restriction) and restores it afterwards.
/// The load generator runs on the highest allowed CPU and the server's
/// threads are started on the others, so the scheduler never moves them
/// around the spinning generator. A no-op when fewer than two CPUs are
/// allowed.
class ScopedAffinity {
 public:
  enum Which { kLastCpu, kAllButLast };
  explicit ScopedAffinity(Which which);
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t old_{};
  bool changed_ = false;
};

/// JSON string literal with the characters JSON requires escaped.
std::string json_str(const std::string& s);

// ---- Tracing ---------------------------------------------------------
//
// Spans around the benchmark's own calls into each layer. Recording is a
// push_back into a preallocated vector; with tracing off begin() returns
// -1 and end() ignores it, so untraced runs pay one branch per call site.

struct Span {
  const char* name = "";
  std::uint64_t req = 0;  ///< request id shared by one request's spans
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1U << 20);
    }
  }
  void set_enabled(bool on) { enabled_ = on; }

  std::int32_t begin(const char* name, std::uint64_t req,
                     std::int32_t parent = -1) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back(Span{name, req, parent, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Records a span whose start was taken earlier (e.g. a scheduled time).
  std::int32_t begin_at(const char* name, std::uint64_t req,
                        std::int64_t start_ns, std::int32_t parent = -1) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back(Span{name, req, parent, start_ns, 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t idx) {
    if (idx >= 0) {
      spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    }
  }

  void end_at(std::int32_t idx, std::int64_t end_ns) {
    if (idx >= 0) {
      spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
    }
  }

  /// Attaches an already-recorded span to its request once it is known.
  void adopt(std::int32_t idx, std::int32_t parent, std::uint64_t req) {
    if (idx >= 0) {
      spans_[static_cast<std::size_t>(idx)].parent = parent;
      spans_[static_cast<std::size_t>(idx)].req = req;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (us) of every closed span named `name`.
  std::vector<double> durations_us(const char* name) const;
  /// Writes every span as one JSON document; false on I/O failure.
  bool write(const std::string& path, const std::string& workload) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span for call sites that open and close in one scope.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, std::uint64_t req = 0,
         std::int32_t parent = -1)
      : tracer_(t), idx_(t.begin(name, req, parent)) {}
  ~Scoped() { tracer_.end(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t idx_;
};

}  // namespace pitperf
