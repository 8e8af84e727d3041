#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <fstream>

#include "nn/kernels/registry.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#ifndef PITPERF_COMPILER
#define PITPERF_COMPILER "unknown"
#endif
#ifndef PITPERF_BUILD_TYPE
#define PITPERF_BUILD_TYPE "unknown"
#endif

namespace pitperf {

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  return v[static_cast<std::size_t>(std::llround(rank))];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double windowed_percentile(const std::vector<double>& v, double pct,
                           std::size_t window) {
  const std::size_t windows = window > 0 ? v.size() / window : 0;
  if (windows < 2) {
    return percentile(v, pct);
  }
  std::vector<double> per;
  for (std::size_t w = 0; w < windows; ++w) {
    // The last window takes the remainder.
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == windows
                          ? v.end()
                          : first + static_cast<std::ptrdiff_t>(window);
    per.push_back(percentile(std::vector<double>(first, last), pct));
  }
  return median(std::move(per));
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

double Metrics::get(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0.0;
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const Metric& m = items_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i > 0 ? ", " : "") + json_str(m.name) + ": {\"value\": " + buf +
           ", \"unit\": " + json_str(m.unit) + "}";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ScopedAffinity::ScopedAffinity(Which which) {
  if (sched_getaffinity(0, sizeof(old_), &old_) != 0 || CPU_COUNT(&old_) < 2) {
    return;
  }
  int last = CPU_SETSIZE - 1;
  while (!CPU_ISSET(last, &old_)) {
    --last;
  }
  cpu_set_t mask;
  if (which == kLastCpu) {
    CPU_ZERO(&mask);
    CPU_SET(last, &mask);
  } else {
    mask = old_;
    CPU_CLR(last, &mask);
  }
  changed_ = sched_setaffinity(0, sizeof(mask), &mask) == 0;
}

ScopedAffinity::~ScopedAffinity() {
  if (changed_) {
    sched_setaffinity(0, sizeof(old_), &old_);
  }
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string fingerprint_json() {
  const auto& reg = pit::nn::kernels::Registry::instance();
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(nproc);
  out += ", \"fp32_isa\": " + json_str(reg.fp32_isa());
  out += ", \"i8_isa\": " + json_str(reg.i8_isa());
  out += ", \"compiler\": " + json_str(PITPERF_COMPILER);
  out += ", \"build_type\": " + json_str(PITPERF_BUILD_TYPE);
  out += ", \"omp_threads\": " + std::to_string(omp_threads);
  return out + "}";
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  const std::string want(name);
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && want == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

bool Tracer::write(const std::string& path, const std::string& workload) const {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  os << "{\"workload\": " << json_str(workload)
     << ", \"fingerprint\": " << fingerprint_json()
     << ", \"fields\": [\"name\", \"req\", \"parent\", \"start_ns\", "
        "\"end_ns\"], \"spans\": [\n";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i > 0 ? ",\n" : "") << "[\"" << s.name << "\", " << s.req << ", "
       << s.parent << ", " << (s.start_ns - origin) << ", "
       << (s.end_ns - origin) << "]";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace pitperf
