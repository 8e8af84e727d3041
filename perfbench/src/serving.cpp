// The serving workloads (submit, mixed): an in-process FrontEnd
// with library-default options over paper-sized TempoNet plans, driven
// over loopback TCP by one generator thread.
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "loadgen.hpp"
#include "net/front_end.hpp"
#include "probes.hpp"
#include "serve/inference_server.hpp"
#include "serve/session_manager.hpp"

namespace pitperf {

using pit::Shape;
using pit::Tensor;

namespace {

constexpr int kConns = 4;
constexpr int kTicksPerSession = 16;  // then the session closes, a new one opens
// Tail-latency limits that mark a rate point pass or fail. For STEP, 1 ms
// would sit inside the multi-millisecond wake-up stalls of a virtualised
// 4-vCPU host; 5 ms still separates a healthy loop (tail well under
// 0.1 ms) from a saturated one.
constexpr double kSubmitLimitUs = 25000.0;
constexpr double kStepLimitUs = 5000.0;
constexpr double kPingRate = 200.0;  // PING/s in the traced phase
// Both workloads send SUBMIT at kSubmitRate. In the saturation phase
// SUBMIT turns closed-loop with kSubmitWindow in flight: enough to keep
// both default workers at full batches with as many again queued, and
// half the default FrontEnd admission budget, so nothing is shed. An
// open-loop overload spent the server's CPUs decoding and shedding the
// excess, and its goodput swung with how the scheduler split them.
constexpr double kSubmitRate = 1000.0;
constexpr std::size_t kSubmitWindow = 128;

/// What sets mixed apart: int8 STEP traffic at a fixed tick rate on the
/// same event loop, in every phase.
struct Spec {
  bool stream = false;
  int sessions_per_conn = 0;  ///< streaming sessions per connection
  double tick_hz = 0.0;       ///< per-session tick rate
  double step_rate() const { return kConns * sessions_per_conn * tick_hz; }
  Offer nominal(double ping_rate = 0.0) const {
    return Offer{kSubmitRate, 0, step_rate(), ping_rate};
  }
  Offer saturated() const { return Offer{0.0, kSubmitWindow, step_rate(), 0.0}; }
};

Spec spec_for(const std::string& w) {
  Spec s;
  if (w == "submit") {
    // fp32 SUBMIT only.
  } else if (w == "mixed") {
    s.stream = true;
    s.sessions_per_conn = 32;
    s.tick_hz = 100.0;
  } else {
    throw std::invalid_argument("unknown workload " + w);
  }
  return s;
}

/// Everything one run serves with. Members are destroyed in reverse:
/// the generator's sockets close, then the front end stops, then the
/// server and session manager it points at go.
struct Stack {
  Served sv;
  SubmitOracle sub;
  StreamOracle str;
  std::unique_ptr<pit::serve::InferenceServer> server;
  std::unique_ptr<pit::serve::SessionManager> sessions;
  std::unique_ptr<pit::net::FrontEnd> fe;
  std::unique_ptr<LoadGen> gen;
  ~Stack() {
    gen.reset();
    if (fe) {
      fe->stop();
    }
  }
};

/// The timed set-up: model, plans, server, front end, connections, HELLO.
std::unique_ptr<Stack> build_stack(const Spec& s, std::uint64_t seed,
                                   Tracer& tr, unsigned need) {
  auto st = std::make_unique<Stack>();
  st->sv = build_served(seed, need);
  // The server's threads start (and stay) off the generator's CPU.
  const ScopedAffinity off_generator_cpu(ScopedAffinity::kAllButLast);
  st->server = std::make_unique<pit::serve::InferenceServer>(
      st->sv.submit_f32, pit::serve::ServerOptions{});
  if (s.stream) {
    st->sessions = std::make_unique<pit::serve::SessionManager>(
        st->sv.stream_i8, pit::serve::SessionManagerOptions{});
  }
  st->fe = std::make_unique<pit::net::FrontEnd>(
      st->server.get(), st->sessions.get(), pit::net::FrontEndOptions{});
  st->fe->start();
  st->gen = std::make_unique<LoadGen>(st->sub, s.stream ? &st->str : nullptr,
                                      s.sessions_per_conn, tr);
  if (!st->gen->connect(st->fe->port(), kConns)) {
    throw std::runtime_error("cannot connect to the front end");
  }
  return st;
}

unsigned need_for(const Spec& s) {
  return kSubmitF32 | (s.stream ? kStreamI8 : 0U);
}

/// Run-wide tallies over every phase.
struct Totals {
  std::uint64_t attempted = 0, failed = 0, checked = 0, mismatched = 0;
};

/// A rate point: one phase at the nominal rates, or at saturation.
struct Point {
  PhaseResult r;
  bool valid = false;  ///< the generator kept to its schedule
  bool pass = false;   ///< valid, nothing failed, tails within limits
  double batches = 0.0;     ///< batched forwards the server ran in the phase
  double mean_batch = 0.0;  ///< their mean size
  double ops_per_s() const {
    return static_cast<double>(r.submit.sent + r.step.sent) / r.seconds;
  }
};

Point evaluate(const Spec& s, PhaseResult r) {
  Point p;
  double limit = kSubmitLimitUs;
  double backlog_ok = kConns + static_cast<double>(r.offer.submit_window) +
                      r.offer.submit_rate * kSubmitLimitUs * 1e-6;
  bool ok = r.open_errors == 0 && r.close_errors == 0 && r.submit.failed() == 0 &&
            tail_latency(r.submit.lat_us) <= kSubmitLimitUs;
  if (s.stream) {
    limit = std::min(limit, kStepLimitUs);
    backlog_ok += r.offer.step_rate * kStepLimitUs * 1e-6;
    ok = ok && r.step.failed() == 0 &&
         tail_latency(r.step.lat_us) <= kStepLimitUs;
  }
  // The generator fell behind when its own send lateness ate a fifth of
  // the tightest limit: such a point says nothing about the server.
  p.valid = r.late_p99_us <= 0.2 * limit;
  p.pass = p.valid && ok && static_cast<double>(r.backlog) <= backlog_ok;
  p.r = std::move(r);
  return p;
}

void account(Totals& t, const PhaseResult& r) {
  for (const ClassStats* c : {&r.submit, &r.step, &r.ping}) {
    t.attempted += c->sent;
    t.checked += c->ok + c->mismatched;
    t.mismatched += c->mismatched;
    t.failed += c->failed();
  }
  t.failed += r.open_errors + r.close_errors;
}

/// A latency statistic of a phase as the end-to-end metrics report it:
/// SUBMIT's on `submit`; on `mixed` the geometric mean of SUBMIT's and
/// STEP's, so a slowdown of either class by a factor r moves it by
/// sqrt(r). Each class's own figure is in the rate points of `# detail`.
template <class Stat>
double reported(const Spec& s, const PhaseResult& r, Stat stat) {
  const double sub = stat(r.submit.lat_us);
  return s.stream ? std::sqrt(sub * stat(r.step.lat_us)) : sub;
}

double p50_of(const std::vector<double>& v) { return percentile(v, 50); }

std::string point_json(const Point& p) {
  const auto cls = [](const ClassStats& c) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"sent\": %llu, \"succeeded\": %llu, \"failed\": %llu, "
                  "\"shed\": %llu, \"samples\": %zu, \"p50_us\": %.3f, "
                  "\"tail_us\": %.3f}",
                  static_cast<unsigned long long>(c.sent),
                  static_cast<unsigned long long>(c.ok),
                  static_cast<unsigned long long>(c.failed()),
                  static_cast<unsigned long long>(c.shed), c.lat_us.size(),
                  percentile(c.lat_us, 50), tail_latency(c.lat_us));
    return std::string(buf);
  };
  char head[320];
  std::snprintf(head, sizeof(head),
                "{\"submit_rate\": %.1f, \"submit_window\": %zu, \"step_rate\": %.1f, "
                "\"seconds\": %.3f, \"ops_per_s\": %.1f, \"late_p99_us\": %.1f, "
                "\"late_max_us\": %.1f, \"backlog\": %llu, \"mean_batch\": %.2f, "
                "\"valid\": %s, \"pass\": %s, ",
                p.r.offer.submit_rate, p.r.offer.submit_window, p.r.offer.step_rate,
                p.r.seconds,
                p.ops_per_s(), p.r.late_p99_us, p.r.late_max_us,
                static_cast<unsigned long long>(p.r.backlog), p.mean_batch,
                p.valid ? "true" : "false", p.pass ? "true" : "false");
  std::string bins = "[";
  for (std::size_t i = 0; i < p.r.ok_bins.size(); ++i) {
    bins += (i ? ", " : "") + std::to_string(p.r.ok_bins[i]);
  }
  return std::string(head) + "\"submit\": " + cls(p.r.submit) +
         ", \"step\": " + cls(p.r.step) + ", \"ok_per_bin\": " + bins + "]}";
}

/// Spins until `t` (see LoadGen::run on why the generator never sleeps).
void spin_until_ns(std::int64_t t) {
  while (now_ns() < t) {
  }
}

/// In-process SUBMIT at the nominal rate: try_submit -> completion
/// callback, no socket. Records "serve.submit" spans.
void probe_inprocess_submit(Stack& st, double seconds, Tracer& tr, Totals& tot) {
  struct State {
    std::vector<std::int64_t> start, done;
    std::vector<std::uint8_t> good;
    std::atomic<std::size_t> completed{0};
  };
  const auto n = static_cast<std::size_t>(kSubmitRate * seconds);
  auto state = std::make_shared<State>();
  state->start.resize(n);
  state->done.resize(n);
  state->good.resize(n);
  const SubmitOracle& o = st.sub;
  std::size_t admitted = 0;
  const double period = 1e9 / kSubmitRate;
  const std::int64_t t0 = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = i % o.pool;
    Tensor in = Tensor::empty(Shape{o.c, o.t});
    std::memcpy(in.data(), o.input(idx),
                static_cast<std::size_t>(o.c * o.t) * sizeof(float));
    spin_until_ns(t0 + static_cast<std::int64_t>(static_cast<double>(i) * period));
    state->start[i] = now_ns();
    const float* ref = o.ref(idx);
    const auto out_n = static_cast<std::size_t>(o.out_n);
    const bool ok = st.server->try_submit(
        std::move(in), [state, i, ref, out_n](Tensor&& out, std::exception_ptr e) {
          state->done[i] = now_ns();
          state->good[i] = !e && static_cast<std::size_t>(out.numel()) == out_n &&
                           same_bits(out.data(), ref, out_n);
          state->completed.fetch_add(1, std::memory_order_release);
        });
    admitted += ok ? 1 : 0;
    tot.attempted += 1;
    tot.failed += ok ? 0 : 1;
  }
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  while (state->completed.load(std::memory_order_acquire) < admitted &&
         now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (state->completed.load(std::memory_order_acquire) < admitted) {
    throw std::runtime_error("in-process SUBMIT probe: completions missing");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (state->done[i] == 0) {
      continue;
    }
    const std::int32_t sp = tr.begin_at("serve.submit", i, state->start[i]);
    tr.end_at(sp, state->done[i]);
    tot.checked += 1;
    if (state->good[i] == 0) {
      tot.mismatched += 1;
      tot.failed += 1;
    }
  }
}

/// Direct SessionManager traffic at the nominal tick rate with the same
/// session churn as the socket workload. Records serve.{step,open,close}.
void probe_direct_sessions(Stack& st, const Spec& s, double seconds,
                           Tracer& tr, Totals& tot) {
  struct Sess {
    std::uint64_t id = 0;
    std::size_t seq = 0;
    int tick = 0;
  };
  const StreamOracle& o = st.str;
  const std::size_t count = static_cast<std::size_t>(kConns * s.sessions_per_conn);
  std::vector<Sess> ss(count);
  std::size_t next_seq = 0;
  for (Sess& x : ss) {
    x.seq = next_seq++ % o.pool;
  }
  std::vector<float> out(static_cast<std::size_t>(o.c_out));
  const auto n = static_cast<std::size_t>(s.step_rate() * seconds);
  const double period = 1e9 / s.step_rate();
  const std::int64_t t0 = now_ns() + 1'000'000;
  pit::serve::SessionManager& sm = *st.sessions;
  for (std::size_t k = 0; k < n; ++k) {
    spin_until_ns(t0 + static_cast<std::int64_t>(static_cast<double>(k) * period));
    Sess& x = ss[k % count];
    if (x.id == 0) {
      Scoped sp(tr, "serve.open", k);
      x.id = sm.open();
      x.tick = 0;
      continue;
    }
    if (x.tick >= o.ticks) {
      Scoped sp(tr, "serve.close", k);
      sm.close(x.id);
      x.id = 0;
      x.seq = next_seq++ % o.pool;
      continue;
    }
    {
      Scoped sp(tr, "serve.step", k);
      sm.step(x.id, o.input(x.seq, x.tick), out.data());
    }
    tot.attempted += 1;
    tot.checked += 1;
    if (!same_bits(out.data(), o.ref(x.seq, x.tick), out.size())) {
      tot.mismatched += 1;
      tot.failed += 1;
    }
    ++x.tick;
  }
  for (Sess& x : ss) {
    if (x.id != 0) {
      sm.close(x.id);
    }
  }
}

}  // namespace

RunOutput run_serving(const RunArgs& args) {
  const Spec s = spec_for(args.workload);
  RunOutput out;
  Tracer tr(false);
  Totals tot;
  std::string detail;

  // ---- set-up, several times; the last stack is the one measured -------
  std::vector<double> setup_s;
  std::unique_ptr<Stack> st;
  const int setups = args.trace ? 1 : kSetups;
  const unsigned need = args.trace ? (kSubmitF32 | kSubmitI8 | kStreamF32 | kStreamI8)
                                   : need_for(s);
  for (int i = 0; i < setups; ++i) {
    st.reset();
    const std::int64_t t0 = now_ns();
    st = build_stack(s, args.seed, tr, need);
    setup_s.push_back(seconds_since(t0));
  }
  // Oracle references: outside the timed set-up.
  st->sub = make_submit_oracle(*st->sv.submit_f32, args.seed, 256);
  if (s.stream) {
    st->str = make_stream_oracle(st->sv.stream_i8, args.seed, 64, kTicksPerSession);
  }
  if (!st->gen->geometry_ok()) {
    throw std::runtime_error("HELLO_OK geometry does not match the plans");
  }
  LoadGen& gen = *st->gen;

  // Warm-up: worker arenas, session slots and allocator caches fill here.
  // It starts saturated, so both workers' arenas grow to full batches at
  // once; otherwise their size, and peak RSS, would follow the largest
  // batch that timing happened to form at the nominal rate.
  account(tot, gen.run(s.saturated(), 0.3));
  account(tot, gen.run(s.nominal(), 0.3));

  // One rate point, with the server's mean batch over it.
  const auto phase = [&](const Offer& offer, double seconds) {
    const pit::serve::ServerStats before = st->server->stats();
    Point p = evaluate(s, gen.run(offer, seconds));
    const pit::serve::ServerStats after = st->server->stats();
    p.batches = static_cast<double>(after.batches - before.batches);
    p.mean_batch = p.batches > 0
                       ? static_cast<double>(after.completed - before.completed) / p.batches
                       : 0.0;
    return p;
  };

  const double S = args.seconds;
  std::vector<Point> points;
  points.reserve(2);  // `nominal` below refers into it
  // Latency at the nominal rates (a traced run halves it: the other half
  // repeats the phase with spans on).
  points.push_back(phase(s.nominal(), (args.trace ? 0.25 : 0.5) * S));
  const Point& nominal = points.front();
  account(tot, nominal.r);
  double goodput = 0.0;
  if (!args.trace) {
    // Saturation: SUBMIT closed-loop; the SUBMITs answered correctly per
    // second are the capacity. The first half second is not measured:
    // goodput climbs there while batch arenas and socket buffers grow to
    // the saturated size.
    account(tot, gen.run(s.saturated(), 0.05 * S));
    Point over = phase(s.saturated(), 0.4 * S);
    account(tot, over.r);
    // Median over 250 ms bins: a host stall dents a bin or two, not
    // the figure.
    std::vector<double> bins(over.r.ok_bins.begin(), over.r.ok_bins.end());
    goodput = median(std::move(bins)) / PhaseResult::kBinSeconds;
    points.push_back(std::move(over));
  }

  Metrics& m = out.metrics;
  const double p50 = reported(s, nominal.r, p50_of);
  const std::size_t samples = nominal.r.submit.lat_us.size() + nominal.r.step.lat_us.size();
  detail += "\"setup_s_samples\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    detail += (i ? ", " : "") + std::to_string(setup_s[i]);
  }
  detail += "], \"samples\": " + std::to_string(samples) +
            ", \"tail_pct\": " + std::to_string(kTailPct) + ", \"limits_us\": {\"submit\": " +
            std::to_string(kSubmitLimitUs) + ", \"step\": " +
            std::to_string(kStepLimitUs) + "}, \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    detail += (i ? ", " : "") + point_json(points[i]);
  }
  detail += "]";

  if (!args.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("p50_us", p50, "us");
    m.set("tail_us", reported(s, nominal.r, tail_latency), "us");
    m.set("throughput_per_s", goodput, "1/s");
  } else {
    preset_per_layer(m);
    // Traced nominal phase, with PINGs timing the bare socket hop under
    // the same load.
    tr.set_enabled(true);
    const Point traced = phase(s.nominal(kPingRate), 0.25 * S);
    tr.set_enabled(false);
    account(tot, traced.r);
    m.set("trace.overhead_frac", reported(s, traced.r, p50_of) / p50 - 1.0, "ratio");
    const double hop_us = percentile(traced.r.ping.lat_us, 50);
    m.set("net.hop_us", hop_us, "us");
    m.set("serve.batches", traced.batches, "count");
    m.set("serve.mean_batch", traced.mean_batch, "count");
    tr.set_enabled(true);
    probe_inprocess_submit(*st, 0.2 * S, tr, tot);
    if (s.stream) {
      probe_direct_sessions(*st, s, 0.2 * S, tr, tot);
    }
    // Layer probes on this run's plans and frames.
    Served& sv = st->sv;
    probe_runtime(sv, args.seed, m, tr);
    probe_kernels(*sv.submit_f32, m, tr);
    const StreamOracle str_pool =
        s.stream ? st->str : make_stream_oracle(sv.stream_i8, args.seed, 16, 16);
    probe_codec(st->sub, str_pool, m);
    tr.set_enabled(false);

    // net: socket round trip minus the same call made in-process.
    const std::vector<double> inproc = tr.durations_us("serve.submit");
    const double serve_submit = percentile(inproc, 50);
    m.set("serve.submit_us", serve_submit, "us");
    m.set("serve.submit_us.p99", percentile(inproc, 99), "us");
    m.set("net.submit_self_us", percentile(tr.durations_us("net.submit"), 50) - serve_submit,
          "us");
    m.set("serve.queue_wait_us",
          serve_submit - forward_us_at(m, "fp32", traced.mean_batch), "us");
    // Blocking path of a request: the client's encode and decode, twice
    // for the server's mirror-image decode and encode, plus the layer's
    // in-process time and the bare socket hop.
    const auto codec_us = [&](const char* enc, const char* dec) {
      return 2e-3 * (m.get(enc) + m.get(dec) + m.get("net.reader_ns_per_frame"));
    };
    double accounted_us =
        codec_us("net.encode_ns.submit", "net.decode_ns.result") + serve_submit + hop_us;
    if (s.stream) {
      const std::vector<double> rtt = tr.durations_us("net.step");
      const std::vector<double> direct = tr.durations_us("serve.step");
      const double serve_step = percentile(direct, 50);
      m.set("serve.step_us", serve_step, "us");
      m.set("serve.step_us.p99", percentile(direct, 99), "us");
      m.set("serve.open_us", percentile(tr.durations_us("serve.open"), 50), "us");
      m.set("serve.close_us", percentile(tr.durations_us("serve.close"), 50), "us");
      m.set("net.step_self_us", percentile(rtt, 50) - serve_step, "us");
      m.set("net.step_self_us.p99", percentile(rtt, 99) - percentile(direct, 99), "us");
      const pit::serve::SessionManagerStats ms = st->sessions->stats();
      const pit::serve::SessionAllocatorStats as = st->sessions->allocator_stats();
      m.set("serve.alloc_hit_ratio",
            as.allocations > 0 ? static_cast<double>(as.cache_hits) /
                                     static_cast<double>(as.allocations)
                               : 0.0,
            "ratio");
      m.set("serve.recycled_ratio",
            ms.opened > 0 ? static_cast<double>(ms.recycled) /
                                static_cast<double>(ms.opened)
                          : 0.0,
            "ratio");
      m.set("serve.evicted", static_cast<double>(ms.evicted), "count");
      // Combined as the end-to-end p50 combines the classes.
      accounted_us = std::sqrt(
          accounted_us *
          (codec_us("net.encode_ns.step", "net.decode_ns.step_out") + serve_step + hop_us));
    }
    m.set("trace.accounted_frac", accounted_us / p50, "ratio");
    const pit::net::FrontEndStats fs = st->fe->stats();
    m.set("net.sheds", static_cast<double>(fs.sheds), "count");
    m.set("net.protocol_errors", static_cast<double>(fs.protocol_errors), "count");
    m.set("net.exec_errors", static_cast<double>(fs.exec_errors), "count");
    m.set("net.slow_closed", static_cast<double>(fs.slow_closed), "count");
    m.set("net.session_rejects", static_cast<double>(fs.session_rejects), "count");
    m.set("e2e.samples", static_cast<double>(samples), "count");
    m.set("e2e.tail_pct", kTailPct, "pct");
    m.set("trace.spans", static_cast<double>(tr.spans().size()), "count");
    if (!args.trace_out.empty() && !tr.write(args.trace_out, args.workload)) {
      throw std::runtime_error("cannot write " + args.trace_out);
    }
  }

  const bool selfcheck = gen.selfcheck_ran() && gen.selfcheck_caught();
  out.attempted = tot.attempted;
  out.failed = tot.failed;
  out.correct = tot.mismatched == 0 && tot.failed == 0 && selfcheck &&
                tot.checked > 0;
  if (args.trace) {
    m.set("oracle.outputs_checked", static_cast<double>(tot.checked), "count");
    m.set("oracle.outputs_mismatched", static_cast<double>(tot.mismatched), "count");
    m.set("oracle.selfcheck_caught", selfcheck ? 1.0 : 0.0, "count");
  }
  out.detail = "{" + detail + ", \"outputs_checked\": " + std::to_string(tot.checked) +
               ", \"outputs_mismatched\": " + std::to_string(tot.mismatched) +
               ", \"selfcheck_caught\": " + (selfcheck ? "true" : "false") + "}";
  return out;
}

}  // namespace pitperf
