// Load generator for the network front end (docs/PROTOCOL.md).
//
// Drives a real TCP socket (an in-process FrontEnd over loopback by
// default; --connect drives an external server). Every SUBMIT goes
// through one per-connection loop, drive_submits(); each phase is that
// loop with a different sending rule:
//
//   1. capacity  — closed loop: each connection sends its next request
//      when the previous one is answered; the completion rate is the
//      measured capacity of this host.
//   2. overload  — OPEN loop at 2x capacity: every request has a
//      scheduled arrival time and is sent at that time regardless of how
//      slow responses are, with latency measured from the SCHEDULED time
//      — the coordinated-omission-proof number. Stream connections run
//      concurrently (PPG/ECG/sEMG/KWS-flavored tick waveforms, the
//      multi-task mix of arXiv 2301.10281), so the mix exercises SUBMIT
//      batching and per-session stepping at once.
//   3. shed probe — one connection encodes a burst of several times the
//      server's advertised in-flight budget into one buffer and writes it
//      at once, so the budget fills and the rest is shed (RETRY_AFTER).
//
// Reports goodput, shed rate, and p50/p99/p99.9 latency into
// BENCH_frontend.json; scripts/check_bench.py gates that goodput under
// 2x-capacity overload stays >= 70% of measured capacity and that sheds
// are fast-rejects (shed p99 far below a timeout), i.e. admission
// control keeps the server useful instead of letting queues eat it.
//
//   ./build/loadgen_frontend [--quick] [--connect HOST:PORT]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "net/client.hpp"
#include "net/front_end.hpp"
#include "serve/inference_server.hpp"
#include "serve/session_manager.hpp"

using namespace pit;
using bench::now_ms;

namespace {

/// How many connections drive the load and for how long; --quick
/// selects the short load.
struct LoadShape {
  int submit_conns;
  int stream_conns;
  double capacity_secs;
  double overload_secs;
  double stream_hz;  // per-connection step rate
};
constexpr LoadShape kFullLoad{8, 4, 4.0, 8.0, 100.0};
constexpr LoadShape kQuickLoad{4, 2, 1.5, 3.0, 50.0};

/// Outstanding requests still owed an answer when a connection stops
/// sending get this long; what is unanswered after it counts against
/// goodput (that is the point of measuring open-loop).
constexpr double kDrainMs = 5000.0;

/// One connection's share of a phase, merged after the threads join. A
/// stream connection counts each answered STEP as completed.
struct Slice {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::vector<double> latencies_ms;       // completed requests
  std::vector<double> shed_latencies_ms;  // RETRY_AFTER round trips
};

void merge(Slice& into, Slice&& from) {
  into.offered += from.offered;
  into.completed += from.completed;
  into.shed += from.shed;
  into.errors += from.errors;
  into.latencies_ms.insert(into.latencies_ms.end(),
                           from.latencies_ms.begin(),
                           from.latencies_ms.end());
  into.shed_latencies_ms.insert(into.shed_latencies_ms.end(),
                                from.shed_latencies_ms.begin(),
                                from.shed_latencies_ms.end());
}

/// Runs `fn(i)` for i in [0, conns) on a thread each and merges the
/// slices they return.
template <typename Fn>
Slice run_connections(int conns, Fn fn) {
  std::vector<Slice> slices(static_cast<std::size_t>(conns));
  std::vector<std::thread> threads;
  for (int i = 0; i < conns; ++i) {
    threads.emplace_back(
        [&, i] { slices[static_cast<std::size_t>(i)] = fn(i); });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  Slice all;
  for (Slice& s : slices) {
    merge(all, std::move(s));
  }
  return all;
}

/// The four task families of the multi-task TCN mix — distinguishable
/// waveforms so the server sees realistic, non-constant inputs.
void fill_window(int family, std::uint64_t seq, float* dst, std::size_t c,
                 std::size_t t) {
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t i = 0; i < t; ++i) {
      const double x =
          static_cast<double>(seq * t + i) / 32.0 + static_cast<double>(ch);
      double v = 0.0;
      switch (family & 3) {
        case 0:  // PPG: slow oscillation + baseline wander
          v = std::sin(x) + 0.2 * std::sin(x / 7.0);
          break;
        case 1:  // ECG: sharp periodic spikes over a flat baseline
          v = std::fmod(x, 6.28) < 0.3 ? 2.0 : 0.05 * std::sin(x);
          break;
        case 2:  // sEMG: amplitude-modulated "noise" bursts
          v = std::sin(x * 13.7) * (0.5 + 0.5 * std::sin(x / 5.0));
          break;
        default:  // KWS: rising chirp
          v = std::sin(x * (1.0 + std::fmod(x, 10.0) / 10.0));
          break;
      }
      dst[ch * t + i] = static_cast<float>(v);
    }
  }
}

/// When drive_submits sends:
///   kClosedLoop — the next request once the previous one is answered;
///   kOpenLoop   — one request every period_ms from start_ms, answered or
///                 not;
///   kBurst      — min(max(4 x max_inflight, 64), 4096) requests in one
///                 write, then only the drain.
struct SendRule {
  enum Kind { kClosedLoop, kOpenLoop, kBurst } kind = kClosedLoop;
  double period_ms = 0.0;
};

/// One connection's SUBMITs under `rule` until `end_ms`, then a drain of
/// what is still in flight. Latency runs from the scheduled time for the
/// open loop (server-side queueing during a stall is charged to the
/// server, not silently omitted) and from the send time otherwise.
Slice drive_submits(const std::string& host, std::uint16_t port, int family,
                    SendRule rule, double start_ms, double end_ms) {
  Slice slice;
  net::BlockingClient client;
  if (!client.connect(host, port)) {
    std::fprintf(stderr, "submit conn: %s\n",
                 client.last_error().message.c_str());
    ++slice.errors;
    return slice;
  }
  const std::size_t c = client.hello().submit_in_channels;
  const std::size_t t = client.hello().submit_in_steps;
  // A server that advertises no in-flight budget has nothing to probe.
  const std::uint64_t budget = client.hello().max_inflight;
  const std::uint64_t burst =
      rule.kind == SendRule::kBurst && budget > 0
          ? std::min<std::uint64_t>(std::max<std::uint64_t>(budget * 4, 64),
                                    4096)
          : 0;
  std::vector<float> window(c * t);
  std::vector<std::uint8_t> buf;
  std::unordered_map<std::uint64_t, double> pending;  // req_id -> t0
  std::uint64_t next_id = 1;
  double next_send = start_ms;
  net::ClientConn& conn = client.conn();

  // Encodes `count` SUBMITs into one buffer and writes it at once.
  const auto send = [&](std::uint64_t count) {
    buf.clear();
    const std::uint64_t first = next_id;
    for (; next_id < first + count; ++next_id) {
      fill_window(family, next_id, window.data(), c, t);
      net::encode_submit(buf, next_id, static_cast<std::uint32_t>(c),
                         static_cast<std::uint32_t>(t), window.data());
    }
    const double t0 = rule.kind == SendRule::kOpenLoop ? next_send : now_ms();
    for (std::uint64_t id = first; id < next_id; ++id) {
      pending.emplace(id, t0);
    }
    slice.offered += count;
    return conn.send_frames(buf);
  };

  const auto on_frame = [&](const net::FrameView& frame) {
    net::ErrCode code{};
    std::uint64_t id = 0;
    net::ErrCode answer = net::ErrCode::kInternal;
    bool result = false;
    if (frame.type == net::MsgType::kResult) {
      net::ResultMsg msg;
      if (!net::decode_result(frame.payload, msg, code)) {
        return;
      }
      id = msg.req_id;
      result = true;
    } else if (frame.type == net::MsgType::kError) {
      net::ErrorMsg msg;
      if (!net::decode_error(frame.payload, msg, code)) {
        return;
      }
      id = msg.req_id;
      answer = msg.code;
    } else {
      return;
    }
    const auto it = pending.find(id);
    if (it == pending.end()) {
      return;  // an id this connection never sent, or already answered
    }
    const double ms = now_ms() - it->second;
    pending.erase(it);
    if (result) {
      ++slice.completed;
      slice.latencies_ms.push_back(ms);
    } else if (answer == net::ErrCode::kRetryAfter) {
      ++slice.shed;
      slice.shed_latencies_ms.push_back(ms);
    } else {
      ++slice.errors;
    }
  };

  if (burst > 0 && !send(burst)) {
    ++slice.errors;
    return slice;
  }
  net::FrameView frame;
  while (now_ms() < end_ms) {
    // The closed loop's period is 0, so only its answer gates a send.
    if (now_ms() >= next_send &&
        (rule.kind == SendRule::kOpenLoop || pending.empty())) {
      if (!send(1)) {
        ++slice.errors;
        return slice;
      }
      next_send += rule.period_ms;
      continue;  // catch up if behind schedule — open loop never skips
    }
    const double due =
        rule.kind == SendRule::kOpenLoop ? next_send : end_ms;
    const int wait_ms =
        static_cast<int>(std::clamp(due - now_ms(), 0.0, 100.0));
    if (conn.recv_frame(frame, wait_ms) == net::FrameReader::Status::kFrame) {
      on_frame(frame);
    }
  }
  const double drain_deadline = now_ms() + kDrainMs;
  while (!pending.empty() && now_ms() < drain_deadline) {
    if (conn.recv_frame(frame, 100) == net::FrameReader::Status::kFrame) {
      on_frame(frame);
    }
  }
  return slice;
}

/// Streaming client: one session, fixed tick rate, runs alongside the
/// overload phase so the mix is genuinely concurrent.
Slice run_stream_conn(const std::string& host, std::uint16_t port,
                      int family, double end_ms, double period_ms) {
  Slice slice;
  net::BlockingClient client;
  std::uint32_t handle = 0;
  if (!client.connect(host, port) || !client.open_session(handle)) {
    std::fprintf(stderr, "stream conn: %s\n",
                 client.last_error().message.c_str());
    ++slice.errors;
    return slice;
  }
  const std::size_t c = client.hello().stream_in_channels;
  std::vector<float> tick(c);
  std::vector<float> out;
  std::uint64_t seq = 0;
  while (now_ms() < end_ms) {
    fill_window(family, seq++, tick.data(), c, 1);
    const double t0 = now_ms();
    if (!client.step(handle, tick.data(), out)) {
      ++slice.errors;
      break;
    }
    ++slice.completed;
    slice.latencies_ms.push_back(now_ms() - t0);
    const double wait = period_ms - (now_ms() - t0);
    if (wait > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wait));
    }
  }
  (void)client.close_session(handle);
  return slice;
}

/// HOST:PORT with a port in 1..65535; false on anything else.
bool parse_host_port(const std::string& hp, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = hp.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    return false;
  }
  const char* digits = hp.c_str() + colon + 1;
  char* end = nullptr;
  const long value = std::strtol(digits, &end, 10);
  if (end == digits || *end != '\0' || value < 1 || value > 65535) {
    return false;
  }
  host = hp.substr(0, colon);
  port = static_cast<std::uint16_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string host;  // empty = in-process front end
  std::uint16_t port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--connect" && i + 1 < argc &&
               parse_host_port(argv[i + 1], host, port)) {
      ++i;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--connect HOST:PORT]\n",
                   argv[0]);
      return 2;
    }
  }
  const LoadShape& load = quick ? kQuickLoad : kFullLoad;
  const unsigned hw_threads = std::thread::hardware_concurrency();

  bench::print_header(
      "loadgen_frontend — open-loop load vs the network front end",
      "deployment: continuous sensing served to fleets (DAC'21 §V)");

  // In-process server unless --connect: same plans as the server binary.
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<serve::SessionManager> sessions;
  std::unique_ptr<net::FrontEnd> frontend;
  if (host.empty()) {
    const bench::ServedPlans plans = bench::make_served_temponet_plans();
    serve::ServerOptions sopts;
    sopts.threads =
        hw_threads > 2 ? static_cast<int>(std::min(hw_threads - 1U, 4U)) : 2;
    server = std::make_unique<serve::InferenceServer>(plans.submit_plan,
                                                      sopts);
    sessions = std::make_unique<serve::SessionManager>(plans.stream_plan);
    net::FrontEndOptions fopts;
    fopts.max_inflight = 128;
    frontend = std::make_unique<net::FrontEnd>(server.get(), sessions.get(),
                                               fopts);
    frontend->start();
    host = "127.0.0.1";
    port = frontend->port();
    std::printf("in-process front end on %s:%u (%d workers)\n", host.c_str(),
                port, sopts.threads);
  } else {
    std::printf("driving external server %s:%u\n", host.c_str(), port);
  }

  // ---- phase 1: closed-loop capacity ------------------------------------
  std::printf("phase 1: capacity (%d conns, %.1fs closed-loop)...\n",
              load.submit_conns, load.capacity_secs);
  const double cap_start = now_ms();
  const double cap_end = cap_start + load.capacity_secs * 1000.0;
  Slice capacity = run_connections(load.submit_conns, [&](int i) {
    return drive_submits(host, port, i, {SendRule::kClosedLoop}, cap_start,
                         cap_end);
  });
  const double capacity_rps =
      static_cast<double>(capacity.completed) / load.capacity_secs;
  const bench::Percentiles cap_pct = bench::percentiles(capacity.latencies_ms);
  std::printf("  capacity %.0f req/s (p50 %.2f ms, p99 %.2f ms)\n",
              capacity_rps, cap_pct.p50, cap_pct.p99);
  if (capacity.completed == 0) {
    std::fprintf(stderr, "no completions in the capacity phase — aborting\n");
    return 1;
  }

  // ---- phase 2: open-loop overload + concurrent streams -----------------
  const double target_rps = 2.0 * capacity_rps;
  const double period_ms =
      1000.0 * static_cast<double>(load.submit_conns) / target_rps;
  std::printf("phase 2: overload (%.0f req/s open-loop over %d conns, "
              "%d streams @ %.0f Hz, %.1fs)...\n",
              target_rps, load.submit_conns, load.stream_conns,
              load.stream_hz, load.overload_secs);
  const double start = now_ms() + 50.0;  // common schedule origin
  const double end = start + load.overload_secs * 1000.0;
  Slice stream;
  std::thread streams([&] {
    stream = run_connections(load.stream_conns, [&](int i) {
      return run_stream_conn(host, port, i, end, 1000.0 / load.stream_hz);
    });
  });
  Slice overload = run_connections(load.submit_conns, [&](int i) {
    // Stagger connection start offsets so arrivals interleave instead of
    // beating in lockstep.
    const double offset = period_ms * static_cast<double>(i) /
                          static_cast<double>(load.submit_conns);
    return drive_submits(host, port, i, {SendRule::kOpenLoop, period_ms},
                         start + offset, end);
  });
  streams.join();
  const double goodput_rps =
      static_cast<double>(overload.completed) / load.overload_secs;
  const double goodput_over_capacity = goodput_rps / capacity_rps;
  const double shed_rate =
      overload.offered > 0
          ? static_cast<double>(overload.shed) /
                static_cast<double>(overload.offered)
          : 0.0;
  const bench::Percentiles ovl_pct = bench::percentiles(overload.latencies_ms);
  const bench::Percentiles shed_pct =
      bench::percentiles(overload.shed_latencies_ms);
  const bench::Percentiles stream_pct = bench::percentiles(stream.latencies_ms);
  std::printf(
      "  offered %llu, completed %llu (goodput %.0f req/s = %.0f%% of "
      "capacity), shed %llu (%.0f%%), errors %llu\n",
      static_cast<unsigned long long>(overload.offered),
      static_cast<unsigned long long>(overload.completed), goodput_rps,
      100.0 * goodput_over_capacity,
      static_cast<unsigned long long>(overload.shed), 100.0 * shed_rate,
      static_cast<unsigned long long>(overload.errors));
  std::printf("  latency from SCHEDULED arrival: p50 %.2f  p99 %.2f  "
              "p99.9 %.2f ms\n",
              ovl_pct.p50, ovl_pct.p99, ovl_pct.p999);
  if (overload.shed > 0) {
    std::printf("  shed round trip: p50 %.2f  p99 %.2f ms (fast-reject)\n",
                shed_pct.p50, shed_pct.p99);
  }
  std::printf("  streams: %llu steps, p50 %.2f  p99 %.2f  p99.9 %.2f ms\n",
              static_cast<unsigned long long>(stream.completed),
              stream_pct.p50, stream_pct.p99, stream_pct.p999);

  // ---- phase 3: shed probe ----------------------------------------------
  std::printf("phase 3: shed probe (burst past the in-flight budget)...\n");
  const double probe_start = now_ms();
  Slice probe = drive_submits(host, port, 0, {SendRule::kBurst}, probe_start,
                              probe_start);
  const bench::Percentiles probe_shed_pct =
      bench::percentiles(probe.shed_latencies_ms);
  if (probe.shed > 0) {
    std::printf("  burst %llu: %llu admitted, %llu shed — shed round trip "
                "p50 %.2f  p99 %.2f ms\n",
                static_cast<unsigned long long>(probe.offered),
                static_cast<unsigned long long>(probe.completed),
                static_cast<unsigned long long>(probe.shed),
                probe_shed_pct.p50, probe_shed_pct.p99);
  } else {
    std::printf("  burst %llu produced no sheds (budget never filled)\n",
                static_cast<unsigned long long>(probe.offered));
  }

  net::FrontEndStats server_stats;
  if (frontend) {
    server_stats = frontend->stats();
    frontend->stop();
  }

  // ---- JSON ---------------------------------------------------------------
  FILE* json = bench::open_bench_json("BENCH_frontend.json");
  if (json == nullptr) {
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"frontend\",\n");
  std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(json, "  \"mode\": \"%s\",\n",
               frontend ? "inprocess" : "connect");
  std::fprintf(json, "  \"hw_threads\": %u,\n", hw_threads);
  std::fprintf(json,
               "  \"config\": {\"submit_connections\": %d, "
               "\"stream_connections\": %d, \"capacity_secs\": %.2f, "
               "\"overload_secs\": %.2f, \"stream_hz\": %.1f},\n",
               load.submit_conns, load.stream_conns, load.capacity_secs,
               load.overload_secs, load.stream_hz);
  std::fprintf(json,
               "  \"capacity\": {\"completed\": %llu, \"rps\": %.2f, "
               "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"p999_ms\": %.4f},\n",
               static_cast<unsigned long long>(capacity.completed),
               capacity_rps, cap_pct.p50, cap_pct.p99, cap_pct.p999);
  std::fprintf(
      json,
      "  \"overload\": {\"target_rps\": %.2f, \"offered\": %llu, "
      "\"completed\": %llu, \"shed\": %llu, \"errors\": %llu, "
      "\"goodput_rps\": %.2f, \"goodput_over_capacity\": %.4f, "
      "\"shed_rate\": %.4f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
      "\"p999_ms\": %.4f, \"shed_p50_ms\": %.4f, \"shed_p99_ms\": %.4f},\n",
      target_rps, static_cast<unsigned long long>(overload.offered),
      static_cast<unsigned long long>(overload.completed),
      static_cast<unsigned long long>(overload.shed),
      static_cast<unsigned long long>(overload.errors), goodput_rps,
      goodput_over_capacity, shed_rate, ovl_pct.p50, ovl_pct.p99,
      ovl_pct.p999, shed_pct.p50, shed_pct.p99);
  std::fprintf(json,
               "  \"shed_probe\": {\"burst\": %llu, \"admitted\": %llu, "
               "\"shed\": %llu, \"errors\": %llu, \"shed_p50_ms\": %.4f, "
               "\"shed_p99_ms\": %.4f},\n",
               static_cast<unsigned long long>(probe.offered),
               static_cast<unsigned long long>(probe.completed),
               static_cast<unsigned long long>(probe.shed),
               static_cast<unsigned long long>(probe.errors),
               probe_shed_pct.p50, probe_shed_pct.p99);
  std::fprintf(json,
               "  \"stream\": {\"connections\": %d, \"steps\": %llu, "
               "\"errors\": %llu, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
               "\"p999_ms\": %.4f},\n",
               load.stream_conns,
               static_cast<unsigned long long>(stream.completed),
               static_cast<unsigned long long>(stream.errors), stream_pct.p50,
               stream_pct.p99, stream_pct.p999);
  std::fprintf(json,
               "  \"server\": {\"inprocess\": %s, \"submits\": %llu, "
               "\"sheds\": %llu, \"protocol_errors\": %llu, "
               "\"exec_errors\": %llu}\n",
               frontend ? "true" : "false",
               static_cast<unsigned long long>(server_stats.submits),
               static_cast<unsigned long long>(server_stats.sheds),
               static_cast<unsigned long long>(server_stats.protocol_errors),
               static_cast<unsigned long long>(server_stats.exec_errors));
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_frontend.json\n");

  // Transport errors mean the harness (or server) broke — fail loudly so
  // CI does not gate on a half-measured run.
  if (capacity.errors > 0 || overload.errors > 0 || stream.errors > 0 ||
      probe.errors > 0) {
    std::fprintf(stderr,
                 "loadgen saw %llu capacity / %llu overload / %llu stream / "
                 "%llu probe errors\n",
                 static_cast<unsigned long long>(capacity.errors),
                 static_cast<unsigned long long>(overload.errors),
                 static_cast<unsigned long long>(stream.errors),
                 static_cast<unsigned long long>(probe.errors));
    return 1;
  }
  return 0;
}
