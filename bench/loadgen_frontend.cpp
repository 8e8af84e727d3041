// Open-loop load generator for the network front end (docs/PROTOCOL.md).
//
// Three phases against a real TCP socket (an in-process FrontEnd over
// loopback by default; --connect drives an external server):
//
//   1. capacity  — closed-loop: N connections submit back-to-back; the
//      completion rate is the measured capacity of this host.
//   2. overload  — OPEN-loop at 2x capacity (or --rate): every request
//      has a scheduled arrival time and is sent at that time regardless
//      of how slow responses are, with latency measured from the
//      SCHEDULED time — the coordinated-omission-proof number. Stream
//      connections run concurrently (PPG/ECG/sEMG/KWS-flavored tick
//      waveforms, the multi-task mix of arXiv 2301.10281), so the mix
//      exercises SUBMIT batching and per-session stepping at once.
//   3. drain     — outstanding responses are collected; what the server
//      shed (RETRY_AFTER) is tallied separately from what it answered.
//
// Reports goodput, shed rate, and p50/p99/p99.9 latency into
// BENCH_frontend.json; scripts/check_bench.py gates that goodput under
// 2x-capacity overload stays >= 70% of measured capacity and that sheds
// are fast-rejects (shed p99 far below a timeout), i.e. admission
// control keeps the server useful instead of letting queues eat it.
//
//   ./build/loadgen_frontend [--quick] [--connect HOST:PORT]
//       [--connections N] [--streams N] [--duration SECS] [--rate RPS]
//       [--out PATH]
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

struct Config {
  bool quick = false;
  std::string connect_host;  // empty = in-process front end
  std::uint16_t connect_port = 0;
  int submit_conns = 8;
  int stream_conns = 4;
  double capacity_secs = 4.0;
  double overload_secs = 8.0;
  double rate_override = 0.0;  // 0 = 2x measured capacity
  double stream_hz = 100.0;    // per-connection step rate
  std::string out_path = "BENCH_frontend.json";
};

/// One connection's slice of a phase, merged after the threads join.
struct SubmitSlice {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::vector<double> latencies_ms;       // completed requests
  std::vector<double> shed_latencies_ms;  // RETRY_AFTER round trips
};

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

/// Phase 1: closed-loop capacity. Each connection submits back-to-back;
/// capacity is the aggregate completion rate.
SubmitSlice run_capacity_conn(const std::string& host, std::uint16_t port,
                              int family, double end_ms) {
  SubmitSlice slice;
  net::BlockingClient client;
  if (!client.connect(host, port)) {
    std::fprintf(stderr, "capacity conn: %s\n",
                 client.last_error().message.c_str());
    return slice;
  }
  const std::size_t c = client.hello().submit_in_channels;
  const std::size_t t = client.hello().submit_in_steps;
  std::vector<float> window(c * t);
  std::vector<float> out;
  std::uint64_t seq = 0;
  while (now_ms() < end_ms) {
    fill_window(family, seq++, window.data(), c, t);
    const double t0 = now_ms();
    ++slice.offered;
    if (client.submit(window.data(), out)) {
      ++slice.completed;
      slice.latencies_ms.push_back(now_ms() - t0);
    } else if (client.last_error().code == net::ErrCode::kRetryAfter) {
      ++slice.shed;
      slice.shed_latencies_ms.push_back(now_ms() - t0);
    } else {
      ++slice.errors;
      break;  // transport/protocol failure: this conn is done
    }
  }
  return slice;
}

/// Phase 2: open-loop overload. Arrivals follow a fixed schedule;
/// latency runs from the SCHEDULED send time, so server-side queueing
/// during a stall is charged to the server, not silently omitted.
SubmitSlice run_openloop_conn(const std::string& host, std::uint16_t port,
                              int family, double start_ms, double end_ms,
                              double period_ms) {
  SubmitSlice slice;
  net::BlockingClient client;
  if (!client.connect(host, port)) {
    std::fprintf(stderr, "overload conn: %s\n",
                 client.last_error().message.c_str());
    return slice;
  }
  const std::size_t c = client.hello().submit_in_channels;
  const std::size_t t = client.hello().submit_in_steps;
  std::vector<float> window(c * t);
  std::vector<std::uint8_t> buf;
  std::unordered_map<std::uint64_t, double> pending;  // req_id -> sched
  std::uint64_t next_id = 1;
  double next_send = start_ms;
  net::ClientConn& conn = client.conn();

  const auto handle_frame = [&](const net::FrameView& frame) {
    net::ErrCode code{};
    if (frame.type == net::MsgType::kResult) {
      net::ResultMsg msg;
      if (net::decode_result(frame.payload, msg, code)) {
        const auto it = pending.find(msg.req_id);
        if (it != pending.end()) {
          ++slice.completed;
          slice.latencies_ms.push_back(now_ms() - it->second);
          pending.erase(it);
        }
      }
      return;
    }
    if (frame.type == net::MsgType::kError) {
      net::ErrorMsg msg;
      if (net::decode_error(frame.payload, msg, code)) {
        const auto it = pending.find(msg.req_id);
        const double sched = it != pending.end() ? it->second : now_ms();
        if (it != pending.end()) {
          pending.erase(it);
        }
        if (msg.code == net::ErrCode::kRetryAfter) {
          ++slice.shed;
          slice.shed_latencies_ms.push_back(now_ms() - sched);
        } else {
          ++slice.errors;
        }
      }
    }
  };

  net::FrameView frame;
  while (now_ms() < end_ms) {
    if (now_ms() >= next_send) {
      fill_window(family, next_id, window.data(), c, t);
      buf.clear();
      net::encode_submit(buf, next_id, static_cast<std::uint32_t>(c),
                         static_cast<std::uint32_t>(t), window.data());
      if (!conn.send_frames(buf)) {
        ++slice.errors;
        return slice;
      }
      ++slice.offered;
      pending.emplace(next_id, next_send);  // scheduled, not actual
      ++next_id;
      next_send += period_ms;
      continue;  // catch up if behind schedule — open loop never skips
    }
    while (conn.poll_frame(frame) == net::FrameReader::Status::kFrame) {
      handle_frame(frame);
    }
    const double wait = next_send - now_ms();
    if (wait > 0.2) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::min(wait, 1.0)));
    }
  }
  // Phase 3 (per connection): drain what is still in flight.
  const double drain_deadline = now_ms() + 2000.0;
  while (!pending.empty() && now_ms() < drain_deadline) {
    if (conn.recv_frame(frame, 100) != net::FrameReader::Status::kFrame) {
      continue;
    }
    handle_frame(frame);
  }
  // Unanswered at the deadline: offered but neither completed nor shed —
  // they count against goodput (that is the point of measuring open-loop).
  return slice;
}

struct StreamSlice {
  std::uint64_t steps = 0;
  std::uint64_t errors = 0;
  std::vector<double> latencies_ms;  // step round trips
};

/// Streaming client: one session, fixed tick rate, runs alongside the
/// overload phase so the mix is genuinely concurrent.
StreamSlice run_stream_conn(const std::string& host, std::uint16_t port,
                            int family, double end_ms, double period_ms) {
  StreamSlice slice;
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
    ++slice.steps;
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

/// Phase 3: shed probe. One connection bursts several times the server's
/// advertised in-flight budget as fast as the socket accepts, then
/// collects every answer. The point is the RETRY_AFTER round-trip time:
/// admission control is only useful if a shed costs the client
/// microseconds-to-milliseconds (fast-reject), not a queue-and-timeout.
SubmitSlice run_shed_probe(const std::string& host, std::uint16_t port) {
  SubmitSlice slice;
  net::BlockingClient client;
  if (!client.connect(host, port)) {
    std::fprintf(stderr, "shed probe: %s\n",
                 client.last_error().message.c_str());
    ++slice.errors;
    return slice;
  }
  const std::size_t c = client.hello().submit_in_channels;
  const std::size_t t = client.hello().submit_in_steps;
  const std::uint64_t budget = client.hello().max_inflight;
  if (budget == 0) {
    return slice;  // server advertises no budget; nothing to probe
  }
  const std::uint64_t burst =
      std::min<std::uint64_t>(std::max<std::uint64_t>(budget * 4, 64), 4096);
  std::vector<float> window(c * t);
  std::vector<std::uint8_t> buf;
  std::unordered_map<std::uint64_t, double> sent;  // req_id -> send time
  net::ClientConn& conn = client.conn();
  for (std::uint64_t id = 1; id <= burst; ++id) {
    fill_window(static_cast<int>(id), id, window.data(), c, t);
    buf.clear();
    net::encode_submit(buf, id, static_cast<std::uint32_t>(c),
                       static_cast<std::uint32_t>(t), window.data());
    sent.emplace(id, now_ms());
    if (!conn.send_frames(buf)) {
      ++slice.errors;
      return slice;
    }
    ++slice.offered;
  }
  net::FrameView frame;
  const double deadline = now_ms() + 10000.0;
  while (!sent.empty() && now_ms() < deadline) {
    if (conn.recv_frame(frame, 250) != net::FrameReader::Status::kFrame) {
      continue;
    }
    net::ErrCode code{};
    if (frame.type == net::MsgType::kResult) {
      net::ResultMsg msg;
      if (net::decode_result(frame.payload, msg, code)) {
        const auto it = sent.find(msg.req_id);
        if (it != sent.end()) {
          ++slice.completed;
          slice.latencies_ms.push_back(now_ms() - it->second);
          sent.erase(it);
        }
      }
    } else if (frame.type == net::MsgType::kError) {
      net::ErrorMsg msg;
      if (net::decode_error(frame.payload, msg, code)) {
        const auto it = sent.find(msg.req_id);
        if (it == sent.end()) {
          continue;
        }
        if (msg.code == net::ErrCode::kRetryAfter) {
          ++slice.shed;
          slice.shed_latencies_ms.push_back(now_ms() - it->second);
        } else {
          ++slice.errors;
        }
        sent.erase(it);
      }
    }
  }
  return slice;
}

void merge(SubmitSlice& into, SubmitSlice&& from) {
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

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--quick") {
      cfg.quick = true;
    } else if (arg == "--connect") {
      const std::string hp = next();
      const std::size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect wants HOST:PORT\n");
        return 2;
      }
      cfg.connect_host = hp.substr(0, colon);
      cfg.connect_port =
          static_cast<std::uint16_t>(std::atoi(hp.c_str() + colon + 1));
    } else if (arg == "--connections") {
      cfg.submit_conns = std::atoi(next());
    } else if (arg == "--streams") {
      cfg.stream_conns = std::atoi(next());
    } else if (arg == "--duration") {
      cfg.overload_secs = std::atof(next());
    } else if (arg == "--rate") {
      cfg.rate_override = std::atof(next());
    } else if (arg == "--out") {
      cfg.out_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--connect HOST:PORT] "
                   "[--connections N] [--streams N] [--duration SECS] "
                   "[--rate RPS] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.quick) {
    cfg.submit_conns = std::min(cfg.submit_conns, 4);
    cfg.stream_conns = std::min(cfg.stream_conns, 2);
    cfg.capacity_secs = 1.5;
    cfg.overload_secs = 3.0;
    cfg.stream_hz = 50.0;
  }
  const unsigned hw_threads = std::thread::hardware_concurrency();

  bench::print_header(
      "loadgen_frontend — open-loop load vs the network front end",
      "deployment: continuous sensing served to fleets (DAC'21 §V)");

  // In-process server unless --connect: same plans as the server binary.
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<serve::SessionManager> sessions;
  std::unique_ptr<net::FrontEnd> frontend;
  std::string host = cfg.connect_host;
  std::uint16_t port = cfg.connect_port;
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
              cfg.submit_conns, cfg.capacity_secs);
  SubmitSlice capacity;
  {
    const double end = now_ms() + cfg.capacity_secs * 1000.0;
    std::vector<std::thread> threads;
    std::vector<SubmitSlice> slices(
        static_cast<std::size_t>(cfg.submit_conns));
    for (int i = 0; i < cfg.submit_conns; ++i) {
      threads.emplace_back([&, i] {
        slices[static_cast<std::size_t>(i)] =
            run_capacity_conn(host, port, i, end);
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    for (SubmitSlice& s : slices) {
      merge(capacity, std::move(s));
    }
  }
  const double capacity_rps =
      static_cast<double>(capacity.completed) / cfg.capacity_secs;
  const bench::Percentiles cap_pct = bench::percentiles(capacity.latencies_ms);
  std::printf("  capacity %.0f req/s (p50 %.2f ms, p99 %.2f ms)\n",
              capacity_rps, cap_pct.p50, cap_pct.p99);
  if (capacity.completed == 0) {
    std::fprintf(stderr, "no completions in the capacity phase — aborting\n");
    return 1;
  }

  // ---- phase 2: open-loop overload + concurrent streams -----------------
  const double target_rps = cfg.rate_override > 0.0 ? cfg.rate_override
                                                    : 2.0 * capacity_rps;
  const double period_ms =
      1000.0 * static_cast<double>(cfg.submit_conns) / target_rps;
  std::printf("phase 2: overload (%.0f req/s open-loop over %d conns, "
              "%d streams @ %.0f Hz, %.1fs)...\n",
              target_rps, cfg.submit_conns, cfg.stream_conns, cfg.stream_hz,
              cfg.overload_secs);
  SubmitSlice overload;
  StreamSlice stream;
  {
    const double start = now_ms() + 50.0;  // common schedule origin
    const double end = start + cfg.overload_secs * 1000.0;
    std::vector<std::thread> threads;
    std::vector<SubmitSlice> slices(
        static_cast<std::size_t>(cfg.submit_conns));
    std::vector<StreamSlice> stream_slices(
        static_cast<std::size_t>(cfg.stream_conns));
    for (int i = 0; i < cfg.submit_conns; ++i) {
      // Stagger connection start offsets so arrivals interleave instead
      // of beating in lockstep.
      const double offset =
          period_ms * static_cast<double>(i) /
          static_cast<double>(cfg.submit_conns);
      threads.emplace_back([&, i, offset] {
        slices[static_cast<std::size_t>(i)] = run_openloop_conn(
            host, port, i, start + offset, end, period_ms);
      });
    }
    for (int i = 0; i < cfg.stream_conns; ++i) {
      threads.emplace_back([&, i] {
        stream_slices[static_cast<std::size_t>(i)] = run_stream_conn(
            host, port, i, end, 1000.0 / cfg.stream_hz);
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    for (SubmitSlice& s : slices) {
      merge(overload, std::move(s));
    }
    for (StreamSlice& s : stream_slices) {
      stream.steps += s.steps;
      stream.errors += s.errors;
      stream.latencies_ms.insert(stream.latencies_ms.end(),
                                 s.latencies_ms.begin(),
                                 s.latencies_ms.end());
    }
  }
  const double goodput_rps =
      static_cast<double>(overload.completed) / cfg.overload_secs;
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
              static_cast<unsigned long long>(stream.steps), stream_pct.p50,
              stream_pct.p99, stream_pct.p999);

  // ---- phase 3: shed probe ----------------------------------------------
  std::printf("phase 3: shed probe (burst past the in-flight budget)...\n");
  SubmitSlice probe = run_shed_probe(host, port);
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
  FILE* json = bench::open_bench_json(cfg.out_path.c_str());
  if (json == nullptr) {
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"frontend\",\n");
  std::fprintf(json, "  \"quick\": %s,\n", cfg.quick ? "true" : "false");
  std::fprintf(json, "  \"mode\": \"%s\",\n",
               frontend ? "inprocess" : "connect");
  std::fprintf(json, "  \"hw_threads\": %u,\n", hw_threads);
  std::fprintf(json,
               "  \"config\": {\"submit_connections\": %d, "
               "\"stream_connections\": %d, \"capacity_secs\": %.2f, "
               "\"overload_secs\": %.2f, \"stream_hz\": %.1f},\n",
               cfg.submit_conns, cfg.stream_conns, cfg.capacity_secs,
               cfg.overload_secs, cfg.stream_hz);
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
               cfg.stream_conns, static_cast<unsigned long long>(stream.steps),
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
  std::printf("\nwrote %s\n", cfg.out_path.c_str());

  // Transport errors mean the harness (or server) broke — fail loudly so
  // CI does not gate on a half-measured run.
  if (overload.errors > 0 || stream.errors > 0 || probe.errors > 0) {
    std::fprintf(stderr,
                 "loadgen saw %llu submit / %llu stream / %llu probe errors\n",
                 static_cast<unsigned long long>(overload.errors),
                 static_cast<unsigned long long>(stream.errors),
                 static_cast<unsigned long long>(probe.errors));
    return 1;
  }
  return 0;
}
