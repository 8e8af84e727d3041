#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

namespace pitperf {

namespace net = pit::net;

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kDrainNs = 3'000'000'000;  // answers still owed

/// Bit-exact check of a wire payload (little-endian f32) against `ref`.
bool payload_matches(std::span<const std::uint8_t> data, const float* ref,
                     std::size_t n) {
  return data.size() == n * sizeof(float) &&
         std::memcmp(data.data(), ref, data.size()) == 0;
}

}  // namespace

LoadGen::LoadGen(const SubmitOracle& submit, const StreamOracle* stream,
                 int sessions_per_conn, Tracer& tracer)
    : submit_(submit),
      stream_(stream),
      sessions_per_conn_(sessions_per_conn),
      tracer_(tracer),
      rx_(64 * 1024) {
}

LoadGen::~LoadGen() = default;

bool LoadGen::connect(std::uint16_t port, int conns) {
  conns_.clear();
  for (int i = 0; i < conns; ++i) {
    auto c = std::make_unique<Conn>();
    if (!c->client.connect("127.0.0.1", port)) {
      std::fprintf(stderr, "connect: %s\n",
                   c->client.last_error().message.c_str());
      return false;
    }
    conns_.push_back(std::move(c));
  }
  return true;
}

bool LoadGen::geometry_ok() const {
  for (const auto& c : conns_) {
    const net::HelloOkMsg& h = c->client.hello();
    if (!h.submit_available || h.submit_in_channels != submit_.c ||
        h.submit_in_steps != submit_.t ||
        h.submit_out_channels * h.submit_out_steps != submit_.out_n) {
      return false;
    }
    if (stream_ != nullptr &&
        (!h.stream_available || h.stream_in_channels != stream_->c_in ||
         h.stream_out_channels != stream_->c_out)) {
      return false;
    }
  }
  return !conns_.empty();
}

void LoadGen::emit_submit(PhaseResult& r, std::int64_t sched) {
  Conn& c = *conns_[rr_conn_++ % conns_.size()];
  const auto idx = static_cast<std::uint32_t>(submit_count_++ % submit_.pool);
  const std::uint64_t req = next_req_++;
  const std::int32_t span = tracer_.begin("net.submit", req);
  {
    Scoped enc(tracer_, "net.encode.submit", req, span);
    net::encode_submit(c.out, req, static_cast<std::uint32_t>(submit_.c),
                       static_cast<std::uint32_t>(submit_.t),
                       submit_.input(idx));
  }
  c.pending.emplace(req, Pending{Kind::kSubmit, sched, idx, 0, 0, span});
  ++r.submit.sent;
  ++outstanding_;
  ++submits_outstanding_;
  late_us_.push_back(static_cast<double>(now_ns() - sched) * 1e-3);
}

void LoadGen::emit_tick(PhaseResult& r, std::size_t s, std::int64_t sched) {
  Session& ss = sessions_[s];
  Conn& c = *conns_[ss.conn];
  const std::uint64_t req = next_req_++;
  const auto si = static_cast<std::uint32_t>(s);
  switch (ss.state) {
    case SessState::kIdle:
      net::encode_open(c.out, req);
      c.pending.emplace(req, Pending{Kind::kOpen, sched, si, 0, 0, -1});
      ss.state = SessState::kOpening;
      ++outstanding_;
      return;
    case SessState::kOpening:
    case SessState::kClosing:
      return;  // the slot passes while the session opens or closes
    case SessState::kActive:
      break;
  }
  if (ss.tick >= stream_->ticks) {
    net::encode_close(c.out, req, ss.handle);
    c.pending.emplace(req, Pending{Kind::kClose, sched, si, 0, 0, -1});
    ss.state = SessState::kClosing;
    ++outstanding_;
    return;
  }
  const std::int32_t span = tracer_.begin("net.step", req);
  {
    Scoped enc(tracer_, "net.encode.step", req, span);
    net::encode_step(c.out, req, ss.handle, stream_->input(ss.seq, ss.tick),
                     static_cast<std::uint32_t>(stream_->c_in));
  }
  c.pending.emplace(req,
                    Pending{Kind::kStep, sched, si, ss.seq, ss.tick, span});
  ++ss.tick;
  ++r.step.sent;
  ++outstanding_;
  late_us_.push_back(static_cast<double>(now_ns() - sched) * 1e-3);
}

void LoadGen::emit_ping(PhaseResult& r, std::int64_t sched) {
  Conn& c = *conns_[rr_conn_++ % conns_.size()];
  const std::uint64_t req = next_req_++;
  const std::int32_t span = tracer_.begin("net.ping", req);
  net::encode_ping(c.out, req);
  c.pending.emplace(req, Pending{Kind::kPing, sched, 0, 0, 0, span});
  ++r.ping.sent;
  ++outstanding_;
}

bool LoadGen::flush(PhaseResult& r) {
  // Non-blocking: what the socket does not take now stays queued, so the
  // generator never sleeps in send() while the server catches up.
  for (auto& c : conns_) {
    std::size_t off = 0;
    while (off < c->out.size()) {
      const ssize_t n = ::send(c->client.conn().fd(), c->out.data() + off,
                               c->out.size() - off, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        ++r.submit.errors;
        return false;
      }
    }
    c->out.erase(c->out.begin(), c->out.begin() + static_cast<std::ptrdiff_t>(off));
  }
  return true;
}

bool LoadGen::output_pending() const {
  for (const auto& c : conns_) {
    if (!c->out.empty()) {
      return true;
    }
  }
  return false;
}

void LoadGen::bin_ok(PhaseResult& r, std::int64_t now) const {
  if (now < phase_start_ns_ || now >= phase_end_ns_) {
    return;
  }
  const auto bin = static_cast<std::size_t>(
      static_cast<double>(now - phase_start_ns_) * 1e-9 / PhaseResult::kBinSeconds);
  if (bin < r.ok_bins.size()) {
    ++r.ok_bins[bin];
  }
}

void LoadGen::on_frame(PhaseResult& r, Conn& c, const net::FrameView& f) {
  const std::int64_t now = now_ns();
  net::ErrCode code{};
  std::uint64_t req = 0;
  std::int32_t dec = -1;
  // Decode first (the request id is inside), then settle the request.
  net::ResultMsg res;
  net::StepOutMsg so;
  net::OpenedMsg opened;
  net::ClosedMsg closed;
  net::PingMsg pong;
  net::ErrorMsg err;
  bool decoded = false;
  switch (f.type) {
    case net::MsgType::kResult:
      dec = tracer_.begin("net.decode.result", 0);
      decoded = net::decode_result(f.payload, res, code);
      tracer_.end(dec);
      req = res.req_id;
      break;
    case net::MsgType::kStepOut:
      dec = tracer_.begin("net.decode.step_out", 0);
      decoded = net::decode_step_out(f.payload, so, code);
      tracer_.end(dec);
      req = so.req_id;
      break;
    case net::MsgType::kOpened:
      decoded = net::decode_opened(f.payload, opened, code);
      req = opened.req_id;
      break;
    case net::MsgType::kClosed:
      decoded = net::decode_closed(f.payload, closed, code);
      req = closed.req_id;
      break;
    case net::MsgType::kPong:
      decoded = net::decode_pong(f.payload, pong, code);
      req = pong.req_id;
      break;
    case net::MsgType::kError:
      decoded = net::decode_error(f.payload, err, code);
      req = err.req_id;
      break;
    default:
      break;
  }
  const auto it = decoded ? c.pending.find(req) : c.pending.end();
  if (it == c.pending.end()) {
    ++r.submit.errors;  // undecodable or unsolicited frame
    return;
  }
  const Pending p = it->second;
  c.pending.erase(it);
  --outstanding_;
  if (p.kind == Kind::kSubmit) {
    --submits_outstanding_;
  }
  const double lat_us = static_cast<double>(now - p.sched_ns) * 1e-3;
  tracer_.adopt(dec, p.span, req);

  if (f.type == net::MsgType::kError) {
    switch (p.kind) {
      case Kind::kSubmit:
        ++(err.code == net::ErrCode::kRetryAfter ? r.submit.shed
                                                 : r.submit.errors);
        break;
      case Kind::kStep:
        ++r.step.errors;
        break;
      case Kind::kOpen:
        ++r.open_errors;
        sessions_[p.index].state = SessState::kIdle;
        break;
      case Kind::kClose:
        ++r.close_errors;
        sessions_[p.index].state = SessState::kIdle;
        break;
      case Kind::kPing:
        ++r.ping.errors;
        break;
    }
    tracer_.end(p.span);
    return;
  }
  switch (p.kind) {
    case Kind::kSubmit: {
      const float* ref = submit_.ref(p.index);
      const auto n = static_cast<std::size_t>(submit_.out_n);
      const bool good = f.type == net::MsgType::kResult &&
                        payload_matches(res.data, ref, n);
      if (good && !selfcheck_ran_) {
        selfcheck_ran_ = true;
        std::vector<float> bad(ref, ref + n);
        std::uint32_t bits = 0;
        std::memcpy(&bits, bad.data(), sizeof(bits));
        bits ^= 1U;  // one flipped mantissa bit
        std::memcpy(bad.data(), &bits, sizeof(bits));
        selfcheck_caught_ = !payload_matches(res.data, bad.data(), n);
      }
      if (good) {
        ++r.submit.ok;
        bin_ok(r, now);  // capacity is SUBMIT goodput
        r.submit.lat_us.push_back(lat_us);
      } else {
        ++r.submit.mismatched;
      }
      break;
    }
    case Kind::kStep: {
      const Session& ss = sessions_[p.index];
      const auto n = static_cast<std::size_t>(stream_->c_out);
      const float* ref = stream_->ref(p.seq, p.tick);
      const bool good = f.type == net::MsgType::kStepOut &&
                        so.session == ss.handle &&
                        payload_matches(so.data, ref, n);
      if (good && !selfcheck_ran_) {
        selfcheck_ran_ = true;
        std::vector<float> bad(ref, ref + n);
        std::uint32_t bits = 0;
        std::memcpy(&bits, bad.data() + n - 1, sizeof(bits));
        bits ^= 1U;
        std::memcpy(bad.data() + n - 1, &bits, sizeof(bits));
        selfcheck_caught_ = !payload_matches(so.data, bad.data(), n);
      }
      if (good) {
        ++r.step.ok;
        r.step.lat_us.push_back(lat_us);
      } else {
        ++r.step.mismatched;
      }
      break;
    }
    case Kind::kOpen: {
      Session& ss = sessions_[p.index];
      if (f.type == net::MsgType::kOpened) {
        ss.handle = opened.session;
        ss.state = SessState::kActive;
        ss.tick = 0;
      } else {
        ++r.open_errors;
        ss.state = SessState::kIdle;
      }
      break;
    }
    case Kind::kClose: {
      Session& ss = sessions_[p.index];
      if (f.type != net::MsgType::kClosed) {
        ++r.close_errors;
      }
      ss.state = SessState::kIdle;
      ss.seq = next_seq_++ % static_cast<std::uint32_t>(stream_->pool);
      break;
    }
    case Kind::kPing:
      if (f.type == net::MsgType::kPong) {
        ++r.ping.ok;
        r.ping.lat_us.push_back(lat_us);
      } else {
        ++r.ping.mismatched;
      }
      break;
  }
  tracer_.end(p.span);
}

void LoadGen::read_all(PhaseResult& r, bool& transport_failed) {
  for (auto& cp : conns_) {
    Conn& c = *cp;
    for (;;) {
      const ssize_t got = ::recv(c.client.conn().fd(), rx_.data(), rx_.size(),
                                 MSG_DONTWAIT);
      if (got > 0) {
        c.reader.feed(rx_.data(), static_cast<std::size_t>(got));
        net::FrameView f;
        net::FrameReader::Status st;
        while ((st = c.reader.next(f)) == net::FrameReader::Status::kFrame) {
          on_frame(r, c, f);
        }
        if (st == net::FrameReader::Status::kError) {
          transport_failed = true;
          return;
        }
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      if (got < 0 && errno == EINTR) {
        continue;
      }
      transport_failed = true;  // peer closed or socket error
      return;
    }
  }
}

PhaseResult LoadGen::run(const Offer& offer, double seconds) {
  const ScopedAffinity pin(ScopedAffinity::kLastCpu);
  PhaseResult r;
  r.seconds = seconds;
  Offer& o = r.offer;
  o = offer;
  if (o.submit_window > 0) {
    o.submit_rate = 0.0;
  }
  if (stream_ == nullptr) {
    o.step_rate = 0.0;
  }
  late_us_.clear();
  sessions_.clear();
  if (o.step_rate > 0.0) {
    const std::size_t total =
        conns_.size() * static_cast<std::size_t>(sessions_per_conn_);
    sessions_.resize(total);
    for (std::size_t s = 0; s < total; ++s) {
      sessions_[s].conn = s % conns_.size();
      sessions_[s].seq = next_seq_++ % static_cast<std::uint32_t>(stream_->pool);
    }
  }
  const double p_sub = o.submit_rate > 0.0 ? 1e9 / o.submit_rate : 0.0;
  const double p_step = o.step_rate > 0.0 ? 1e9 / o.step_rate : 0.0;
  const double p_ping = o.ping_rate > 0.0 ? 1e9 / o.ping_rate : 0.0;
  const std::int64_t t0 = now_ns() + 1'000'000;
  const auto end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  phase_start_ns_ = t0;
  phase_end_ns_ = end;
  r.ok_bins.assign(static_cast<std::size_t>(seconds / PhaseResult::kBinSeconds), 0);
  std::uint64_t k_sub = 0;
  std::uint64_t k_step = 0;
  std::uint64_t k_ping = 0;
  const auto next_at = [&](double period, std::uint64_t k, double phase = 0.0) {
    if (period <= 0.0) {
      return kNever;
    }
    const std::int64_t t =
        t0 + static_cast<std::int64_t>((static_cast<double>(k) + phase) * period);
    return t < end ? t : kNever;
  };
  // PINGs are shifted off the SUBMIT/STEP grid: one sent in the same
  // instant as a SUBMIT would time the SUBMIT's decode as well as the hop.
  constexpr double kPingPhase = 0.37;

  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i]->client.conn().fd();
    fds[i].events = POLLIN;
  }
  bool failed = false;
  bool backlog_taken = false;
  for (;;) {
    const std::int64_t now = now_ns();
    std::int64_t ns = next_at(p_sub, k_sub);
    std::int64_t nt = next_at(p_step, k_step);
    std::int64_t np = next_at(p_ping, k_ping, kPingPhase);
    // Closed loop: refill the window, each SUBMIT timed from its send.
    while (now < end && submits_outstanding_ < o.submit_window) {
      emit_submit(r, now);
    }
    while (std::min({ns, nt, np}) <= now) {
      if (np <= std::min(ns, nt)) {
        emit_ping(r, np);
        np = next_at(p_ping, ++k_ping, kPingPhase);
      } else if (ns <= nt) {
        emit_submit(r, ns);
        ns = next_at(p_sub, ++k_sub);
      } else {
        emit_tick(r, static_cast<std::size_t>(k_step % sessions_.size()), nt);
        nt = next_at(p_step, ++k_step);
      }
    }
    if (!flush(r)) {
      failed = true;
      break;
    }
    const std::int64_t wake = std::min({ns, nt, np});
    if (wake == kNever && (o.submit_window == 0 || now >= end)) {
      if (!backlog_taken) {
        backlog_taken = true;
        r.backlog = outstanding_;
      }
      if (outstanding_ == 0 || now > end + kDrainNs) {
        break;
      }
    }
    // Spin, never sleep: a sleeping thread on a virtualised host can wake
    // milliseconds late, which would be charged to the server. The
    // generator owns its CPU (ScopedAffinity) for the whole phase.
    timespec zero{0, 0};
    if (::ppoll(fds.data(), fds.size(), &zero, nullptr) > 0) {
      read_all(r, failed);
      if (failed) {
        break;
      }
    }
  }
  // Whatever is still owed at the deadline failed.
  for (auto& c : conns_) {
    for (const auto& [req, p] : c->pending) {
      switch (p.kind) {
        case Kind::kSubmit:
          ++r.submit.timeouts;
          break;
        case Kind::kStep:
          ++r.step.timeouts;
          break;
        case Kind::kOpen:
          ++r.open_errors;
          break;
        case Kind::kClose:
          ++r.close_errors;
          break;
        case Kind::kPing:
          ++r.ping.timeouts;
          break;
      }
    }
    c->pending.clear();
  }
  outstanding_ = 0;
  submits_outstanding_ = 0;
  if (failed) {
    ++r.submit.errors;
  } else {
    close_sessions(r);
  }
  r.late_p99_us = percentile(late_us_, 99);
  r.late_max_us = late_us_.empty()
                      ? 0.0
                      : *std::max_element(late_us_.begin(), late_us_.end());
  return r;
}

void LoadGen::close_sessions(PhaseResult& r) {
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    Session& ss = sessions_[s];
    if (ss.state != SessState::kActive) {
      continue;
    }
    Conn& c = *conns_[ss.conn];
    const std::uint64_t req = next_req_++;
    net::encode_close(c.out, req, ss.handle);
    c.pending.emplace(req, Pending{Kind::kClose, now_ns(),
                                   static_cast<std::uint32_t>(s), 0, 0, -1});
    ss.state = SessState::kClosing;
    ++outstanding_;
  }
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i]->client.conn().fd();
    fds[i].events = POLLIN;
  }
  const std::int64_t deadline = now_ns() + kDrainNs;
  bool failed = false;
  while (outstanding_ > 0 && now_ns() < deadline && !failed) {
    failed = !flush(r);
    if (!failed && ::poll(fds.data(), fds.size(), output_pending() ? 0 : 10) > 0) {
      read_all(r, failed);
    }
  }
  for (auto& c : conns_) {
    r.close_errors += c->pending.size();
    c->pending.clear();
  }
  outstanding_ = 0;
}

}  // namespace pitperf
