// The traffic generator: ONE thread multiplexing a few TCP connections.
// SUBMITs arrive at a fixed rate, STEPs at a fixed aggregate tick rate
// spread over many sessions, and PINGs (a probe of the bare socket hop)
// at their own rate; every such open-loop request is timed from its
// SCHEDULED send time (a stall is charged to the server, not silently
// omitted). To measure capacity, SUBMIT can instead run closed loop,
// keeping a fixed number in flight. Every answer is checked bit-exactly
// against the oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "models.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"

namespace pitperf {

/// Outcome of one traffic class in one phase.
struct ClassStats {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;          ///< answered and bit-exact
  std::uint64_t shed = 0;        ///< RETRY_AFTER
  std::uint64_t errors = 0;      ///< other ERROR frames, transport errors
  std::uint64_t timeouts = 0;    ///< unanswered at the drain deadline
  std::uint64_t mismatched = 0;  ///< answered with wrong bits
  std::vector<double> lat_us;    ///< scheduled send -> answer, ok only
  std::uint64_t failed() const { return shed + errors + timeouts + mismatched; }
};

/// The traffic of one phase; a zero rate sends none of that class.
struct Offer {
  double submit_rate = 0.0;       ///< SUBMIT/s, open loop
  std::size_t submit_window = 0;  ///< nonzero: SUBMITs kept in flight instead
  double step_rate = 0.0;         ///< STEP tick slots/s over all sessions
  double ping_rate = 0.0;         ///< PING/s
};

struct PhaseResult {
  double seconds = 0.0;
  Offer offer;
  ClassStats submit, step, ping;
  std::uint64_t open_errors = 0, close_errors = 0;
  double late_p99_us = 0.0;  ///< generator send lateness behind schedule
  double late_max_us = 0.0;
  std::uint64_t backlog = 0;  ///< outstanding requests when sending ended
  /// Correct SUBMIT answers per 250 ms of the phase; answers after
  /// sending ended are not binned.
  std::vector<std::uint32_t> ok_bins;
  static constexpr double kBinSeconds = 0.25;
};

class LoadGen {
 public:
  /// `stream` is null when the workload sends no STEPs.
  LoadGen(const SubmitOracle& submit, const StreamOracle* stream,
          int sessions_per_conn, Tracer& tracer);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Connects `conns` connections and negotiates HELLO on each.
  bool connect(std::uint16_t port, int conns);
  /// Whether every connection's HELLO_OK geometry matches the oracles.
  bool geometry_ok() const;

  /// One phase; sessions are opened inside it (each one's first tick slot
  /// sends OPEN) and all closed again before it returns. Closed-loop
  /// SUBMITs are sent as soon as fewer than the window are in flight, each
  /// timed from its own send.
  PhaseResult run(const Offer& offer, double seconds);

  /// Whether the corrupted-reference self-check reported its mismatch.
  bool selfcheck_caught() const { return selfcheck_caught_; }
  bool selfcheck_ran() const { return selfcheck_ran_; }

 private:
  enum class Kind : std::uint8_t { kSubmit, kStep, kOpen, kClose, kPing };
  struct Pending {
    Kind kind = Kind::kSubmit;
    std::int64_t sched_ns = 0;
    std::uint32_t index = 0;  ///< pool index (SUBMIT) or session (others)
    std::uint32_t seq = 0;    ///< STEP: oracle sequence
    std::int32_t tick = 0;    ///< STEP: tick within the sequence
    std::int32_t span = -1;   ///< traced round-trip span
  };
  enum class SessState : std::uint8_t { kIdle, kOpening, kActive, kClosing };
  struct Session {
    std::size_t conn = 0;
    SessState state = SessState::kIdle;
    std::uint32_t handle = 0;
    std::uint32_t seq = 0;
    int tick = 0;
  };
  struct Conn {
    pit::net::BlockingClient client;
    pit::net::FrameReader reader;
    std::vector<std::uint8_t> out;  ///< frames encoded, not yet sent
    std::unordered_map<std::uint64_t, Pending> pending;
  };

  void emit_submit(PhaseResult& r, std::int64_t sched);
  void emit_tick(PhaseResult& r, std::size_t session, std::int64_t sched);
  void emit_ping(PhaseResult& r, std::int64_t sched);
  bool flush(PhaseResult& r);
  bool output_pending() const;
  void read_all(PhaseResult& r, bool& transport_failed);
  void on_frame(PhaseResult& r, Conn& c, const pit::net::FrameView& f);
  void bin_ok(PhaseResult& r, std::int64_t now) const;
  void close_sessions(PhaseResult& r);

  const SubmitOracle& submit_;
  const StreamOracle* stream_;
  int sessions_per_conn_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Session> sessions_;
  std::vector<std::uint8_t> rx_;
  std::uint64_t next_req_ = 1;
  std::uint64_t submit_count_ = 0;
  std::uint32_t next_seq_ = 0;
  std::size_t rr_conn_ = 0;
  std::size_t outstanding_ = 0;
  std::size_t submits_outstanding_ = 0;
  bool selfcheck_ran_ = false;
  bool selfcheck_caught_ = false;
  std::vector<double> late_us_;
  std::int64_t phase_start_ns_ = 0;  ///< the current schedule's span
  std::int64_t phase_end_ns_ = 0;
};

}  // namespace pitperf
