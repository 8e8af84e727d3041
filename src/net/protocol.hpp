// PIT wire protocol v1: the length-prefixed binary framing the network
// front end (front_end.hpp) speaks over TCP.
//
// The normative specification — byte offsets, every message type and
// field, error codes, version negotiation, and the backpressure/shedding
// semantics — lives in docs/PROTOCOL.md; a client in another language is
// implemented from that document, not from this header. This file is the
// C++ codec: frame encoders append complete frames to a byte vector,
// FrameReader reassembles frames from an arbitrary-split byte stream
// (torn frames are the normal case under non-blocking reads), and the
// per-message decoders validate payload layout and return structured
// messages or a protocol error code.
//
// The codec is pure: no sockets, no locks, no global state — every
// function is thread-compatible (distinct objects, distinct threads) and
// unit-tested byte-by-byte in tests/test_net_protocol.cpp.
//
// All multi-byte wire fields are little-endian; floats are IEEE-754
// binary32. The implementation assumes a little-endian host (statically
// asserted in protocol.cpp) — every supported target (x86-64, AArch64)
// is; a big-endian port would byte-swap in the read_/put_ helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pit::net {

/// Protocol version this build speaks (the only one, today). HELLO
/// carries the client's [min, max] supported range; the server picks the
/// highest version both sides support or rejects the connection.
inline constexpr std::uint16_t kProtocolVersion = 1;

/// First four payload bytes of every HELLO, ASCII "PITW". A connection
/// whose first frame does not carry it is not a PIT client (a port scan,
/// a stray HTTP request) and is rejected before anything else is parsed.
inline constexpr std::uint8_t kHelloMagic[4] = {'P', 'I', 'T', 'W'};

/// Fixed frame header size: u32 payload length + u8 type + 3 zero bytes.
inline constexpr std::size_t kHeaderBytes = 8;

/// Default receive-side payload cap. A declared payload length above the
/// reader's cap is a kTooLarge protocol error (fatal) — the reader never
/// buffers it. Servers advertise their cap in HELLO_OK.
inline constexpr std::size_t kDefaultMaxPayload = 4U << 20;

/// Frame types. Client-to-server requests sit below 0x80, server-to-
/// client responses at or above it; ERROR is 0xFF. Within v1 a frame of
/// any other type is a kBadFrame protocol error.
enum class MsgType : std::uint8_t {
  // client -> server
  kHello = 0x01,   ///< version negotiation; must be the first frame
  kSubmit = 0x02,  ///< one-shot batched inference (one (C, T) window)
  kOpen = 0x03,    ///< open a streaming session
  kStep = 0x04,    ///< advance a session by one time step
  kClose = 0x05,   ///< close a streaming session
  kPing = 0x06,    ///< liveness / keep-alive probe
  // server -> client
  kHelloOk = 0x81,  ///< negotiation succeeded; carries serving geometry
  kResult = 0x82,   ///< SUBMIT's output window
  kOpened = 0x83,   ///< OPEN's session handle
  kStepOut = 0x84,  ///< STEP's output vector
  kClosed = 0x85,   ///< CLOSE acknowledged
  kPong = 0x86,     ///< PING echo
  kError = 0xFF,    ///< structured error (docs/PROTOCOL.md lists codes)
};

/// Error codes carried by ERROR frames. Fatal codes (is_fatal) mean the
/// server closes the connection after flushing the ERROR frame; the rest
/// poison only the request they answer.
enum class ErrCode : std::uint16_t {
  kUnsupportedVersion = 1,  ///< no common protocol version (fatal)
  kBadFrame = 2,            ///< malformed frame or payload (fatal)
  kTooLarge = 3,            ///< declared payload over the cap (fatal)
  kBadShape = 4,            ///< SUBMIT/STEP geometry mismatch
  kUnknownSession = 5,      ///< STEP/CLOSE on a dead session handle
  kSessionLimit = 6,        ///< OPEN rejected: session table full
  kRetryAfter = 7,          ///< SUBMIT shed: in-flight budget exhausted
  kShuttingDown = 8,        ///< server draining; no new work (fatal)
  kNotAvailable = 9,        ///< this server has no submit/stream path
  kInternal = 10,           ///< execution failed server-side
};

/// True for codes after which the server closes the connection.
bool is_fatal(ErrCode code);
std::string_view type_name(MsgType type);

// ---------------------------------------------------------------- messages

struct HelloMsg {
  std::uint16_t ver_min = kProtocolVersion;
  std::uint16_t ver_max = kProtocolVersion;
  /// Client's receive-side payload cap; 0 = unbounded. Informational —
  /// v1 server responses have fixed, geometry-derived sizes.
  std::uint32_t max_payload = 0;
};

struct HelloOkMsg {
  std::uint16_t version = kProtocolVersion;  ///< negotiated version
  bool submit_available = false;             ///< SUBMIT served here
  bool stream_available = false;             ///< OPEN/STEP/CLOSE served here
  std::uint32_t max_payload = 0;             ///< server's receive cap
  // One-shot (SUBMIT) geometry: a request carries exactly one
  // (submit_in_channels, submit_in_steps) window and its RESULT one
  // (submit_out_channels, submit_out_steps) window. All zero when
  // submit_available is false.
  std::uint32_t submit_in_channels = 0;
  std::uint32_t submit_in_steps = 0;
  std::uint32_t submit_out_channels = 0;
  std::uint32_t submit_out_steps = 0;
  // Streaming geometry: STEP carries stream_in_channels floats, STEP_OUT
  // returns stream_out_channels. All zero when stream_available is false.
  std::uint32_t stream_in_channels = 0;
  std::uint32_t stream_out_channels = 0;
  /// Admission budget: how many SUBMITs the server holds in flight
  /// before shedding with RETRY_AFTER. Informational.
  std::uint32_t max_inflight = 0;
};

struct SubmitMsg {
  std::uint64_t req_id = 0;
  std::uint32_t channels = 0;
  std::uint32_t steps = 0;
  /// channels * steps * 4 bytes of row-major (channel-major) f32 samples,
  /// pointing into the decoded payload (valid while the payload is).
  std::span<const std::uint8_t> data;
};

struct ResultMsg {
  std::uint64_t req_id = 0;
  std::uint32_t channels = 0;
  std::uint32_t steps = 0;
  std::span<const std::uint8_t> data;  ///< f32[channels * steps], row-major
};

struct OpenMsg {
  std::uint64_t req_id = 0;
};

struct OpenedMsg {
  std::uint64_t req_id = 0;
  std::uint32_t session = 0;  ///< connection-scoped session handle
};

struct StepMsg {
  std::uint64_t req_id = 0;
  std::uint32_t session = 0;
  std::span<const std::uint8_t> data;  ///< f32[stream_in_channels]
};

struct StepOutMsg {
  std::uint64_t req_id = 0;
  std::uint32_t session = 0;
  std::span<const std::uint8_t> data;  ///< f32[stream_out_channels]
};

struct CloseMsg {
  std::uint64_t req_id = 0;
  std::uint32_t session = 0;
};

struct ClosedMsg {
  std::uint64_t req_id = 0;
  std::uint32_t session = 0;
};

struct PingMsg {
  std::uint64_t req_id = 0;
};

struct ErrorMsg {
  std::uint64_t req_id = 0;  ///< 0 when not tied to one request
  ErrCode code = ErrCode::kInternal;
  /// Backoff hint in milliseconds; meaningful for kRetryAfter and
  /// kSessionLimit, 0 otherwise.
  std::uint32_t retry_after_ms = 0;
  std::string message;  ///< human-readable detail (UTF-8, may be empty)
};

// ------------------------------------------------------------ float helpers

/// Copies `count` wire-order f32 values out of `raw` (raw.size() must be
/// count * 4; the decoders guarantee it for their data spans).
void copy_floats(std::span<const std::uint8_t> raw, float* dst,
                 std::size_t count);

// ---------------------------------------------------------------- encoders
//
// Each appends ONE complete frame (header + payload) to `out`, which may
// already hold earlier frames — the natural shape for a connection's
// write buffer.

void encode_hello(std::vector<std::uint8_t>& out, const HelloMsg& msg);
void encode_hello_ok(std::vector<std::uint8_t>& out, const HelloOkMsg& msg);
void encode_submit(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                   std::uint32_t channels, std::uint32_t steps,
                   const float* data);
void encode_result(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                   std::uint32_t channels, std::uint32_t steps,
                   const float* data);
void encode_open(std::vector<std::uint8_t>& out, std::uint64_t req_id);
void encode_opened(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                   std::uint32_t session);
void encode_step(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                 std::uint32_t session, const float* data,
                 std::uint32_t channels);
void encode_step_out(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                     std::uint32_t session, const float* data,
                     std::uint32_t channels);
void encode_close(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                  std::uint32_t session);
void encode_closed(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                   std::uint32_t session);
void encode_ping(std::vector<std::uint8_t>& out, std::uint64_t req_id);
void encode_pong(std::vector<std::uint8_t>& out, std::uint64_t req_id);
void encode_error(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                  ErrCode code, std::uint32_t retry_after_ms,
                  std::string_view message);

// ---------------------------------------------------------------- decoders
//
// Each validates the payload of one already-reassembled frame. On success
// the message is filled (spans point into `payload`) and true returned;
// on failure false, with `err` set to the protocol error the peer should
// be answered with. Decoders never throw.

bool decode_hello(std::span<const std::uint8_t> payload, HelloMsg& msg,
                  ErrCode& err);
bool decode_hello_ok(std::span<const std::uint8_t> payload, HelloOkMsg& msg,
                     ErrCode& err);
bool decode_submit(std::span<const std::uint8_t> payload, SubmitMsg& msg,
                   ErrCode& err);
bool decode_result(std::span<const std::uint8_t> payload, ResultMsg& msg,
                   ErrCode& err);
bool decode_open(std::span<const std::uint8_t> payload, OpenMsg& msg,
                 ErrCode& err);
bool decode_opened(std::span<const std::uint8_t> payload, OpenedMsg& msg,
                   ErrCode& err);
bool decode_step(std::span<const std::uint8_t> payload, StepMsg& msg,
                 ErrCode& err);
bool decode_step_out(std::span<const std::uint8_t> payload, StepOutMsg& msg,
                     ErrCode& err);
bool decode_close(std::span<const std::uint8_t> payload, CloseMsg& msg,
                  ErrCode& err);
bool decode_closed(std::span<const std::uint8_t> payload, ClosedMsg& msg,
                   ErrCode& err);
bool decode_ping(std::span<const std::uint8_t> payload, PingMsg& msg,
                 ErrCode& err);
bool decode_pong(std::span<const std::uint8_t> payload, PingMsg& msg,
                 ErrCode& err);
bool decode_error(std::span<const std::uint8_t> payload, ErrorMsg& msg,
                  ErrCode& err);

// ------------------------------------------------------------- FrameReader

/// One frame reassembled from the stream: the type byte plus a view of
/// its payload. The view borrows the reader's internal buffer — valid
/// until the next feed() or next() call on that reader.
struct FrameView {
  MsgType type = MsgType::kError;
  std::span<const std::uint8_t> payload;
};

/// Incremental frame reassembly over an arbitrarily-split byte stream.
/// feed() whatever read(2) returned; next() yields complete frames until
/// kNeedMore. A stream-level violation (payload over the cap, nonzero
/// reserved header bytes) latches kError — the connection is dead; the
/// reader stays in the error state and `error()` names the code to send.
class FrameReader {
 public:
  enum class Status : std::uint8_t { kFrame, kNeedMore, kError };

  explicit FrameReader(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void feed(const std::uint8_t* data, std::size_t n);
  Status next(FrameView& out);
  ErrCode error() const { return err_; }
  /// Bytes buffered but not yet consumed (torn-frame backlog).
  std::size_t pending_bytes() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::size_t max_payload_;
  bool failed_ = false;
  ErrCode err_ = ErrCode::kBadFrame;
};

}  // namespace pit::net
