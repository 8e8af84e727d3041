#include "net/protocol.hpp"

#include <bit>
#include <cstring>

namespace pit::net {

// The wire is little-endian; the put_/read_ helpers below are plain
// memcpy, which is only correct on a little-endian host. Every supported
// target is — a big-endian port swaps here and nowhere else.
static_assert(std::endian::native == std::endian::little,
              "pit::net codec assumes a little-endian host");

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

void put_f32s(std::vector<std::uint8_t>& out, const float* data,
              std::size_t count) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + count * sizeof(float));
}

std::uint16_t read_u16(const std::uint8_t* p) {
  std::uint16_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Writes the 8-byte frame header: u32 payload length, u8 type, 3 zero
/// (reserved) bytes. Returns the offset of the length field so callers
/// that append the payload afterwards can backpatch it.
std::size_t put_header(std::vector<std::uint8_t>& out, MsgType type,
                       std::size_t payload_len) {
  const std::size_t at = out.size();
  put_u32(out, static_cast<std::uint32_t>(payload_len));
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  return at;
}

bool take(std::span<const std::uint8_t> payload, std::size_t exact,
          ErrCode& err) {
  if (payload.size() != exact) {
    err = ErrCode::kBadFrame;
    return false;
  }
  return true;
}

/// Fixed prefix + f32 tail: payload must be exactly `prefix` bytes plus
/// `floats` * 4 bytes of sample data.
bool take_with_floats(std::span<const std::uint8_t> payload,
                      std::size_t prefix, std::uint64_t floats,
                      ErrCode& err) {
  if (floats > (std::uint64_t{1} << 28) ||
      payload.size() != prefix + static_cast<std::size_t>(floats) * 4) {
    err = ErrCode::kBadFrame;
    return false;
  }
  return true;
}

}  // namespace

bool is_fatal(ErrCode code) {
  switch (code) {
    case ErrCode::kUnsupportedVersion:
    case ErrCode::kBadFrame:
    case ErrCode::kTooLarge:
    case ErrCode::kShuttingDown:
      return true;
    default:
      return false;
  }
}

std::string_view type_name(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kSubmit: return "SUBMIT";
    case MsgType::kOpen: return "OPEN";
    case MsgType::kStep: return "STEP";
    case MsgType::kClose: return "CLOSE";
    case MsgType::kPing: return "PING";
    case MsgType::kHelloOk: return "HELLO_OK";
    case MsgType::kResult: return "RESULT";
    case MsgType::kOpened: return "OPENED";
    case MsgType::kStepOut: return "STEP_OUT";
    case MsgType::kClosed: return "CLOSED";
    case MsgType::kPong: return "PONG";
    case MsgType::kError: return "ERROR";
  }
  return "UNKNOWN";
}

void copy_floats(std::span<const std::uint8_t> raw, float* dst,
                 std::size_t count) {
  std::memcpy(dst, raw.data(), count * sizeof(float));
}

// ---------------------------------------------------------------- encoders

void encode_hello(std::vector<std::uint8_t>& out, const HelloMsg& msg) {
  put_header(out, MsgType::kHello, 12);
  out.insert(out.end(), std::begin(kHelloMagic), std::end(kHelloMagic));
  put_u16(out, msg.ver_min);
  put_u16(out, msg.ver_max);
  put_u32(out, msg.max_payload);
}

void encode_hello_ok(std::vector<std::uint8_t>& out, const HelloOkMsg& msg) {
  put_header(out, MsgType::kHelloOk, 36);
  put_u16(out, msg.version);
  out.push_back(static_cast<std::uint8_t>(
      (msg.submit_available ? 1U : 0U) | (msg.stream_available ? 2U : 0U)));
  out.push_back(0);
  put_u32(out, msg.max_payload);
  put_u32(out, msg.submit_in_channels);
  put_u32(out, msg.submit_in_steps);
  put_u32(out, msg.submit_out_channels);
  put_u32(out, msg.submit_out_steps);
  put_u32(out, msg.stream_in_channels);
  put_u32(out, msg.stream_out_channels);
  put_u32(out, msg.max_inflight);
}

void encode_submit(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                   std::uint32_t channels, std::uint32_t steps,
                   const float* data) {
  const std::size_t floats =
      static_cast<std::size_t>(channels) * static_cast<std::size_t>(steps);
  put_header(out, MsgType::kSubmit, 16 + floats * 4);
  put_u64(out, req_id);
  put_u32(out, channels);
  put_u32(out, steps);
  put_f32s(out, data, floats);
}

void encode_result(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                   std::uint32_t channels, std::uint32_t steps,
                   const float* data) {
  const std::size_t floats =
      static_cast<std::size_t>(channels) * static_cast<std::size_t>(steps);
  put_header(out, MsgType::kResult, 16 + floats * 4);
  put_u64(out, req_id);
  put_u32(out, channels);
  put_u32(out, steps);
  put_f32s(out, data, floats);
}

void encode_open(std::vector<std::uint8_t>& out, std::uint64_t req_id) {
  put_header(out, MsgType::kOpen, 8);
  put_u64(out, req_id);
}

void encode_opened(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                   std::uint32_t session) {
  put_header(out, MsgType::kOpened, 12);
  put_u64(out, req_id);
  put_u32(out, session);
}

void encode_step(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                 std::uint32_t session, const float* data,
                 std::uint32_t channels) {
  put_header(out, MsgType::kStep,
             12 + static_cast<std::size_t>(channels) * 4);
  put_u64(out, req_id);
  put_u32(out, session);
  put_f32s(out, data, channels);
}

void encode_step_out(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                     std::uint32_t session, const float* data,
                     std::uint32_t channels) {
  put_header(out, MsgType::kStepOut,
             12 + static_cast<std::size_t>(channels) * 4);
  put_u64(out, req_id);
  put_u32(out, session);
  put_f32s(out, data, channels);
}

void encode_close(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                  std::uint32_t session) {
  put_header(out, MsgType::kClose, 12);
  put_u64(out, req_id);
  put_u32(out, session);
}

void encode_closed(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                   std::uint32_t session) {
  put_header(out, MsgType::kClosed, 12);
  put_u64(out, req_id);
  put_u32(out, session);
}

void encode_ping(std::vector<std::uint8_t>& out, std::uint64_t req_id) {
  put_header(out, MsgType::kPing, 8);
  put_u64(out, req_id);
}

void encode_pong(std::vector<std::uint8_t>& out, std::uint64_t req_id) {
  put_header(out, MsgType::kPong, 8);
  put_u64(out, req_id);
}

void encode_error(std::vector<std::uint8_t>& out, std::uint64_t req_id,
                  ErrCode code, std::uint32_t retry_after_ms,
                  std::string_view message) {
  put_header(out, MsgType::kError, 16 + message.size());
  put_u64(out, req_id);
  put_u16(out, static_cast<std::uint16_t>(code));
  put_u16(out, 0);
  put_u32(out, retry_after_ms);
  const auto* p = reinterpret_cast<const std::uint8_t*>(message.data());
  out.insert(out.end(), p, p + message.size());
}

// ---------------------------------------------------------------- decoders

bool decode_hello(std::span<const std::uint8_t> payload, HelloMsg& msg,
                  ErrCode& err) {
  if (!take(payload, 12, err)) {
    return false;
  }
  if (std::memcmp(payload.data(), kHelloMagic, 4) != 0) {
    err = ErrCode::kBadFrame;
    return false;
  }
  msg.ver_min = read_u16(payload.data() + 4);
  msg.ver_max = read_u16(payload.data() + 6);
  msg.max_payload = read_u32(payload.data() + 8);
  if (msg.ver_min > msg.ver_max) {
    err = ErrCode::kBadFrame;
    return false;
  }
  return true;
}

bool decode_hello_ok(std::span<const std::uint8_t> payload, HelloOkMsg& msg,
                     ErrCode& err) {
  if (!take(payload, 36, err)) {
    return false;
  }
  msg.version = read_u16(payload.data());
  const std::uint8_t flags = payload[2];
  if (payload[3] != 0 || (flags & ~3U) != 0) {
    err = ErrCode::kBadFrame;
    return false;
  }
  msg.submit_available = (flags & 1U) != 0;
  msg.stream_available = (flags & 2U) != 0;
  msg.max_payload = read_u32(payload.data() + 4);
  msg.submit_in_channels = read_u32(payload.data() + 8);
  msg.submit_in_steps = read_u32(payload.data() + 12);
  msg.submit_out_channels = read_u32(payload.data() + 16);
  msg.submit_out_steps = read_u32(payload.data() + 20);
  msg.stream_in_channels = read_u32(payload.data() + 24);
  msg.stream_out_channels = read_u32(payload.data() + 28);
  msg.max_inflight = read_u32(payload.data() + 32);
  return true;
}

namespace {

/// Shared layout of SUBMIT and RESULT: u64 req_id, u32 channels, u32
/// steps, then channels * steps f32s.
bool decode_window(std::span<const std::uint8_t> payload,
                   std::uint64_t& req_id, std::uint32_t& channels,
                   std::uint32_t& steps,
                   std::span<const std::uint8_t>& data, ErrCode& err) {
  if (payload.size() < 16) {
    err = ErrCode::kBadFrame;
    return false;
  }
  req_id = read_u64(payload.data());
  channels = read_u32(payload.data() + 8);
  steps = read_u32(payload.data() + 12);
  const std::uint64_t floats =
      static_cast<std::uint64_t>(channels) * steps;
  if (!take_with_floats(payload, 16, floats, err)) {
    return false;
  }
  data = payload.subspan(16);
  return true;
}

/// Shared layout of STEP and STEP_OUT: u64 req_id, u32 session, then an
/// f32 tail whose length the payload itself determines (the receiver
/// checks it against its geometry).
bool decode_session_vector(std::span<const std::uint8_t> payload,
                           std::uint64_t& req_id, std::uint32_t& session,
                           std::span<const std::uint8_t>& data,
                           ErrCode& err) {
  if (payload.size() < 12 || (payload.size() - 12) % 4 != 0) {
    err = ErrCode::kBadFrame;
    return false;
  }
  req_id = read_u64(payload.data());
  session = read_u32(payload.data() + 8);
  data = payload.subspan(12);
  return true;
}

bool decode_session_ack(std::span<const std::uint8_t> payload,
                        std::uint64_t& req_id, std::uint32_t& session,
                        ErrCode& err) {
  if (!take(payload, 12, err)) {
    return false;
  }
  req_id = read_u64(payload.data());
  session = read_u32(payload.data() + 8);
  return true;
}

}  // namespace

bool decode_submit(std::span<const std::uint8_t> payload, SubmitMsg& msg,
                   ErrCode& err) {
  return decode_window(payload, msg.req_id, msg.channels, msg.steps,
                       msg.data, err);
}

bool decode_result(std::span<const std::uint8_t> payload, ResultMsg& msg,
                   ErrCode& err) {
  return decode_window(payload, msg.req_id, msg.channels, msg.steps,
                       msg.data, err);
}

bool decode_open(std::span<const std::uint8_t> payload, OpenMsg& msg,
                 ErrCode& err) {
  if (!take(payload, 8, err)) {
    return false;
  }
  msg.req_id = read_u64(payload.data());
  return true;
}

bool decode_opened(std::span<const std::uint8_t> payload, OpenedMsg& msg,
                   ErrCode& err) {
  return decode_session_ack(payload, msg.req_id, msg.session, err);
}

bool decode_step(std::span<const std::uint8_t> payload, StepMsg& msg,
                 ErrCode& err) {
  return decode_session_vector(payload, msg.req_id, msg.session, msg.data,
                               err);
}

bool decode_step_out(std::span<const std::uint8_t> payload, StepOutMsg& msg,
                     ErrCode& err) {
  return decode_session_vector(payload, msg.req_id, msg.session, msg.data,
                               err);
}

bool decode_close(std::span<const std::uint8_t> payload, CloseMsg& msg,
                  ErrCode& err) {
  return decode_session_ack(payload, msg.req_id, msg.session, err);
}

bool decode_closed(std::span<const std::uint8_t> payload, ClosedMsg& msg,
                   ErrCode& err) {
  return decode_session_ack(payload, msg.req_id, msg.session, err);
}

bool decode_ping(std::span<const std::uint8_t> payload, PingMsg& msg,
                 ErrCode& err) {
  if (!take(payload, 8, err)) {
    return false;
  }
  msg.req_id = read_u64(payload.data());
  return true;
}

bool decode_pong(std::span<const std::uint8_t> payload, PingMsg& msg,
                 ErrCode& err) {
  return decode_ping(payload, msg, err);
}

bool decode_error(std::span<const std::uint8_t> payload, ErrorMsg& msg,
                  ErrCode& err) {
  if (payload.size() < 16) {
    err = ErrCode::kBadFrame;
    return false;
  }
  msg.req_id = read_u64(payload.data());
  const std::uint16_t raw_code = read_u16(payload.data() + 8);
  if (raw_code < 1 ||
      raw_code > static_cast<std::uint16_t>(ErrCode::kInternal) ||
      read_u16(payload.data() + 10) != 0) {
    err = ErrCode::kBadFrame;
    return false;
  }
  msg.code = static_cast<ErrCode>(raw_code);
  msg.retry_after_ms = read_u32(payload.data() + 12);
  msg.message.assign(reinterpret_cast<const char*>(payload.data()) + 16,
                     payload.size() - 16);
  return true;
}

// ------------------------------------------------------------- FrameReader

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  if (failed_) {
    return;  // connection is dead; stop buffering
  }
  // Compact once the consumed prefix dominates the buffer so the torn-
  // frame backlog never grows with connection lifetime.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

FrameReader::Status FrameReader::next(FrameView& out) {
  if (failed_) {
    return Status::kError;
  }
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderBytes) {
    return Status::kNeedMore;
  }
  const std::uint8_t* head = buf_.data() + pos_;
  const std::uint32_t len = read_u32(head);
  if (len > max_payload_) {
    failed_ = true;
    err_ = ErrCode::kTooLarge;
    return Status::kError;
  }
  if (head[5] != 0 || head[6] != 0 || head[7] != 0) {
    failed_ = true;
    err_ = ErrCode::kBadFrame;
    return Status::kError;
  }
  if (avail < kHeaderBytes + len) {
    return Status::kNeedMore;
  }
  out.type = static_cast<MsgType>(head[4]);
  out.payload = std::span<const std::uint8_t>(head + kHeaderBytes, len);
  pos_ += kHeaderBytes + len;
  return Status::kFrame;
}

}  // namespace pit::net
