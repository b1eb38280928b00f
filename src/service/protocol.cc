#include "service/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/fault.h"
#include "common/str_util.h"

namespace lipstick::service {

namespace {

/// Reads exactly `n` bytes. Returns the number of bytes read before EOF
/// (n on success), or -1 on a socket error.
ssize_t ReadFull(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

Status WriteFull(int fd, const char* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a SIGPIPE that
    // would kill the daemon.
    ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrCat("socket write failed: ", std::strerror(errno)));
    }
    sent += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFrame(int fd) {
  Status fault = FaultInjector::Fire(kFaultRead);
  if (!fault.ok()) return fault;
  char header[4];
  ssize_t got = ReadFull(fd, header, sizeof(header));
  if (got == 0) return Status::Aborted("peer closed connection");
  if (got != sizeof(header)) {
    return Status::IOError("short read on frame header");
  }
  uint32_t len = (static_cast<uint32_t>(static_cast<uint8_t>(header[0])) << 24) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(header[1])) << 16) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(header[2])) << 8) |
                 static_cast<uint32_t>(static_cast<uint8_t>(header[3]));
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrCat("frame length ", len, " exceeds limit ", kMaxFrameBytes));
  }
  std::string payload(len, '\0');
  if (len > 0 && ReadFull(fd, payload.data(), len) !=
                     static_cast<ssize_t>(len)) {
    return Status::IOError("short read on frame payload");
  }
  return payload;
}

namespace {

/// The one frame encoder: `encode` appends the payload to a buffer that
/// already holds room for the header, which then receives the length.
template <typename Encode>
std::string EncodeFrame(size_t payload_hint, Encode&& encode) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload_hint);
  frame.resize(kFrameHeaderBytes);
  encode(&frame);
  // SendFrame refuses a payload over kMaxFrameBytes, so whatever a longer
  // one's truncated header says never reaches the wire.
  const uint32_t len = static_cast<uint32_t>(frame.size() - kFrameHeaderBytes);
  frame[0] = static_cast<char>(len >> 24);
  frame[1] = static_cast<char>(len >> 16);
  frame[2] = static_cast<char>(len >> 8);
  frame[3] = static_cast<char>(len);
  return frame;
}

/// A response envelope, serialized straight into its frame.
std::string EnvelopeFrame(const obs::JsonValue& doc, size_t payload_hint) {
  return EncodeFrame(payload_hint,
                     [&doc](std::string* out) { doc.SerializeTo(out); });
}

}  // namespace

std::string OkFrame(std::string text) {
  // Escapes lengthen the text. Query output escapes about one byte per
  // line (its newline), so an eighth more covers it in one allocation.
  const size_t hint = text.size() + text.size() / 8 + 32;
  return EnvelopeFrame(OkResponse(std::move(text)), hint);
}

std::string ErrorFrame(std::string_view code, std::string_view message) {
  return EnvelopeFrame(ErrorResponse(code, message), message.size() + 64);
}

Status SendFrame(int fd, std::string_view frame) {
  LIPSTICK_RETURN_IF_ERROR(FaultInjector::Fire(kFaultWrite));
  if (frame.size() < kFrameHeaderBytes ||
      frame.size() - kFrameHeaderBytes > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds limit");
  }
  // One contiguous send: splitting header and payload across two send()
  // calls interacts with Nagle + delayed ACK and costs ~40ms per frame.
  return WriteFull(fd, frame.data(), frame.size());
}

Status WriteFrame(int fd, std::string_view payload) {
  const std::string frame = EncodeFrame(
      payload.size(), [payload](std::string* out) { out->append(payload); });
  return SendFrame(fd, frame);
}

std::string_view ErrorCodeString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kAlreadyExists: return "already_exists";
    case StatusCode::kParseError: return "parse_error";
    case StatusCode::kTypeError: return "type_error";
    case StatusCode::kExecutionError: return "execution_error";
    case StatusCode::kIOError: return "io_error";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kAborted: return "cancelled";
  }
  return "internal";
}

StatusCode ErrorCodeFromString(std::string_view code) {
  if (code == "invalid_argument") return StatusCode::kInvalidArgument;
  if (code == "not_found") return StatusCode::kNotFound;
  if (code == "already_exists") return StatusCode::kAlreadyExists;
  if (code == "parse_error") return StatusCode::kParseError;
  if (code == "type_error") return StatusCode::kTypeError;
  if (code == "execution_error") return StatusCode::kExecutionError;
  if (code == "io_error") return StatusCode::kIOError;
  if (code == "deadline_exceeded") return StatusCode::kDeadlineExceeded;
  // "overloaded" is the admission-control rejection: a transient,
  // retryable condition, hence kUnavailable.
  if (code == "unavailable" || code == "overloaded") {
    return StatusCode::kUnavailable;
  }
  if (code == "cancelled") return StatusCode::kAborted;
  // Everything else, "resource_exhausted" (a response past the frame
  // limit) included, has no StatusCode of its own.
  return StatusCode::kInternal;
}

std::string ErrorLine(std::string_view code, std::string_view message) {
  return StrCat("error: ", code, ": ", message);
}

std::string ErrorLine(const Status& status) {
  return ErrorLine(ErrorCodeString(status.code()), status.message());
}

obs::JsonValue MakeRequest(std::string_view op,
                           const std::vector<std::string>& args,
                           std::string_view graph, double deadline_ms) {
  obs::JsonValue req = obs::JsonValue::Object();
  req.Set("op", obs::JsonValue::Str(std::string(op)));
  obs::JsonValue arr = obs::JsonValue::Array();
  for (const std::string& a : args) arr.Push(obs::JsonValue::Str(a));
  req.Set("args", std::move(arr));
  if (!graph.empty()) {
    req.Set("graph", obs::JsonValue::Str(std::string(graph)));
  }
  if (deadline_ms > 0) {
    req.Set("deadline_ms", obs::JsonValue::Number(deadline_ms));
  }
  return req;
}

obs::JsonValue OkResponse(std::string text) {
  obs::JsonValue resp = obs::JsonValue::Object();
  resp.Set("ok", obs::JsonValue::Bool(true));
  resp.Set("text", obs::JsonValue::Str(std::move(text)));
  return resp;
}

obs::JsonValue ErrorResponse(std::string_view code, std::string_view message) {
  obs::JsonValue resp = obs::JsonValue::Object();
  resp.Set("ok", obs::JsonValue::Bool(false));
  obs::JsonValue err = obs::JsonValue::Object();
  err.Set("code", obs::JsonValue::Str(std::string(code)));
  err.Set("message", obs::JsonValue::Str(std::string(message)));
  resp.Set("error", std::move(err));
  return resp;
}

Result<std::string> ResponseToResult(obs::JsonValue doc) {
  const obs::JsonValue* ok = doc.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Status::Internal("malformed response: missing 'ok'");
  }
  if (ok->bool_value()) {
    obs::JsonValue* text = doc.Find("text");
    if (text == nullptr || !text->is_string()) {
      return Status::Internal("malformed response: missing 'text'");
    }
    return std::move(text->str());
  }
  const obs::JsonValue* err = doc.Find("error");
  if (err == nullptr || !err->is_object()) {
    return Status::Internal("malformed response: missing 'error'");
  }
  const obs::JsonValue* code = err->Find("code");
  const obs::JsonValue* message = err->Find("message");
  return Status(
      ErrorCodeFromString(code != nullptr && code->is_string() ? code->str()
                                                               : ""),
      message != nullptr && message->is_string() ? message->str()
                                                 : "unknown server error");
}

}  // namespace lipstick::service
