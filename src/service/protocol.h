#ifndef LIPSTICK_SERVICE_PROTOCOL_H_
#define LIPSTICK_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/json.h"

namespace lipstick::service {

/// Wire protocol of the `lipstick serve` daemon: one request frame in, one
/// response frame out, over a blocking TCP stream.
///
/// Frame = 4-byte big-endian payload length + that many bytes of UTF-8
/// JSON. Requests:
///
///   {"op":"stats","graph":"g","args":["--label","token"],"deadline_ms":50}
///
/// `graph` ("" = the server's default graph) and `deadline_ms` (0 = the
/// server's default) are optional. Responses:
///
///   {"ok":true,"text":"nodes:        162\n..."}
///   {"ok":false,"error":{"code":"deadline_exceeded","message":"..."}}
///
/// The `text` payload is byte-identical to what `lipstick query` prints in
/// local mode for the same operation, so the local golden outputs double
/// as protocol tests (see tools/check.sh `integration`).

/// Upper bound on a frame payload. A request past it poisons the stream
/// and the connection is dropped; a response past it is replaced by a
/// "resource_exhausted" error envelope (a wire-only code, like
/// "overloaded"), and the session goes on.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;
/// Bytes of the big-endian length prefix that starts every frame.
inline constexpr size_t kFrameHeaderBytes = sizeof(uint32_t);

/// Failure points fired on the socket and execution paths, armable via
/// LIPSTICK_FAULTS for deterministic robustness tests (CI soak job).
inline constexpr char kFaultAccept[] = "service.accept";
inline constexpr char kFaultRead[] = "service.read";
inline constexpr char kFaultWrite[] = "service.write";
inline constexpr char kFaultExec[] = "service.exec";

/// Reads one length-prefixed frame from `fd`. kAborted = the peer closed
/// the stream cleanly before any header byte (normal end of session);
/// kIOError = short reads, socket errors, or an injected "service.read"
/// fault; kInvalidArgument = oversized length prefix.
Result<std::string> ReadFrame(int fd);

/// A finished frame holds the 4-byte length and then the payload. It is
/// encoded once, into a buffer sized up front, and sent as it is: the
/// server renders a response, encodes it straight into its frame, and
/// hands that buffer to SendFrame.
///
/// The response frames: the envelopes OkResponse(text) and
/// ErrorResponse(code, message) serialize to. `text` is moved into the
/// envelope, not copied.
std::string OkFrame(std::string text);
std::string ErrorFrame(std::string_view code, std::string_view message);

/// Writes a finished frame to `fd` (all of it or an error). Fires
/// "service.write"; a payload over kMaxFrameBytes is kInvalidArgument and
/// nothing is sent.
Status SendFrame(int fd, std::string_view frame);

/// Frames `payload` as it is and sends it (requests, raw test payloads).
Status WriteFrame(int fd, std::string_view payload);

/// Wire code string for a StatusCode (e.g. "invalid_argument"). The
/// admission-control rejection code "overloaded" and the oversized-response
/// code "resource_exhausted" are produced by the server directly, not by
/// any StatusCode.
std::string_view ErrorCodeString(StatusCode code);

/// Inverse of ErrorCodeString; unknown strings (including "overloaded")
/// map to kUnavailable/kInternal as documented in the .cc.
StatusCode ErrorCodeFromString(std::string_view code);

/// The canonical one-line error rendering shared by the local `query
/// --batch` driver and the remote client: "error: <code>: <message>".
std::string ErrorLine(std::string_view code, std::string_view message);
std::string ErrorLine(const Status& status);

/// Envelope constructors.
obs::JsonValue MakeRequest(std::string_view op,
                           const std::vector<std::string>& args,
                           std::string_view graph = {},
                           double deadline_ms = 0);
obs::JsonValue OkResponse(std::string text);
obs::JsonValue ErrorResponse(std::string_view code, std::string_view message);

/// Unpacks a response document: the rendered text on success (moved out
/// of `doc`), or a Status carrying the server's error code + message.
/// Malformed documents are kInternal ("malformed response").
Result<std::string> ResponseToResult(obs::JsonValue doc);

}  // namespace lipstick::service

#endif  // LIPSTICK_SERVICE_PROTOCOL_H_
