#include "service/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/str_util.h"
#include "obs/json.h"
#include "service/protocol.h"

namespace lipstick::service {

Result<ServiceClient> ServiceClient::Connect(const std::string& endpoint) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return Status::InvalidArgument(
        StrCat("expected host:port, got '", endpoint, "'"));
  }
  char* end = nullptr;
  long port = std::strtol(endpoint.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port < 1 || port > 65535) {
    return Status::InvalidArgument(
        StrCat("bad port in '", endpoint, "'"));
  }
  return ConnectHostPort(endpoint.substr(0, colon), static_cast<int>(port));
}

Result<ServiceClient> ServiceClient::ConnectHostPort(const std::string& host,
                                                     int port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  int rc = ::getaddrinfo(host.c_str(), StrCat(port).c_str(), &hints, &found);
  if (rc != 0) {
    return Status::IOError(
        StrCat("cannot resolve '", host, "': ", gai_strerror(rc)));
  }
  int fd = -1;
  int connect_errno = 0;
  for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    connect_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd >= 0) {
    // Requests are single whole frames; disable Nagle so they leave now.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  if (fd < 0) {
    return Status::IOError(StrCat("cannot connect to ", host, ":", port, ": ",
                                  std::strerror(connect_errno)));
  }
  return ServiceClient(fd);
}

void ServiceClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::string> ServiceClient::Call(const std::string& payload) {
  if (fd_ < 0) return Status::ExecutionError("client is not connected");
  LIPSTICK_RETURN_IF_ERROR(WriteFrame(fd_, payload));
  Result<std::string> frame = ReadFrame(fd_);
  if (!frame.ok()) {
    // A clean EOF here means the server went away mid-request.
    if (frame.status().code() == StatusCode::kAborted) {
      return Status::IOError("server closed the connection");
    }
    return frame.status();
  }
  return frame;
}

Result<std::string> ServiceClient::Query(const std::string& op,
                                         const std::vector<std::string>& args,
                                         const std::string& graph,
                                         double deadline_ms) {
  Result<std::string> raw =
      Call(MakeRequest(op, args, graph, deadline_ms).Serialize());
  if (!raw.ok()) return raw.status();
  Result<obs::JsonValue> doc = obs::ParseJson(*raw);
  if (!doc.ok()) {
    return Status::Internal(
        StrCat("malformed response: ", doc.status().message()));
  }
  return ResponseToResult(std::move(*doc));
}

}  // namespace lipstick::service
