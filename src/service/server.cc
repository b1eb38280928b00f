#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/str_util.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/ops.h"
#include "service/protocol.h"

namespace lipstick::service {

namespace {

/// Lazily registered service metrics (no-ops while the registry is
/// disabled, mirroring the rest of the codebase). Request, error, overload
/// and cache counts have one source each: the server's atomics and the
/// caches' own counters (Stats(), metricz's "service" block).
struct ServiceMetrics {
  obs::MetricId request_us;
  obs::MetricId queue_wait_us;

  static ServiceMetrics& Get() {
    static ServiceMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      ServiceMetrics out;
      out.request_us = reg.RegisterHistogram("service.request_us");
      out.queue_wait_us = reg.RegisterHistogram("service.queue_wait_us");
      return out;
    }();
    return m;
  }
};

/// True once the peer's read side is known dead: a nonblocking MSG_PEEK
/// returning 0 (orderly shutdown) or a hard error. EAGAIN means "alive,
/// just quiet".
bool PeerClosed(int fd) {
  char byte;
  ssize_t r = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (r > 0) return false;
  if (r == 0) return true;
  return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------

bool Server::BoundedQueue::TryPush(Work work) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= depth_) return false;
    items_.push_back(std::move(work));
  }
  ready_.notify_one();
  return true;
}

bool Server::BoundedQueue::Pop(Work* out) {
  std::unique_lock<std::mutex> lock(mu_);
  ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
  if (items_.empty()) return false;  // closed and drained
  *out = std::move(items_.front());
  items_.pop_front();
  return true;
}

void Server::BoundedQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  ready_.notify_all();
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

Server::Server(GraphRegistry* registry, ServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      cache_(options_.cache_entries),
      view_cache_(options_.cache_entries),
      queue_(options_.queue_depth) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::ExecutionError("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrCat("bad listen address '", options_.host, "'"));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    Status st = Status::IOError(
        StrCat("cannot listen on ", options_.host, ":", options_.port, ": ",
               std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  int workers = options_.workers < 1 ? 1 : options_.workers;
  worker_threads_.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (!started_.load() || stopping_.exchange(true)) {
    // Not started, or another caller already drained everything.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // 1. Stop the intake: shutdown() unblocks the accept(2) call (close()
  //    alone does not reliably do that on Linux), then the thread exits.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. Half-close every live connection: SHUT_RD pops session threads out
  //    of ReadFrame while leaving the write side open, so responses for
  //    in-flight requests still reach the client (graceful drain).
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (Session& s : sessions_) {
      if (!s.closed) ::shutdown(s.fd, SHUT_RD);
    }
  }
  // 3. Sessions waiting on a response future need the workers alive, so
  //    join sessions before closing the queue.
  for (Session& s : sessions_) {
    if (s.thread.joinable()) s.thread.join();
  }
  // 4. Now nothing can enqueue; drain and stop the pool.
  queue_.Close();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
}

Server::StatsSnapshot Server::Stats() const {
  StatsSnapshot snap;
  snap.connections = connections_.load();
  snap.live_sessions = live_sessions_.load();
  snap.requests = requests_.load();
  snap.errors = errors_.load();
  snap.overloaded = overloaded_.load();
  snap.cache_hits = cache_.hits();
  snap.cache_misses = cache_.misses();
  snap.plan_cache_hits = view_cache_.hits();
  snap.plan_cache_misses = view_cache_.misses();
  snap.plan_cache_entries = view_cache_.entries();
  return snap;
}

// ---------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------

void Server::AcceptLoop() {
  while (true) {
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR && !stopping_.load()) continue;
      break;  // listener shut down (or hard error): stop accepting
    }
    if (stopping_.load()) {
      ::close(conn);
      break;
    }
    // Injected accept faults drop the connection, as a listener hitting
    // EMFILE would; the soak job drives clients through this.
    if (!FaultInjector::Fire(kFaultAccept).ok()) {
      ::close(conn);
      continue;
    }
    // Responses are written as whole frames; never let Nagle hold one back.
    int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.fetch_add(1);
    ReapEndedSessions();
    std::string refusal;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(Session{conn, false, {}});
      Session* session = &sessions_.back();
      live_sessions_.fetch_add(1);
      try {
        session->thread =
            std::thread([this, session] { SessionLoop(session); });
      } catch (const std::system_error& e) {
        // Out of threads (or memory for a stack): refuse this connection
        // with an envelope and keep serving the others.
        sessions_.pop_back();
        live_sessions_.fetch_sub(1);
        refusal = ErrorFrame("unavailable",
                             StrCat("cannot start a session: ", e.what()));
      }
    }
    if (!refusal.empty()) {
      (void)SendFrame(conn, refusal);
      ::close(conn);
    }
  }
}

void Server::ReapEndedSessions() {
  std::vector<std::thread> ended;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (!it->closed) {
        ++it;
        continue;
      }
      ended.push_back(std::move(it->thread));
      it = sessions_.erase(it);
    }
  }
  for (std::thread& t : ended) t.join();
}

void Server::SessionLoop(Session* session) {
  const int fd = session->fd;
  while (true) {
    Result<std::string> request = ReadFrame(fd);
    if (!request.ok()) {
      // kAborted = clean EOF. Anything else (oversized frame, short read,
      // injected read fault) poisons the stream: no framing to resync on,
      // so drop the connection.
      break;
    }
    Work work;
    work.payload = std::move(*request);
    work.conn_fd = fd;
    work.enqueued = std::chrono::steady_clock::now();
    std::future<std::string> response = work.response.get_future();
    std::string frame;
    if (queue_.TryPush(std::move(work))) {
      frame = response.get();
    } else {
      overloaded_.fetch_add(1);
      frame = ErrorFrame("overloaded", "request queue is full, retry later");
    }
    if (frame.size() > kFrameHeaderBytes + kMaxFrameBytes) {
      // SendFrame would refuse it; answer with an envelope instead, and
      // keep the session.
      frame = ErrorFrame(
          "resource_exhausted",
          StrCat("response of ", frame.size() - kFrameHeaderBytes,
                 " bytes exceeds the frame limit of ", kMaxFrameBytes,
                 " bytes"));
    }
    if (!SendFrame(fd, frame).ok()) break;
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  ::close(session->fd);
  session->closed = true;
  live_sessions_.fetch_sub(1);
}

void Server::WorkerLoop() {
  Work work;
  while (queue_.Pop(&work)) {
    obs::MetricsRegistry::Global().Observe(
        ServiceMetrics::Get().queue_wait_us, MicrosSince(work.enqueued));
    work.response.set_value(Execute(work.payload, work.conn_fd));
  }
}

// ---------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------

std::string Server::CountErrorResponse(std::string_view code,
                                       std::string_view message) {
  errors_.fetch_add(1);
  return ErrorFrame(code, message);
}

std::string Server::Execute(const std::string& payload, int conn_fd) {
  requests_.fetch_add(1);
  obs::ScopedHistTimer timer(ServiceMetrics::Get().request_us);

  Result<obs::JsonValue> doc = obs::ParseJson(payload);
  if (!doc.ok() || !doc->is_object()) {
    return CountErrorResponse("parse_error", "request is not a JSON object");
  }
  const obs::JsonValue* op_field = doc->Find("op");
  if (op_field == nullptr || !op_field->is_string()) {
    return CountErrorResponse("invalid_argument",
                              "request has no 'op' string");
  }
  std::string op = op_field->str();
  std::vector<std::string> args;
  if (const obs::JsonValue* args_field = doc->Find("args")) {
    if (!args_field->is_array()) {
      return CountErrorResponse("invalid_argument", "'args' must be an array");
    }
    for (const obs::JsonValue& item : args_field->array()) {
      if (!item.is_string()) {
        return CountErrorResponse("invalid_argument",
                                  "'args' entries must be strings");
      }
      args.push_back(item.str());
    }
  }
  std::string graph_name;
  if (const obs::JsonValue* g = doc->Find("graph")) {
    if (g->is_string()) graph_name = g->str();
  }
  double deadline_ms = options_.default_deadline_ms;
  if (const obs::JsonValue* d = doc->Find("deadline_ms")) {
    if (d->is_number() && d->number() > 0) deadline_ms = d->number();
  }

  if (op == "ping" || op == "metricz" || op == "graphs" || op == "reload") {
    return HandleAdminOp(op, args.empty() && !graph_name.empty()
                                 ? std::vector<std::string>{graph_name}
                                 : args);
  }
  if (!IsReadQueryOp(op)) {
    return CountErrorResponse(
        "invalid_argument", StrCat("unknown query operation '", op, "'"));
  }
  return ExecuteQueryOp(op, args, graph_name, deadline_ms, conn_fd);
}

std::string Server::ExecuteQueryOp(const std::string& op,
                                   const std::vector<std::string>& args,
                                   const std::string& graph_name,
                                   double deadline_ms, int conn_fd) {
  Result<std::shared_ptr<const LoadedGraph>> loaded =
      registry_->Get(graph_name);
  if (!loaded.ok()) {
    return CountErrorResponse(ErrorCodeString(loaded.status().code()),
                              loaded.status().message());
  }

  // Parse + optimize first: the response cache is keyed on the canonical
  // plan string, so syntactically different but equivalent requests
  // ("zoomout b a" vs "zoomout a b") share one entry.
  Result<ParsedQuery> parsed = ParseQuery(op, args);
  if (!parsed.ok()) {
    return CountErrorResponse(ErrorCodeString(parsed.status().code()),
                              parsed.status().message());
  }
  std::string cache_key = ResponseCache::Key(
      (*loaded)->name, (*loaded)->epoch, parsed->canonical, {});
  std::string cached;
  if (cache_.Get(cache_key, &cached)) return OkFrame(std::move(cached));

  // The token is created before the fault fires so an injected exec delay
  // counts against the request deadline — that determinism is what the
  // deadline tests key on.
  CancelToken token;
  token.SetDeadlineMs(deadline_ms);
  token.SetProbe([conn_fd] { return PeerClosed(conn_fd); });
  CancelScope scope(&token);
  Status fault = FaultInjector::Fire(kFaultExec, op);
  if (!fault.ok() && !token.CheckDeadlineNow()) {
    return CountErrorResponse(ErrorCodeString(fault.code()), fault.message());
  }

  std::string view_scope =
      StrCat((*loaded)->name, '\x1f', (*loaded)->epoch);
  Result<std::string> text =
      token.cancelled()
          ? Result<std::string>(token.status())
          : ExecuteParsedQuery((*loaded)->snapshot, *parsed, 1,
                               &view_cache_, view_scope, *loaded);
  // Authoritative end-of-request deadline check: a query that slipped past
  // the poll strides still misses its deadline deterministically.
  if (token.CheckDeadlineNow() || token.cancelled()) {
    Status st = token.status();
    return CountErrorResponse(ErrorCodeString(st.code()), st.message());
  }
  if (!text.ok()) {
    return CountErrorResponse(ErrorCodeString(text.status().code()),
                              text.status().message());
  }
  cache_.Put(cache_key, *text);
  return OkFrame(std::move(*text));
}

std::string Server::HandleAdminOp(const std::string& op,
                                  const std::vector<std::string>& args) {
  if (op == "ping") {
    return OkFrame("pong\n");
  }
  if (op == "graphs") {
    std::string out;
    for (const GraphRegistry::Entry& e : registry_->List()) {
      out += StrCat(e.name, "  epoch=", e.epoch, "  nodes=", e.nodes,
                    e.path.empty() ? "" : StrCat("  path=", e.path),
                    e.is_default ? "  (default)" : "", "\n");
    }
    if (out.empty()) out = "(no graphs loaded)\n";
    return OkFrame(std::move(out));
  }
  if (op == "reload") {
    std::string name = args.empty() ? std::string() : args[0];
    Status st = registry_->Reload(name);
    if (!st.ok()) {
      return CountErrorResponse(ErrorCodeString(st.code()), st.message());
    }
    Result<std::shared_ptr<const LoadedGraph>> loaded = registry_->Get(name);
    uint64_t epoch = loaded.ok() ? (*loaded)->epoch : 0;
    return OkFrame(StrCat("reloaded '", loaded.ok() ? (*loaded)->name : name,
                          "' to epoch ", epoch, "\n"));
  }
  // op == "metricz": internal service counters plus the full metrics
  // registry dump (non-empty only when metrics are enabled).
  StatsSnapshot stats = Stats();
  std::string out = StrCat(
      "{\"service\":{\"connections\":", stats.connections,
      ",\"live_sessions\":", stats.live_sessions,
      ",\"requests\":", stats.requests, ",\"errors\":", stats.errors,
      ",\"overloaded\":", stats.overloaded,
      ",\"cache_hits\":", stats.cache_hits,
      ",\"cache_misses\":", stats.cache_misses,
      ",\"plan_cache\":{\"hits\":", stats.plan_cache_hits,
      ",\"misses\":", stats.plan_cache_misses,
      ",\"entries\":", stats.plan_cache_entries,
      "},\"graphs\":", registry_->size(),
      "},\"metrics\":", obs::MetricsRegistry::Global().RenderJson(), "}\n");
  return OkFrame(std::move(out));
}

}  // namespace lipstick::service
