#ifndef LIPSTICK_SERVICE_SERVER_H_
#define LIPSTICK_SERVICE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "provenance/exec.h"
#include "service/cache.h"
#include "service/registry.h"

namespace lipstick::service {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;          // 0 = kernel-assigned ephemeral port (see port())
  int workers = 4;       // query execution threads
  size_t queue_depth = 64;       // admission control: beyond this, reject
  double default_deadline_ms = 0;  // applied when a request sets none
  size_t cache_entries = 64;       // LRU slots in each of the two caches
};

/// The `lipstick serve` daemon: answers concurrent provenance queries over
/// the length-prefixed JSON protocol (see protocol.h) against a
/// GraphRegistry of hot-swappable snapshots.
///
/// Threading model — blocking sockets, fixed-size execution pool:
///   - one accept thread hands each connection to a session thread;
///   - a session thread reads a frame, enqueues the request on a bounded
///     queue, waits for its response, writes it back (so each connection
///     is strictly request/response ordered);
///   - `workers` pool threads drain the queue and execute queries. A full
///     queue rejects immediately with the "overloaded" error code instead
///     of stalling the socket — admission control over buffering.
///
/// Each request runs under a CancelToken carrying its deadline and a
/// client-disconnect probe; the traversal engine polls it per visited
/// node, so a 50ms deadline actually stops a multi-million-node BFS ~50ms
/// in, and a vanished client stops paying for its query.
///
/// Shutdown() drains gracefully: stop accepting, let in-flight requests
/// finish and their responses flush, then join everything. Safe to call
/// from a signal-handling thread; idempotent.
class Server {
 public:
  /// `registry` must outlive the server. No sockets are touched until
  /// Start().
  Server(GraphRegistry* registry, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept/worker threads. kIOError on
  /// bind failures (port in use, bad host).
  Status Start();

  /// The bound port (the kernel's choice when options.port == 0). Valid
  /// after Start().
  int port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Graceful drain; returns when every thread is joined.
  void Shutdown();

  /// Point-in-time counters, readable any time (tests, metricz).
  struct StatsSnapshot {
    uint64_t connections = 0;  // accepted over the server's lifetime
    uint64_t live_sessions = 0;  // connections whose session has not ended
    uint64_t requests = 0;     // frames executed (admin + query)
    uint64_t errors = 0;       // requests answered with ok=false
    uint64_t overloaded = 0;   // admission-control rejections
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    // Composed view-mask reuse (subplan cache; one hit or miss per plan
    // with view operators).
    uint64_t plan_cache_hits = 0;
    uint64_t plan_cache_misses = 0;
    uint64_t plan_cache_entries = 0;
  };
  StatsSnapshot Stats() const;

 private:
  struct Work {
    std::string payload;  // raw request frame
    int conn_fd = -1;     // for the disconnect probe
    std::promise<std::string> response;  // the finished response frame
    std::chrono::steady_clock::time_point enqueued{};
  };

  /// Bounded MPMC queue with close semantics. TryPush fails (returns
  /// false) on a full or closed queue — the admission-control edge.
  class BoundedQueue {
   public:
    explicit BoundedQueue(size_t depth) : depth_(depth) {}
    bool TryPush(Work work);
    bool Pop(Work* out);  // blocks; false once closed and drained
    void Close();

   private:
    const size_t depth_;
    std::mutex mu_;
    std::condition_variable ready_;
    std::list<Work> items_;
    bool closed_ = false;
  };

  struct Session {
    int fd = -1;
    bool closed = false;  // fd already closed by its thread
    std::thread thread;
  };

  void AcceptLoop();
  /// Joins and erases every session whose thread has ended, so neither
  /// `sessions_` nor the ended threads' stacks grow with the number of
  /// connections served.
  void ReapEndedSessions();
  void SessionLoop(Session* session);
  void WorkerLoop();
  /// Executes one request frame end to end; returns the finished response
  /// frame (protocol.h), which the session sends as it is.
  std::string Execute(const std::string& payload, int conn_fd);
  std::string ExecuteQueryOp(const std::string& op,
                             const std::vector<std::string>& args,
                             const std::string& graph_name,
                             double deadline_ms, int conn_fd);
  std::string HandleAdminOp(const std::string& op,
                            const std::vector<std::string>& args);
  std::string CountErrorResponse(std::string_view code,
                                 std::string_view message);

  GraphRegistry* const registry_;
  const ServerOptions options_;
  ResponseCache cache_;
  // Composed GraphView masks keyed by canonical view-prefix, so requests
  // sharing a plan prefix (any graph, any epoch — the scope string keys
  // both) skip recomputing the shared stages.
  PlanViewCache view_cache_;
  BoundedQueue queue_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  std::mutex sessions_mu_;
  // Live sessions, plus ended ones until the next accept reaps them.
  std::list<Session> sessions_;
  std::mutex shutdown_mu_;  // serializes Shutdown() callers

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> live_sessions_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> overloaded_{0};
};

}  // namespace lipstick::service

#endif  // LIPSTICK_SERVICE_SERVER_H_
