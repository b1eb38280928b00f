#ifndef LIPSTICK_COMMON_CANCEL_H_
#define LIPSTICK_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>

#include "common/status.h"

namespace lipstick {

/// Cooperative cancellation for long-running read queries — the `lipstick
/// serve` daemon's per-request deadlines and client-disconnect aborts.
///
/// A token combines three trigger sources:
///   - explicit: Cancel(status) from any thread,
///   - a wall-clock deadline, evaluated every kDeadlineStride polls,
///   - an optional probe callback (e.g. "did the client hang up?"),
///     evaluated every kProbeStride polls.
///
/// Work loops call Poll() at visitor granularity — once per traversed
/// node — which costs one relaxed atomic load plus a counter bump until a
/// trigger fires. Poll() is safe from any number of threads concurrently.
///
/// Installation is thread-local: a CancelScope makes a token current for
/// the calling thread. The traversals (Traverse, GraphView's subgraph and
/// deletion propagation) poll the current token, so a deadline set at the
/// service layer reaches every traversal visitor without threading a
/// parameter through the operator APIs. Configure (SetDeadlineMs / SetProbe) before
/// sharing the token with other threads; Cancel/Poll/status are safe
/// afterwards.
class CancelToken {
 public:
  /// Deadline evaluation cadence: the clock is read once per this many
  /// polls, keeping the per-node cost of an armed deadline negligible.
  static constexpr uint32_t kDeadlineStride = 128;
  /// Probe cadence; probes (a nonblocking peek at a socket) are pricier.
  static constexpr uint32_t kProbeStride = 1024;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Fires the token `limit_ms` milliseconds from now. <= 0 disarms.
  void SetDeadlineMs(double limit_ms) {
    has_deadline_ = limit_ms > 0;
    if (has_deadline_) {
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::milli>(
                                         limit_ms));
    }
  }

  /// Installs a probe consulted every kProbeStride polls; returning true
  /// cancels the token with kAborted ("client disconnected").
  void SetProbe(std::function<bool()> probe) { probe_ = std::move(probe); }

  /// Cancels with `reason` (must be non-OK). First caller wins; later
  /// calls and later trigger firings keep the original reason.
  void Cancel(Status reason);

  /// Hot-path check: true once the token has fired. Evaluates the
  /// deadline / probe triggers on their strides.
  bool Poll() {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    uint32_t n = polls_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (has_deadline_ && n % kDeadlineStride == 0) {
      if (CheckDeadlineNow()) return true;
    }
    if (probe_ && n % kProbeStride == 0 && probe_()) {
      Cancel(Status::Aborted("client disconnected"));
      return true;
    }
    return false;
  }

  /// Forces an immediate deadline evaluation (the service layer's
  /// authoritative end-of-request check, independent of poll strides).
  bool CheckDeadlineNow() {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    if (has_deadline_ && Clock::now() >= deadline_) {
      Cancel(Status::DeadlineExceeded("query deadline expired"));
      return true;
    }
    return false;
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// OK while the token has not fired; afterwards the cancellation reason.
  Status status() const;

 private:
  using Clock = std::chrono::steady_clock;

  std::atomic<bool> cancelled_{false};
  std::atomic<uint32_t> polls_{0};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  std::function<bool()> probe_;
  mutable std::mutex mu_;  // guards reason_
  Status reason_;
};

namespace internal {
/// The calling thread's current token (nullptr = none installed).
extern thread_local CancelToken* g_cancel_token;
}  // namespace internal

/// RAII installation of `token` as the calling thread's current token.
/// Nestable; restores the previous token on destruction. Passing nullptr
/// uninstalls for the scope (used by worker pools to propagate exactly
/// their spawner's token).
class CancelScope {
 public:
  explicit CancelScope(CancelToken* token)
      : prev_(internal::g_cancel_token) {
    internal::g_cancel_token = token;
  }
  ~CancelScope() { internal::g_cancel_token = prev_; }
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  CancelToken* prev_;
};

/// The calling thread's current token, for hand-off to worker threads.
inline CancelToken* CurrentCancelToken() { return internal::g_cancel_token; }

/// Polls the calling thread's current token; false when none is installed.
/// One thread-local load + null check when no token is current.
inline bool PollCurrentCancel() {
  CancelToken* token = internal::g_cancel_token;
  return token != nullptr && token->Poll();
}

}  // namespace lipstick

#endif  // LIPSTICK_COMMON_CANCEL_H_
