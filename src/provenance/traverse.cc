#include "provenance/traverse.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "obs/metrics.h"

namespace lipstick {

namespace internal {

void RecordTraversal(size_t visited) {
  if (!obs::MetricsRegistry::Enabled()) return;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  static const obs::MetricId kTraversals =
      metrics.RegisterCounter("query.traversals");
  static const obs::MetricId kVisited =
      metrics.RegisterCounter("query.traverse_visited");
  metrics.CounterAdd(kTraversals);
  metrics.CounterAdd(kVisited, visited);
}

}  // namespace internal

void ParallelFor(size_t n, int num_threads,
                 const std::function<void(size_t, size_t, int)>& fn) {
  if (n == 0) return;
  int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(std::max(num_threads, 1)), n));
  if (workers == 1) {
    fn(0, n, 0);
    return;
  }
  // ~8 chunks per worker, claimed in order from one shared counter, keep
  // uneven chunks from idling a worker for long.
  size_t chunk_size =
      std::max<size_t>(1, n / (static_cast<size_t>(workers) * 8));
  size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  std::atomic<size_t> next{0};
  auto body = [&](int worker) {
    for (size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < num_chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      size_t begin = c * chunk_size;
      fn(begin, std::min(n, begin + chunk_size), worker);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (int w = 1; w < workers; ++w) threads.emplace_back(body, w);
  body(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace lipstick
