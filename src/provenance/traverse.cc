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

namespace {

/// Packs a half-open chunk range [begin, end) into one atomic word so both
/// bounds move together under CAS.
constexpr uint64_t PackRange(uint32_t begin, uint32_t end) {
  return (static_cast<uint64_t>(begin) << 32) | end;
}
constexpr uint32_t RangeBegin(uint64_t r) {
  return static_cast<uint32_t>(r >> 32);
}
constexpr uint32_t RangeEnd(uint64_t r) {
  return static_cast<uint32_t>(r);
}

/// Work-stealing distribution of a static chunk space: every worker owns a
/// contiguous slice; owners pop chunks from the front of their slice,
/// thieves CAS away the back half of a victim's remainder. All transfers
/// go through the packed atomic, so a chunk is processed exactly once.
class RangeStealer {
 public:
  RangeStealer(uint32_t num_chunks, int workers) : slots_(workers) {
    uint32_t per = num_chunks / workers;
    uint32_t rem = num_chunks % workers;
    uint32_t begin = 0;
    for (int w = 0; w < workers; ++w) {
      uint32_t take = per + (w < static_cast<int>(rem) ? 1 : 0);
      slots_[w].range.store(PackRange(begin, begin + take),
                            std::memory_order_relaxed);
      begin += take;
    }
  }

  /// Next chunk for `worker`: own slice first, then steal. Returns false
  /// when no work is visible anywhere (the caller's loop ends).
  bool Next(int worker, uint32_t* chunk) {
    if (PopFront(&slots_[worker], chunk)) return true;
    int workers = static_cast<int>(slots_.size());
    for (int i = 1; i < workers; ++i) {
      Slot& victim = slots_[(worker + i) % workers];
      uint32_t begin, end;
      if (!StealBackHalf(&victim, &begin, &end)) continue;
      *chunk = begin;
      if (begin + 1 < end) {
        // Own slot is empty, and CAS transitions never fire on an empty
        // slot, so installing the remainder with a plain store is safe.
        slots_[worker].range.store(PackRange(begin + 1, end),
                                   std::memory_order_release);
      }
      return true;
    }
    return false;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> range{0};
  };

  static bool PopFront(Slot* slot, uint32_t* chunk) {
    uint64_t cur = slot->range.load(std::memory_order_relaxed);
    while (true) {
      uint32_t begin = RangeBegin(cur), end = RangeEnd(cur);
      if (begin >= end) return false;
      if (slot->range.compare_exchange_weak(cur, PackRange(begin + 1, end),
                                            std::memory_order_acq_rel)) {
        *chunk = begin;
        return true;
      }
    }
  }

  static bool StealBackHalf(Slot* victim, uint32_t* begin_out,
                            uint32_t* end_out) {
    uint64_t cur = victim->range.load(std::memory_order_relaxed);
    while (true) {
      uint32_t begin = RangeBegin(cur), end = RangeEnd(cur);
      // A single remaining chunk stays with its owner: stealing it would
      // yield an empty back half whose `end` chunk belongs to someone else.
      if (end <= begin + 1) return false;
      uint32_t mid = begin + (end - begin + 1) / 2;  // victim keeps front
      if (victim->range.compare_exchange_weak(cur, PackRange(begin, mid),
                                              std::memory_order_acq_rel)) {
        *begin_out = mid;
        *end_out = end;
        return true;
      }
    }
  }

  std::vector<Slot> slots_;
};

/// Runs `body(worker)` on `workers` threads (worker 0 on the caller) and
/// joins them all before returning.
template <typename Body>
void RunWorkers(int workers, const Body& body) {
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (int w = 1; w < workers; ++w) {
    threads.emplace_back([&body, w] { body(w); });
  }
  body(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace

void ParallelFor(size_t n, int num_threads,
                 const std::function<void(size_t, size_t, int)>& fn) {
  if (n == 0) return;
  int workers = std::min<int>(num_threads, static_cast<int>(n));
  if (workers <= 1) {
    fn(0, n, 0);
    return;
  }
  // ~8 chunks per worker keeps the steal traffic negligible while leaving
  // enough granularity for imbalanced chunks to migrate.
  size_t chunk_size =
      std::max<size_t>(1, n / (static_cast<size_t>(workers) * 8));
  uint32_t num_chunks = static_cast<uint32_t>((n + chunk_size - 1) /
                                              chunk_size);
  RangeStealer stealer(num_chunks, workers);
  // The spawner's cancel token is re-installed on every worker so chunk
  // bodies (and any traversal they run) observe the same deadline. A fired
  // token stops workers claiming new chunks; completed chunks stay done.
  CancelToken* token = CurrentCancelToken();
  RunWorkers(workers, [&](int w) {
    CancelScope scope(token);
    uint32_t chunk;
    while (!(token != nullptr && token->Poll()) && stealer.Next(w, &chunk)) {
      size_t begin = static_cast<size_t>(chunk) * chunk_size;
      size_t end = std::min(n, begin + chunk_size);
      fn(begin, end, w);
    }
  });
}

void ParallelForNodes(const GraphSnapshot& snap, int num_threads,
                      const std::function<void(uint32_t, uint64_t, uint64_t,
                                               int)>& fn) {
  // Shards are flattened into one global index space so small shards share
  // chunks and large shards split across workers.
  std::vector<uint64_t> offsets(snap.num_shards() + 1, 0);
  for (uint32_t s = 0; s < snap.num_shards(); ++s) {
    offsets[s + 1] = offsets[s] + snap.ShardSize(s);
  }
  ParallelFor(offsets.back(), num_threads,
              [&](size_t begin, size_t end, int worker) {
                for (uint32_t s = 0; s < snap.num_shards(); ++s) {
                  uint64_t lo = std::max<uint64_t>(begin, offsets[s]);
                  uint64_t hi = std::min<uint64_t>(end, offsets[s + 1]);
                  if (lo < hi) {
                    fn(s, lo - offsets[s], hi - offsets[s], worker);
                  }
                }
              });
}

}  // namespace lipstick
