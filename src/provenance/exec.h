#ifndef LIPSTICK_PROVENANCE_EXEC_H_
#define LIPSTICK_PROVENANCE_EXEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/result.h"
#include "provenance/optimizer.h"
#include "provenance/plan.h"
#include "provenance/snapshot.h"
#include "provenance/view.h"

namespace lipstick {

/// Thread-safe LRU cache of composed view masks, keyed by
/// (scope, canonical view-prefix). The optimizer publishes every view
/// prefix of a plan as a cacheable unit; a later plan sharing a prefix
/// clones the cached view and applies only its remaining stages. Entries
/// are immutable once inserted (readers Clone() concurrently).
class PlanViewCache {
 public:
  struct Entry {
    GraphView view;
    // DeleteProp count of the entry's last stage, so a fully-cached
    // "... | delete n" can still render its summary line.
    size_t last_stage_removed = 0;
    // Keeps the snapshot the view points into alive (e.g. the service's
    // LoadedGraph). May be null when the caller outlives the cache.
    std::shared_ptr<const void> pin;
  };

  /// `capacity` = max entries; 0 disables the cache entirely.
  explicit PlanViewCache(size_t capacity) : lru_(capacity) {}

  /// Probes `prefixes` (canonical strings, longest last) from longest to
  /// shortest and returns the first entry found, storing its index in
  /// `*index`. Counts exactly one hit (something matched) or one miss per
  /// call, so the counters track plan executions, not probe fan-out.
  std::shared_ptr<const Entry> GetLongestPrefix(
      const std::string& scope, const std::vector<std::string>& prefixes,
      size_t* index);

  /// Inserts (or refreshes) the entry for one view prefix, evicting the
  /// least recently used entry when over capacity. No-op at capacity 0.
  void Put(const std::string& scope, const std::string& prefix, Entry entry);

  size_t entries() const { return lru_.size(); }
  uint64_t hits() const { return lru_.hits(); }
  uint64_t misses() const { return lru_.misses(); }

 private:
  LruCache<std::shared_ptr<const Entry>> lru_;
};

struct ExecOptions {
  // When set, composed view prefixes are reused and published under
  // `scope` (the caller namespaces by graph identity, e.g. name + epoch).
  PlanViewCache* cache = nullptr;
  std::string scope;
  // Lifetime pin stored into cache entries; see PlanViewCache::Entry.
  std::shared_ptr<const void> pin;
};

/// Runs an optimized plan over the snapshot and renders its output — the
/// single rendering path behind local one-shot queries, `query --batch`,
/// and the serve daemon, so remote responses are byte-identical to local
/// output. Every plan runs on one GraphView: the snapshot's identity view
/// or a cached prefix, extended by the remaining view stages (mask
/// fusion), then closed by the terminal. A stage cut short by the calling
/// thread's CancelToken returns the token's status, and nothing from that
/// run enters the cache. Safe to call concurrently from many threads on
/// one snapshot.
Result<std::string> ExecutePlan(const GraphSnapshot& snap,
                                const OptimizedPlan& opt,
                                const ExecOptions& opts = {});

/// Reference executor: materializes a standalone graph between every view
/// stage, then runs the terminal on the identity view of the last one. The
/// plan-equivalence suite asserts ExecutePlan == ExecutePlanNaive byte for
/// byte; bench_pipeline measures the gap.
Result<std::string> ExecutePlanNaive(const GraphSnapshot& snap,
                                     const Plan& plan);

/// Composes the plan's view stages (ignoring any terminal) into one view,
/// for export paths (`--out` dot / provio rendering of a pipeline result).
/// `threads` is ignored; perfbench still passes it, and the benchmark's
/// next change drops it.
Result<GraphView> BuildPlanView(const GraphSnapshot& snap, const Plan& plan,
                                int threads = 1);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_EXEC_H_
