#ifndef LIPSTICK_SERVICE_CACHE_H_
#define LIPSTICK_SERVICE_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/lru_cache.h"

namespace lipstick::service {

/// Thread-safe LRU cache of rendered query responses, keyed by
/// (graph name, graph epoch, op, args). Including the epoch in the key
/// means a `reload` invalidates implicitly: stale entries simply stop
/// being hit and age out of the LRU tail — no flush, no epoch fences.
///
/// The server caches every read query under its canonical plan string
/// (the op field), so equivalent spellings share one entry.
class ResponseCache : public LruCache<std::string> {
 public:
  using LruCache::LruCache;

  /// Canonical key for one query against one graph epoch. Fields are
  /// joined with '\x1f' (unit separator), which cannot appear in graph
  /// names or tokenized args.
  static std::string Key(const std::string& graph, uint64_t epoch,
                         const std::string& op,
                         const std::vector<std::string>& args);
};

}  // namespace lipstick::service

#endif  // LIPSTICK_SERVICE_CACHE_H_
