#ifndef LIPSTICK_PROVENANCE_TRAVERSE_H_
#define LIPSTICK_PROVENANCE_TRAVERSE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "provenance/snapshot.h"

namespace lipstick {

/// The shared traversal primitives of the read path: frontier BFS over a
/// snapshot (zoom's Definition 4.1 check, path queries, ancestors and
/// descendants), and the chunked loop behind `query --batch`; see
/// DESIGN.md §5g.

enum class TraverseDirection : uint8_t {
  kForward,   // derivation order: follow children (requires sealed CSR)
  kBackward,  // follow parents (always available)
};

/// Adjacency of `id` in the requested direction.
inline std::span<const NodeId> Neighbors(const GraphSnapshot& snap, NodeId id,
                                         TraverseDirection dir) {
  return dir == TraverseDirection::kForward ? snap.ChildrenOf(id)
                                            : snap.ParentsOf(id);
}

/// Visitor verdict for Traverse(): expand through the node, record it but
/// stop expanding there, or terminate the whole traversal (early exit).
enum class Visit : uint8_t { kExpand, kSkip, kStop };

namespace internal {
/// Observability hook (metrics + trace span args) shared by all traversal
/// entry points; defined in traverse.cc so the template stays lean.
void RecordTraversal(size_t visited);
}  // namespace internal

/// Frontier BFS from `seeds` over alive nodes. `visit(node, via)` is called
/// exactly once for every alive node first reached through an alive edge
/// (`via` is the node it was reached from); its verdict controls expansion
/// and early exit. Seeds themselves are not visited unless re-reached
/// (pre-mark them in `visited` to suppress reporting entirely). Frontier
/// order is level-synchronous, so the first visit of a node is along a
/// shortest edge path from the seed set. Returns the number of visited
/// nodes.
///
/// Cancellation: the calling thread's CancelToken (see common/cancel.h) is
/// polled once per expanded frontier node; a fired token stops the
/// traversal early. The caller that installed the token is responsible
/// for checking it afterwards and discarding the partial result.
template <typename Fn>
size_t Traverse(const GraphSnapshot& snap, std::span<const NodeId> seeds,
                TraverseDirection dir, VisitedSet& visited, Fn&& visit) {
  std::vector<NodeId> queue(seeds.begin(), seeds.end());
  size_t head = 0;
  size_t reported = 0;
  while (head < queue.size()) {
    if (PollCurrentCancel()) break;
    NodeId id = queue[head++];
    for (NodeId n : Neighbors(snap, id, dir)) {
      if (!snap.Contains(n) || visited.TestAndSet(n)) continue;
      ++reported;
      Visit v = visit(n, id);
      if (v == Visit::kStop) {
        internal::RecordTraversal(reported);
        return reported;
      }
      if (v == Visit::kExpand) queue.push_back(n);
    }
  }
  internal::RecordTraversal(reported);
  return reported;
}

/// Runs `fn(begin, end, worker)` over disjoint chunks covering [0, n) on
/// `num_threads` plain threads (the caller is worker 0), which claim chunk
/// indices from one atomic counter. `fn` must be thread-safe across
/// distinct chunks. Blocks until all chunks are processed. Runs
/// `query --batch` lines and the Fig. 7 benches' query batches.
void ParallelFor(size_t n, int num_threads,
                 const std::function<void(size_t, size_t, int)>& fn);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_TRAVERSE_H_
