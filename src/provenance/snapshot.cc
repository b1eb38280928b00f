#include "provenance/snapshot.h"

#include <utility>

namespace lipstick {

/// Free-list of visited bitmaps, shared by every lease handed out by one
/// snapshot. Reference-counted so a lease can safely outlive the snapshot
/// that created it.
struct VisitedLease::Pool {
  std::mutex mu;
  std::vector<std::unique_ptr<VisitedSet>> free;
};

VisitedLease::~VisitedLease() {
  if (set_ == nullptr || pool_ == nullptr) return;
  // Returned bitmaps are cleared eagerly: clearing is a straight memset
  // over words already in cache, and it keeps Acquire allocation-free and
  // O(1) on the query hot path.
  set_->Clear();
  std::lock_guard<std::mutex> lock(pool_->mu);
  pool_->free.push_back(std::move(set_));
}

GraphSnapshot::GraphSnapshot(const ProvenanceGraph& graph)
    : graph_(&graph), pool_(std::make_shared<VisitedLease::Pool>()) {
  shard_sizes_.reserve(graph.num_shards());
  for (uint32_t s = 0; s < graph.num_shards(); ++s) {
    shard_sizes_.push_back(graph.ShardSize(s));
    num_nodes_ += shard_sizes_.back();
  }
  num_alive_ = graph.num_alive();
}

Result<GraphSnapshot> GraphSnapshot::Capture(const ProvenanceGraph& graph) {
  LIPSTICK_RETURN_IF_ERROR(RequireSealed(graph, "GraphSnapshot::Capture"));
  return GraphSnapshot(graph);
}

Result<GraphSnapshot> GraphSnapshot::Capture(
    std::shared_ptr<const ProvenanceGraph> graph) {
  if (graph == nullptr) {
    return Status::InvalidArgument("GraphSnapshot::Capture: null graph");
  }
  LIPSTICK_RETURN_IF_ERROR(RequireSealed(*graph, "GraphSnapshot::Capture"));
  GraphSnapshot snap(*graph);
  snap.owner_ = std::move(graph);
  return snap;
}

GraphSnapshot GraphSnapshot::CaptureForParents(const ProvenanceGraph& graph) {
  return GraphSnapshot(graph);
}

VisitedLease GraphSnapshot::AcquireVisited() const {
  {
    std::lock_guard<std::mutex> lock(pool_->mu);
    if (!pool_->free.empty()) {
      std::unique_ptr<VisitedSet> set = std::move(pool_->free.back());
      pool_->free.pop_back();
      return VisitedLease(pool_, std::move(set));
    }
  }
  return VisitedLease(
      pool_, std::unique_ptr<VisitedSet>(new VisitedSet(shard_sizes_)));
}

}  // namespace lipstick
