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
  if (graph.sealed()) runs_ = BuildRunIndex(graph);
}

std::shared_ptr<const GraphSnapshot::RunIndex> GraphSnapshot::BuildRunIndex(
    const ProvenanceGraph& graph) {
  // One pass over each shard's invocation column collects the runs in id
  // order; a stable counting sort by invocation lays them out as CSR.
  const size_t num_invocations = graph.invocations().size();
  std::vector<std::pair<uint32_t, NodeRun>> found;
  for (uint32_t s = 0; s < graph.num_shards(); ++s) {
    const uint64_t n = graph.ShardSize(s);
    uint64_t i = 0;
    while (i < n) {
      const uint64_t begin = i;
      const uint32_t tag = graph.node(MakeNodeId(s, i)).invocation();
      while (++i < n && graph.node(MakeNodeId(s, i)).invocation() == tag) {
      }
      if (tag < num_invocations) {
        found.emplace_back(tag, NodeRun{MakeNodeId(s, begin), i - begin});
      }
    }
  }
  auto index = std::make_shared<RunIndex>();
  index->offsets.assign(num_invocations + 1, 0);
  for (const auto& [inv, run] : found) ++index->offsets[inv + 1];
  for (size_t i = 1; i < index->offsets.size(); ++i) {
    index->offsets[i] += index->offsets[i - 1];
  }
  std::vector<uint32_t> next(index->offsets.begin(),
                             index->offsets.end() - 1);
  index->runs.resize(found.size());
  for (const auto& [inv, run] : found) index->runs[next[inv]++] = run;
  return index;
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
