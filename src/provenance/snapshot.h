#ifndef LIPSTICK_PROVENANCE_SNAPSHOT_H_
#define LIPSTICK_PROVENANCE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/result.h"
#include "provenance/graph.h"

namespace lipstick {

/// Per-shard visited bitmap used by every traversal in the read path. One
/// bit per node replaces a heap allocation per unordered_set insert on the
/// BFS hot path. Obtained through GraphSnapshot::AcquireVisited(), which
/// pools the backing storage so repeated queries stop re-allocating.
class VisitedSet {
 public:
  /// Marks `id`; returns true if it was already marked.
  bool TestAndSet(NodeId id) {
    uint64_t& word = bits_[NodeShard(id)][NodeIndex(id) >> 6];
    uint64_t mask = 1ull << (NodeIndex(id) & 63);
    if (word & mask) return true;
    word |= mask;
    return false;
  }

  bool Test(NodeId id) const {
    return (bits_[NodeShard(id)][NodeIndex(id) >> 6] &
            (1ull << (NodeIndex(id) & 63))) != 0;
  }

  /// Pre-marks `id` (e.g. traversal seeds that must never be reported).
  void Set(NodeId id) {
    bits_[NodeShard(id)][NodeIndex(id) >> 6] |= 1ull << (NodeIndex(id) & 63);
  }

  void Clear() {
    for (std::vector<uint64_t>& shard : bits_) {
      std::fill(shard.begin(), shard.end(), 0);
    }
  }

  /// Copies another bitmap's marks wholesale. Both sets must come from
  /// snapshots of the same graph extent (identical shard geometry) — the
  /// cloning path of composed GraphViews.
  void CopyFrom(const VisitedSet& other) { bits_ = other.bits_; }

  /// Marks every id (and the unused tail bits of each shard's last word).
  void SetAll() {
    for (std::vector<uint64_t>& shard : bits_) {
      std::fill(shard.begin(), shard.end(), ~uint64_t{0});
    }
  }

  void Reset(NodeId id) {
    bits_[NodeShard(id)][NodeIndex(id) >> 6] &=
        ~(1ull << (NodeIndex(id) & 63));
  }

  /// One shard's words, for scans that walk a shard in index order: index
  /// i is marked iff bit (i & 63) of word (i >> 6) is set.
  std::span<const uint64_t> ShardWords(uint32_t shard) const {
    return bits_[shard];
  }

 private:
  friend class GraphSnapshot;

  explicit VisitedSet(std::span<const size_t> shard_sizes) {
    bits_.resize(shard_sizes.size());
    for (size_t s = 0; s < shard_sizes.size(); ++s) {
      bits_[s].assign((shard_sizes[s] + 63) / 64, 0);
    }
  }

  std::vector<std::vector<uint64_t>> bits_;
};

/// RAII lease of a pooled VisitedSet. On destruction the bitmap is cleared
/// and returned to the owning snapshot's pool for reuse. Leases may outlive
/// the snapshot they came from (the pool is reference-counted).
class VisitedLease {
 public:
  VisitedLease(VisitedLease&&) = default;
  VisitedLease& operator=(VisitedLease&&) = default;
  ~VisitedLease();

  VisitedSet& operator*() { return *set_; }
  VisitedSet* operator->() { return set_.get(); }
  const VisitedSet& operator*() const { return *set_; }
  const VisitedSet* operator->() const { return set_.get(); }

 private:
  friend class GraphSnapshot;
  struct Pool;
  VisitedLease(std::shared_ptr<Pool> pool, std::unique_ptr<VisitedSet> set)
      : pool_(std::move(pool)), set_(std::move(set)) {}

  std::shared_ptr<Pool> pool_;
  std::unique_ptr<VisitedSet> set_;
};

/// One entry of a snapshot's invocation-run index: `length` consecutive
/// nodes of one shard, from `first` on, that carry the same invocation
/// tag.
struct NodeRun {
  NodeId first = kInvalidNode;
  uint64_t length = 0;
};

/// Immutable view over a sealed ProvenanceGraph: the entry point of the
/// unified read path (subgraph / zoom / deletion / query / export all run
/// on a snapshot). The snapshot borrows the graph's columnar storage and
/// CSR children index — no copies are made.
///
/// Thread-safety contract: any number of threads may read through one
/// GraphSnapshot concurrently (all accessors are const and the underlying
/// columns are never written), as long as the graph is not mutated while
/// the snapshot is in use. Appends, SetAlive/SetParents, Seal() and
/// RollbackTo() all invalidate every outstanding snapshot, exactly like
/// iterators; capture a fresh snapshot after mutating. String-pool reads
/// (payload resolution) are lock-free and safe concurrently with each
/// other.
class GraphSnapshot {
 public:
  /// Captures a read view of `graph`. Fails with kInvalidArgument if the
  /// graph is not sealed (the CSR children index would be stale).
  static Result<GraphSnapshot> Capture(const ProvenanceGraph& graph);

  /// Shared-ownership capture: the snapshot holds a reference on `graph`,
  /// so copies of the snapshot keep the columns alive on their own — the
  /// backbone of the serve daemon's hot-swappable GraphRegistry, where a
  /// `reload` drops the registry's reference while in-flight requests
  /// still read the old epoch through theirs. Same sealed requirement.
  static Result<GraphSnapshot> Capture(
      std::shared_ptr<const ProvenanceGraph> graph);

  /// The shared owner, when captured with the shared-ownership overload
  /// (nullptr for plain borrowed captures).
  const std::shared_ptr<const ProvenanceGraph>& owner() const {
    return owner_;
  }

  /// Captures a parent-edges-only view of a possibly unsealed graph:
  /// everything except ChildrenOf() works (ancestor traversals, rendering,
  /// validation). ChildrenOf() on an unsealed snapshot aborts, mirroring
  /// ProvenanceGraph::ChildrenOf. Given a sealed graph it is Capture.
  static GraphSnapshot CaptureForParents(const ProvenanceGraph& graph);

  // ----------------------------------------------------------------
  // Read API, mirroring ProvenanceGraph. See graph.h for semantics.
  // ----------------------------------------------------------------
  NodeView node(NodeId id) const { return graph_->node(id); }
  bool Contains(NodeId id) const { return graph_->Contains(id); }
  bool InGraph(NodeId id) const { return graph_->InGraph(id); }
  std::span<const NodeId> ParentsOf(NodeId id) const {
    return graph_->ParentsOf(id);
  }
  std::span<const NodeId> ChildrenOf(NodeId id) const {
    return graph_->ChildrenOf(id);
  }
  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    graph_->ForEachNode(std::forward<Fn>(fn));
  }
  template <typename Fn>
  void ForEachAliveNode(Fn&& fn) const {
    graph_->ForEachAliveNode(std::forward<Fn>(fn));
  }
  template <typename Fn>
  void ForEachAliveIndex(uint32_t shard, Fn&& fn) const {
    graph_->ForEachAliveIndex(shard, std::forward<Fn>(fn));
  }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shard_sizes_.size());
  }
  size_t ShardSize(uint32_t shard) const { return shard_sizes_[shard]; }
  size_t num_nodes() const { return num_nodes_; }
  /// Alive nodes at capture.
  size_t num_alive() const { return num_alive_; }
  bool sealed() const { return graph_->sealed(); }
  const StringPool& strings() const { return graph_->strings(); }
  std::string_view str(StrId id) const { return graph_->str(id); }
  const std::vector<InvocationInfo>& invocations() const {
    return graph_->invocations();
  }
  /// The underlying graph, for layers that still take ProvenanceGraph&.
  const ProvenanceGraph& graph() const { return *graph_; }

  /// The invocation-run index: the maximal runs of consecutive nodes in
  /// one shard tagged with invocation `inv`, in id order. Dead nodes stay
  /// in their runs (readers check liveness); untagged nodes and tags that
  /// name no registered invocation are in none. Built when a sealed graph
  /// is captured; empty for an unsealed capture and an out-of-range `inv`.
  std::span<const NodeRun> InvocationRuns(uint32_t inv) const {
    if (runs_ == nullptr || inv + size_t{1} >= runs_->offsets.size()) {
      return {};
    }
    return std::span<const NodeRun>(runs_->runs).subspan(
        runs_->offsets[inv], runs_->offsets[inv + 1] - runs_->offsets[inv]);
  }

  /// Leases a visited bitmap sized to this snapshot from the pool,
  /// allocating only when the pool is empty. Thread-safe: concurrent
  /// readers each lease their own bitmap.
  VisitedLease AcquireVisited() const;

 private:
  /// Invocation-run index in CSR form: invocation i's runs are
  /// runs[offsets[i] .. offsets[i + 1]). Immutable; copies of a snapshot
  /// share it.
  struct RunIndex {
    std::vector<uint32_t> offsets;
    std::vector<NodeRun> runs;
  };

  explicit GraphSnapshot(const ProvenanceGraph& graph);

  static std::shared_ptr<const RunIndex> BuildRunIndex(
      const ProvenanceGraph& graph);

  const ProvenanceGraph* graph_;
  // Non-null only for shared-ownership captures; keeps graph_ alive.
  std::shared_ptr<const ProvenanceGraph> owner_;
  std::vector<size_t> shard_sizes_;  // sizes at capture, for bitmap sizing
  size_t num_nodes_ = 0;
  size_t num_alive_ = 0;
  std::shared_ptr<const RunIndex> runs_;  // null for unsealed captures
  std::shared_ptr<VisitedLease::Pool> pool_;
};

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_SNAPSHOT_H_
