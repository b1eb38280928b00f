#ifndef LIPSTICK_PROVENANCE_VIEW_H_
#define LIPSTICK_PROVENANCE_VIEW_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "provenance/snapshot.h"

namespace lipstick {

/// A lazy result of a graph-transforming query (ZoomOut, subgraph,
/// restrict, deletion propagation): a hide mask over an immutable
/// GraphSnapshot plus, for zoom, synthetic collapsed module nodes and
/// parent rewirings. Nothing is copied or mutated when a view is built —
/// the view materializes into a standalone ProvenanceGraph only on export,
/// and materialization is byte-identical (as saved graph files, provio.h)
/// to applying the operator to a copy of the graph by mutation (the eager
/// references in tests/reference_terminals.h). No query mutates a graph.
///
/// The identity view (MakeIdentity) is the one read surface of the
/// provenance layer: every read operator — the stages below, deletion
/// propagation, and the terminals in query.h and semiring.h — is written
/// once against a GraphView, and the snapshot-level library entry points
/// run it on the identity view.
///
/// Views compose: the plan executor (provenance/exec.h) starts from
/// MakeIdentity() and chains ApplyZoomOut / ApplySubgraph / ApplyRestrict
/// / ApplyDeleteProp on one view, so a whole pipeline runs against a
/// single mask with no intermediate materialization ("mask fusion").
/// Applying stage k over the composed state is equivalent to materializing
/// after stage k-1 and running stage k eagerly — the plan-equivalence
/// suite (tests/plan_test.cc) checks this byte-for-byte.
///
/// Thread-safety: composition (the Apply* methods) is single-threaded;
/// once composed, a GraphView is immutable and any number of threads may
/// read or Materialize() one view concurrently, under the same contract as
/// the snapshot it was built from.
class GraphView {
  /// One mark bit per node across both populations: a bitmap leased from
  /// the snapshot for underlying nodes, a flag per synthetic node.
  struct Marks {
    VisitedLease bits;
    std::vector<uint8_t> syn;
  };

 public:
  /// A collapsed module p-node that exists only in the view. Its id
  /// (SyntheticId) continues shard 0's index space, exactly where the
  /// eager path's writer would have appended it.
  struct SyntheticNode {
    std::string module;            // payload of the zoom node
    uint32_t invocation = 0;       // owning invocation id
    NodeId m_node = kInvalidNode;  // the invocation's "m" node
    std::vector<NodeId> parents;   // the invocation's live input nodes
  };

  /// Node predicate over the facts a restrict stage can see. Synthetic
  /// zoom nodes evaluate as (kZoomedModule, kZoom, module-name).
  using FactPredicate =
      std::function<bool(NodeLabel, NodeRole, std::string_view)>;

  GraphView(GraphView&&) = default;
  GraphView& operator=(GraphView&&) = default;

  /// The all-visible view of a snapshot: the Scan leaf every composed plan
  /// starts from. Works on parent-only snapshots too; the operators that
  /// read children fail with kInvalidArgument on an unsealed graph.
  static GraphView MakeIdentity(const GraphSnapshot& snap);

  /// Deep copy (mask, synthetics, rewirings). The cacheable-subplan path
  /// clones a cached prefix view before extending it with further stages.
  GraphView Clone() const;

  const GraphSnapshot& snapshot() const { return *snap_; }

  /// True iff underlying node `id` is alive under this view. Synthetic ids
  /// are out of the snapshot's range and always report false here; they are
  /// enumerated separately via synthetic_nodes().
  bool Visible(NodeId id) const {
    return snap_->Contains(id) && !(mask_.has_value() && (*mask_)->Test(id));
  }

  /// Visibility across both node populations: underlying nodes by mask,
  /// synthetic nodes by their alive flag.
  bool VisibleOrSynthetic(NodeId id) const {
    if (IsSynthetic(id)) return syn_alive_[SyntheticIndex(id)] != 0;
    return Visible(id);
  }

  /// Visible underlying nodes plus alive synthetic nodes.
  size_t num_visible() const {
    return num_visible_underlying_ + num_syn_alive_;
  }
  size_t num_synthetic() const { return synthetic_.size(); }
  const std::vector<SyntheticNode>& synthetic_nodes() const {
    return synthetic_;
  }
  NodeId SyntheticId(size_t k) const { return MakeNodeId(0, base0_ + k); }
  /// True iff `id` names one of this view's synthetic nodes.
  bool IsSynthetic(NodeId id) const {
    return !synthetic_.empty() && NodeShard(id) == 0 &&
           NodeIndex(id) >= base0_ &&
           NodeIndex(id) < base0_ + synthetic_.size();
  }
  size_t SyntheticIndex(NodeId id) const { return NodeIndex(id) - base0_; }
  /// Parent list of a node under the view: synthetic nodes resolve to
  /// their input nodes, rewired module outputs to {zoom node, m node},
  /// everything else to the snapshot's parents. Callers filter for
  /// visibility themselves, as with ProvenanceGraph::ParentsOf.
  std::span<const NodeId> ParentsOf(NodeId id) const {
    if (IsSynthetic(id)) {
      return synthetic_[SyntheticIndex(id)].parents;
    }
    if (IsRewired(id)) {
      const std::array<NodeId, 2>& rewired = overrides_.find(id)->second;
      return std::span<const NodeId>(rewired.data(), rewired.size());
    }
    return snap_->ParentsOf(id);
  }

  /// True iff `id`, a node of the snapshot (not a synthetic id), is a
  /// module output a zoom stage rewired to {zoom node, m node}. One bit
  /// test; the override map is probed only behind it.
  bool IsRewired(NodeId id) const {
    return rewired_.has_value() && (*rewired_)->Test(id);
  }

  /// Every visible node in materialization order: shard 0's originals,
  /// then the alive synthetic zoom nodes, then the remaining shards. `fn`
  /// is called as fn(NodeId, const SyntheticNode*) with null for underlying
  /// nodes. This is exactly ForEachAliveNode order on the materialized
  /// graph, which keeps lazy exports byte-identical to eager ones.
  template <typename Fn>
  void ForEachVisibleNode(Fn&& fn) const {
    ForEachVisibleInShard(0, fn);
    for (size_t k = 0; k < synthetic_.size(); ++k) {
      if (syn_alive_[k]) fn(SyntheticId(k), &synthetic_[k]);
    }
    for (uint32_t s = 1; s < snap_->num_shards(); ++s) {
      ForEachVisibleInShard(s, fn);
    }
  }

  /// Extra child adjacency a composed view carries on top of the
  /// snapshot's CSR: edges into rewired module outputs and edges into
  /// synthetic zoom nodes, as (parent, child) pairs sorted by parent,
  /// behind a mark on every parent that has any. Built on demand by the
  /// operators that traverse downward; see ForEachChild.
  struct ChildOverlay {
    std::vector<std::pair<NodeId, NodeId>> edges;
    std::optional<Marks> parents;  // engaged iff `edges` is non-empty
  };
  ChildOverlay BuildChildOverlay() const;

  /// Visible children of `id` under the view: the snapshot's CSR edges
  /// minus edges into rewired outputs (their parents changed), plus the
  /// overlay's synthetic/rewired edges. Duplicate edges are preserved,
  /// like the CSR itself. Requires a sealed snapshot.
  template <typename Fn>
  void ForEachChild(NodeId id, const ChildOverlay& overlay, Fn&& fn) const {
    if (!IsSynthetic(id)) {
      std::span<const NodeId> children = snap_->ChildrenOf(id);
      if (!mask_.has_value() && !rewired_.has_value()) {
        // Nothing hidden or rewired: the CSR holds exactly the alive
        // children, all of them visible.
        for (NodeId c : children) fn(c);
      } else {
        for (NodeId c : children) {
          if (Visible(c) && !IsRewired(c)) fn(c);
        }
      }
    }
    if (overlay.parents.has_value() && Marked(*overlay.parents, id)) {
      auto it = std::lower_bound(
          overlay.edges.begin(), overlay.edges.end(), id,
          [](const std::pair<NodeId, NodeId>& e, NodeId p) {
            return e.first < p;
          });
      for (; it != overlay.edges.end() && it->first == id; ++it) {
        fn(it->second);
      }
    }
  }

  /// ------------------------------------------------------------------
  /// Composition stages; each narrows visibility in place. Equivalent to
  /// materializing first and running the eager operator on the result.
  /// The traversing stages poll the calling thread's CancelToken once per
  /// visited node and return its status when it fires, leaving the view
  /// partially narrowed (callers discard it).
  /// ------------------------------------------------------------------

  /// Collapses every named module (Definition 4.1) over the current
  /// visibility. Duplicate names collapse once; an invocation whose m-node
  /// is hidden gets no zoom node. Fails with kNotFound when the graph
  /// holds no live invocation of a module.
  Status ApplyZoomOut(const std::vector<std::string>& modules);

  /// Restricts visibility to SubgraphMembers(roots, up, down).
  Status ApplySubgraph(const std::vector<NodeId>& roots, bool up, bool down);

  /// Hides every visible node whose (label, role, payload) facts fail
  /// `pred`.
  Status ApplyRestrict(const FactPredicate& pred);

  /// Deletion propagation (Definition 4.2) from `seeds`; the deleted set
  /// becomes hidden. `*removed` receives the deleted-node count (seeds
  /// included).
  Status ApplyDeleteProp(const std::vector<NodeId>& seeds, size_t* removed);

  /// The subgraph query of Section 5.1 over the view's adjacency, the one
  /// implementation behind the subgraph stage and SubgraphQuery: the
  /// visible `roots`, their ancestors (`up`), their descendants (`down`),
  /// plus co-parents of descendants when both directions are on. Returns
  /// the members (synthetic ones included) in discovery order. Fails with
  /// kInvalidArgument when `down` is set on an unsealed graph, and with
  /// the token's status when the calling thread's CancelToken fires.
  Result<std::vector<NodeId>> SubgraphMembers(const std::vector<NodeId>& roots,
                                              bool up, bool down) const;

  /// Deletion propagation (Definition 4.2) over the view's adjacency, the
  /// one implementation behind the delete stage, the depends terminal and
  /// deletion.h: starting from the visible seeds, repeatedly deletes every
  /// node that is joint (· / ⊗) and loses an incoming edge, or that loses
  /// all of its visible incoming edges. Returns the deleted nodes in
  /// propagation order, seeds first. When `stop_at` gets deleted the
  /// propagation ends there, with `stop_at` as the last element (the
  /// early exit of dependency queries). Fails with kInvalidArgument on an
  /// unsealed graph, and with the token's status when the calling thread's
  /// CancelToken fires.
  Result<std::vector<NodeId>> DeletionOrder(std::span<const NodeId> seeds,
                                            NodeId stop_at = kInvalidNode)
      const;

  /// Builds a standalone graph equal to what the eager operator would have
  /// produced by mutation: same string pool, same node ids, same liveness,
  /// same (rewired) parents, sealed. Byte-identical as a saved graph file.
  Result<ProvenanceGraph> Materialize() const;

 private:
  explicit GraphView(const GraphSnapshot& snap)
      : snap_(&snap), base0_(snap.ShardSize(0)) {}

  Marks NewMarks() const;
  /// Marks `id`; returns true if it was already marked.
  bool TestAndMark(Marks& marks, NodeId id) const {
    if (IsSynthetic(id)) {
      uint8_t& flag = marks.syn[SyntheticIndex(id)];
      if (flag) return true;
      flag = 1;
      return false;
    }
    return marks.bits->TestAndSet(id);
  }
  bool Marked(const Marks& marks, NodeId id) const {
    return IsSynthetic(id) ? marks.syn[SyntheticIndex(id)] != 0
                           : marks.bits->Test(id);
  }

  /// The hide mask, leased on the first hide: views that hide nothing
  /// (identity terminals) never touch it.
  VisitedSet& Mask();
  /// Hides one visible node of either population.
  void Hide(NodeId id);
  /// Appends a synthetic zoom node (alive).
  void PushSynthetic(SyntheticNode node) {
    synthetic_.push_back(std::move(node));
    syn_alive_.push_back(1);
    ++num_syn_alive_;
  }

  /// Every visible underlying node of `shard` in index order: the
  /// shard's alive flags, less the mask's marks.
  template <typename Fn>
  void ForEachVisibleInShard(uint32_t shard, Fn& fn) const {
    const SyntheticNode* none = nullptr;
    if (!mask_.has_value()) {
      snap_->ForEachAliveIndex(
          shard, [&](uint64_t i) { fn(MakeNodeId(shard, i), none); });
      return;
    }
    const uint64_t* hidden = (*mask_)->ShardWords(shard).data();
    snap_->ForEachAliveIndex(shard, [&](uint64_t i) {
      if (!((hidden[i >> 6] >> (i & 63)) & 1)) fn(MakeNodeId(shard, i), none);
    });
  }

  const GraphSnapshot* snap_;
  std::optional<VisitedLease> mask_;  // marked = hidden
  size_t num_visible_underlying_ = 0;
  uint64_t base0_;  // shard 0 size; synthetic ids start here
  std::vector<SyntheticNode> synthetic_;
  std::vector<uint8_t> syn_alive_;  // parallel to synthetic_
  size_t num_syn_alive_ = 0;
  // Rewired module outputs: a leased bitmap (taken on the first rewire)
  // marks them, and the map holds their {zoom node, m node} parents.
  std::optional<VisitedLease> rewired_;
  std::unordered_map<NodeId, std::array<NodeId, 2>> overrides_;
};

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_VIEW_H_
