#ifndef LIPSTICK_PROVENANCE_GRAPH_H_
#define LIPSTICK_PROVENANCE_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "provenance/string_pool.h"
#include "relational/value.h"

namespace lipstick {

/// Identifier of a node in a ProvenanceGraph. Ids pack (shard, index) so
/// that concurrent workflow tasks can allocate nodes without coordination:
/// shard s, index i  =>  id = (s+1) << 48 | i. Id 0 (== kNoProvenance) is
/// never allocated and means "no annotation".
using NodeId = uint64_t;

inline constexpr NodeId kInvalidNode = 0;
inline constexpr uint32_t kNoInvocation = 0xffffffffu;

inline uint32_t NodeShard(NodeId id) {
  return static_cast<uint32_t>(id >> 48) - 1;
}
inline uint64_t NodeIndex(NodeId id) { return id & ((1ull << 48) - 1); }
inline NodeId MakeNodeId(uint32_t shard, uint64_t index) {
  return (static_cast<uint64_t>(shard + 1) << 48) | index;
}

/// Node labels. Labels kToken..kZoomedModule follow Section 3 of the paper:
/// semiring operations (+, ·, δ), aggregation structure (⊗, aggregate op),
/// black boxes, and the workflow-level structural nodes.
enum class NodeLabel : uint8_t {
  kToken,             // atomic provenance token (p-node)
  kPlus,              // + : alternative derivation (p-node)
  kTimes,             // · : joint derivation (p-node)
  kDelta,             // δ : duplicate elimination (p-node)
  kTensor,            // ⊗ : value-provenance pairing (v-node)
  kAggregate,         // aggregate operation result, payload = op (v-node)
  kConstValue,        // concrete value carried in the graph (v-node)
  kBlackBox,          // UDF invocation, payload = function name
  kModuleInvocation,  // "m" node, payload = module name
  kZoomedModule,      // collapsed module created by ZoomOut, payload = module
};
inline constexpr size_t kNumNodeLabels =
    static_cast<size_t>(NodeLabel::kZoomedModule) + 1;

/// Structural role in the workflow-level construction of Section 3.1.
/// kIntermediate marks nodes produced by a module's internal Pig Latin
/// computation — exactly the nodes ZoomOut removes (cf. Definition 4.1).
enum class NodeRole : uint8_t {
  kIntermediate,    // inside a module's computation
  kWorkflowInput,   // "I" node: tuple supplied by a workflow input module
  kModuleInput,     // "i" node: · of (tuple, invocation)
  kModuleOutput,    // "o" node: · of (tuple, invocation)
  kModuleState,     // "s" node: · of (state tuple, invocation)
  kStateBase,       // token identifying an initial state tuple
  kInvocation,      // "m" node
  kZoom,            // synthetic node created by ZoomOut
};

const char* NodeLabelToString(NodeLabel label);
const char* NodeRoleToString(NodeRole role);

/// The shared Null returned for nodes that carry no value.
const Value& NullValue();

namespace internal {

inline constexpr uint32_t kAliveFlag = 0x1;
inline constexpr uint32_t kValueNodeFlag = 0x2;
inline constexpr uint32_t kNoValueIdx = 0xffffffffu;
inline constexpr uint32_t kInlineParents = 2;

/// Parent adjacency of one node. Up to kInlineParents ids are stored
/// inline (the +/·/⊗ common case); larger lists live in the owning
/// shard's edge arena, with ab[0] holding the arena offset.
struct ParentSlot {
  uint32_t count = 0;
  uint32_t reserved = 0;
  NodeId ab[2] = {kInvalidNode, kInvalidNode};
};

/// One shard of columnar (struct-of-arrays) node storage. A node is a row
/// across the parallel columns; ShardWriter::Append pushes one element to
/// each. The layout exists for traversal speed: scans touch only the
/// columns they need, and parent/child adjacency is contiguous (inline
/// slots + edge arena, CSR after Seal) instead of per-node heap vectors.
struct NodeColumns {
  std::vector<NodeLabel> labels;
  std::vector<NodeRole> roles;
  std::vector<uint8_t> flags;         // kAliveFlag | kValueNodeFlag
  std::vector<uint32_t> invocations;  // kNoInvocation if untagged
  std::vector<StrId> payloads;        // interned token/op/function/module
  std::vector<ParentSlot> parents;
  std::vector<NodeId> edge_arena;     // overflow parent lists
  std::vector<uint32_t> value_idx;    // kNoValueIdx or index into values
  std::vector<Value> values;          // sparse: v-nodes with a value
  // CSR children index, built by Seal(): children of node i are
  // child_edges[child_offsets[i] .. child_offsets[i+1]).
  std::vector<uint32_t> child_offsets;
  std::vector<NodeId> child_edges;

  size_t size() const { return labels.size(); }

  std::span<const NodeId> ParentSpan(uint64_t i) const {
    const ParentSlot& p = parents[i];
    if (p.count <= kInlineParents) return {p.ab, p.count};
    return {edge_arena.data() + p.ab[0], p.count};
  }
};

/// Movable atomic boolean. The graph's sealed flag is cleared by every
/// ShardWriter::Append, and concurrent workflow tasks append to their own
/// shards without coordination, so the flag itself must be an atomic; a
/// bare std::atomic would delete the graph's move operations (it is
/// returned by value from the loaders), hence this wrapper. Moves/copies
/// only happen single-threaded, so a relaxed load-then-store is fine.
class AtomicFlag {
 public:
  AtomicFlag() = default;
  AtomicFlag(const AtomicFlag& o) noexcept
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  AtomicFlag& operator=(const AtomicFlag& o) noexcept {
    v_.store(o.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }
  AtomicFlag& operator=(bool b) noexcept {
    v_.store(b, std::memory_order_relaxed);
    return *this;
  }
  operator bool() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> v_{false};
};

}  // namespace internal

/// Read-only view of one node of a ProvenanceGraph. Cheap to copy (three
/// words); reads resolve directly into the columnar storage. Views are
/// invalidated by appends and mutations, like iterators.
class NodeView {
 public:
  NodeLabel label() const { return sh_->labels[i_]; }
  NodeRole role() const { return sh_->roles[i_]; }
  bool is_value_node() const {
    return (sh_->flags[i_] & internal::kValueNodeFlag) != 0;
  }
  bool alive() const { return (sh_->flags[i_] & internal::kAliveFlag) != 0; }
  uint32_t invocation() const { return sh_->invocations[i_]; }

  /// Token / op / function / module name (empty for unlabeled nodes).
  std::string_view payload() const { return pool_->Get(sh_->payloads[i_]); }
  StrId payload_id() const { return sh_->payloads[i_]; }

  /// The nodes this node was derived from (edges point parent -> child in
  /// derivation order; this is the incoming side).
  std::span<const NodeId> parents() const { return sh_->ParentSpan(i_); }
  size_t num_parents() const { return sh_->parents[i_].count; }

  /// Value carried by v-nodes (aggregate results, constants); NullValue()
  /// for nodes without one.
  const Value& value() const {
    uint32_t v = sh_->value_idx[i_];
    return v == internal::kNoValueIdx ? NullValue() : sh_->values[v];
  }

 private:
  friend class ProvenanceGraph;
  NodeView(const StringPool* pool, const internal::NodeColumns* sh,
           uint64_t i)
      : pool_(pool), sh_(sh), i_(i) {}

  const StringPool* pool_;
  const internal::NodeColumns* sh_;
  uint64_t i_;
};

/// Metadata for one module invocation ("m" node): which module, which
/// workflow node, which execution of the sequence. Names are interned in
/// the owning graph's StringPool — resolve with graph.str(...).
struct InvocationInfo {
  StrId module_name = kEmptyStr;    // module specification name ("dealer")
  StrId instance_name = kEmptyStr;  // module identity ("dealer1")
  uint32_t execution = 0;           // index in the execution sequence
  NodeId m_node = kInvalidNode;
  // Structural node sets recorded during tracking; used by ZoomOut.
  std::vector<NodeId> input_nodes;
  std::vector<NodeId> output_nodes;
  std::vector<NodeId> state_nodes;

  /// True once the invocation's nodes are discarded (AbortInvocation):
  /// the attempt failed and its provenance was rolled back. Aborted
  /// records keep their module/instance names for diagnostics but carry
  /// no graph structure.
  bool aborted() const { return m_node == kInvalidNode; }
};

/// A fully-formed node, used by GraphView::Materialize to restore nodes
/// with explicit liveness and payload.
struct NodeRecord {
  NodeLabel label = NodeLabel::kToken;
  NodeRole role = NodeRole::kIntermediate;
  bool is_value_node = false;
  bool alive = true;
  uint32_t invocation = kNoInvocation;
  std::vector<NodeId> parents;
  std::string payload;
  Value value;
};

class ProvenanceGraph;

/// Observer of every graph mutation that matters for durability. The
/// write-ahead log (provenance/wal.h) implements this interface; the graph
/// calls the attached sink synchronously from the mutating thread, in an
/// order that guarantees referential integrity on replay: interns arrive
/// before any node referencing the id (under the pool lock), invocation
/// registrations in id order (under the invocations lock), and node
/// appends before their value/parent updates. Detached (the default),
/// every hook site costs one null-pointer check.
class GraphWalSink {
 public:
  virtual ~GraphWalSink() = default;

  /// A string was interned for the first time. `prev` is the string one
  /// id before it (empty for id 1); the hook runs under the pool's intern
  /// lock, so it stays put while the hook reads it.
  virtual void OnIntern(StrId id, std::string_view s,
                        std::string_view prev) = 0;
  /// A node was appended (ShardWriter::Append), with the columns exactly
  /// as written.
  virtual void OnNodeAppend(NodeId id, NodeLabel label, NodeRole role,
                            uint8_t flags, uint32_t invocation, StrId payload,
                            std::span<const NodeId> parents) = 0;
  /// A run of tokens was appended (ShardWriter::Tokens): the k-th, id
  /// `first` + k, is an alive token of `role` and `invocation` with no
  /// parents and payload `payloads[k]`. The same as one OnNodeAppend per
  /// token, in order.
  virtual void OnTokens(NodeId first, NodeRole role, uint32_t invocation,
                        std::span<const StrId> payloads) = 0;
  /// A v-node received (or replaced) its carried value.
  virtual void OnNodeValue(NodeId id, const Value& value) = 0;
  /// Every node of `shard` with index >= `from` was marked dead.
  virtual void OnKillShardTail(uint32_t shard, uint64_t from) = 0;
  /// An invocation was registered; `info` names are already interned.
  virtual void OnBeginInvocation(uint32_t invocation,
                                 const InvocationInfo& info) = 0;
  /// `node` joined the invocation's input (0) / output (1) / state (2)
  /// node list.
  virtual void OnInvocationNode(uint32_t invocation, int kind,
                                NodeId node) = 0;
  virtual void OnAbortInvocation(uint32_t invocation) = 0;
  /// The invocation list was truncated to `count` records (rollback).
  virtual void OnTruncateInvocations(uint64_t count) = 0;
};

/// Appends nodes to one shard of a ProvenanceGraph. Each concurrent task
/// owns one ShardWriter; no locking is required because a writer only
/// appends to its own shard and only references already-created nodes
/// (string interning takes the pool's internal lock).
class ShardWriter {
 public:
  ShardWriter(ProvenanceGraph* graph, uint32_t shard)
      : graph_(graph), shard_(shard) {}

  /// Atomic provenance token, e.g. an input or initial-state tuple id.
  NodeId Token(std::string name, NodeRole role = NodeRole::kIntermediate);
  /// Tokens in bulk: one per payload, in order, as Token would append them
  /// one by one (the same columns and ids), with one sink hook for the
  /// run. Returns the first one's id; the k-th is that id + k. The
  /// columns grow at most once, as far as appending the run one node at a
  /// time would grow them. The payloads come from Intern().
  NodeId Tokens(std::span<const StrId> payloads, NodeRole role);
  /// Interns a payload in the graph's pool (the ids Tokens takes).
  StrId Intern(std::string_view s);
  /// + node over `parents` (alternative derivation).
  NodeId Plus(std::vector<NodeId> parents);
  /// · node over `parents` (joint derivation).
  NodeId Times(std::vector<NodeId> parents,
               NodeRole role = NodeRole::kIntermediate,
               uint32_t invocation = kNoInvocation);
  /// δ node over `parents` (duplicate elimination; GROUP/COGROUP/DISTINCT).
  NodeId Delta(std::vector<NodeId> parents);
  /// ⊗ v-node pairing a value v-node with a tuple p-node.
  NodeId Tensor(NodeId value_node, NodeId prov_node);
  /// Aggregate-result v-node, payload = op name ("COUNT", "SUM", ...).
  NodeId Aggregate(std::string op, std::vector<NodeId> parents, Value result);
  /// v-node carrying a constant value being aggregated.
  NodeId ConstValue(Value v);
  /// Black-box (UDF) node.
  NodeId BlackBox(std::string function, std::vector<NodeId> parents);

  /// Appends a node with every field explicit (view materialization).
  NodeId Restore(const NodeRecord& record);

  /// Registers a module invocation and creates its "m" node.
  uint32_t BeginInvocation(std::string module_name, std::string instance_name,
                           uint32_t execution);
  NodeId InvocationNode(uint32_t invocation) const;

  /// Workflow-input "I" node for an externally supplied tuple.
  NodeId WorkflowInput(std::string token_name);
  /// Module input "i" node: ·(tuple, m-node); records it on the invocation.
  NodeId ModuleInput(uint32_t invocation, NodeId tuple_node);
  /// Module output "o" node: ·(tuple, m-node); records it on the invocation.
  NodeId ModuleOutput(uint32_t invocation, NodeId tuple_node);
  /// Module state "s" node: ·(state tuple, m-node).
  NodeId ModuleState(uint32_t invocation, NodeId tuple_node);

  /// Sets the invocation tag of subsequently interpreted intermediate nodes.
  void set_current_invocation(uint32_t inv) { current_invocation_ = inv; }
  uint32_t current_invocation() const { return current_invocation_; }

  /// Lazy state wrapping. While a state scope is active, ResolveParent
  /// wraps each of `state_tuples` (the module's current state annotations,
  /// in any shard) with an "s" node ·(tuple, m) on first use — so state
  /// tuples that never contribute to a derivation cost no graph nodes,
  /// matching the paper's observation that outputs depend on only ~2% of
  /// the state (§5.5). The writer copies the ids and marks them in a node
  /// bitmap of its own, so `state_tuples` need not outlive the call, and a
  /// warmed writer allocates nothing here.
  void BeginStateScope(uint32_t invocation,
                       std::span<const NodeId> state_tuples);
  /// Ends the scope: clears the marks and the wrapped "s" nodes, so a
  /// writer reused by a later invocation never resolves a stale one.
  void EndStateScope();

  /// Returns the annotation to use as a derivation parent: the lazily
  /// created state node if `annot` is a state tuple of the open scope,
  /// else `annot` itself. A node appended inside the scope is never one.
  NodeId ResolveParent(NodeId annot);

  uint32_t shard() const { return shard_; }

 private:
  NodeId Append(NodeLabel label, NodeRole role, uint32_t flags,
                uint32_t invocation, StrId payload,
                std::span<const NodeId> parents);
  /// The "i"/"o"/"s" node ·(tuple, m) of `invocation`, recorded on its
  /// input (kind 0), output (1) or state (2) node list.
  NodeId StructuralNode(uint32_t invocation, NodeId tuple_node, NodeRole role,
                        int kind);
  bool StateMarked(NodeId id) const {
    const uint32_t s = NodeShard(id);
    const uint64_t word = NodeIndex(id) / 64;
    return s < state_marks_.size() && word < state_marks_[s].size() &&
           (state_marks_[s][word] >> (NodeIndex(id) % 64) & 1u) != 0;
  }

  ProvenanceGraph* graph_;
  uint32_t shard_;
  uint32_t current_invocation_ = kNoInvocation;
  // The open state scope: its invocation, its state tuples in ascending
  // id order, the "s" node each one wraps to (kInvalidNode until first
  // use), and one mark bit per node of each shard, set over the state
  // tuples only while the scope is open.
  uint32_t state_scope_invocation_ = kNoInvocation;
  std::vector<NodeId> state_ids_;
  std::vector<NodeId> state_wraps_;
  std::vector<std::vector<uint64_t>> state_marks_;
};

/// The provenance graph for a (sequence of) workflow execution(s).
///
/// Construction phase: ShardWriters append nodes recording only parent
/// (incoming) edges. Query phase: Seal() derives the children adjacency;
/// zoom / deletion / subgraph operations then run on the sealed graph.
///
/// Storage is columnar (internal::NodeColumns, one set of parallel arrays
/// per shard) with payload strings interned in a StringPool; see
/// DESIGN.md §"Graph storage layout".
class ProvenanceGraph {
 public:
  ProvenanceGraph() { shards_.emplace_back(); }

  /// Adds a shard and returns a writer for it. Not thread-safe; create all
  /// writers before spawning tasks.
  ShardWriter AddShard();
  /// Replay append (WAL recovery and graph files): appends one node to
  /// `shard` with every column explicit and `payload` already interned in
  /// this graph's pool, and returns its parent list, `num_parents` ids
  /// long, for the caller to fill in place. Values are restored separately
  /// via SetNodeValue, mirroring WAL record order. Replay is not logged:
  /// the graph must have no WAL sink attached.
  std::span<NodeId> AppendReplayed(uint32_t shard, NodeLabel label,
                                   NodeRole role, uint8_t flags,
                                   uint32_t invocation, StrId payload,
                                   uint32_t num_parents);
  /// Writer for the default shard 0 (single-threaded use).
  ShardWriter writer() { return ShardWriter(this, 0); }

  /// Read-only view of a node. Bounds are LIPSTICK_DCHECKed: passing an id
  /// from another graph (or kInvalidNode) aborts in debug builds instead of
  /// being silent UB.
  NodeView node(NodeId id) const {
    uint32_t s = NodeShard(id);
    uint64_t i = NodeIndex(id);
    LIPSTICK_DCHECK(id != kInvalidNode && s < shards_.size() &&
                        i < shards_[s].size(),
                    "node id out of range for this graph");
    return NodeView(&pool_, &shards_[s], i);
  }

  /// True iff `id` names a node of this graph that is currently alive.
  bool Contains(NodeId id) const {
    if (id == kInvalidNode) return false;
    uint32_t s = NodeShard(id);
    if (s >= shards_.size()) return false;
    uint64_t i = NodeIndex(id);
    return i < shards_[s].size() &&
           (shards_[s].flags[i] & internal::kAliveFlag) != 0;
  }

  /// True iff `id` names a node ever created in this graph (alive or dead).
  bool InGraph(NodeId id) const {
    if (id == kInvalidNode) return false;
    uint32_t s = NodeShard(id);
    return s < shards_.size() && NodeIndex(id) < shards_[s].size();
  }

  /// ------------------------------------------------------------------
  /// Traversal API. Spans point into the columnar storage and are
  /// invalidated by appends and parent mutations.
  /// ------------------------------------------------------------------

  /// Incoming edges of `id` (the nodes it was derived from).
  std::span<const NodeId> ParentsOf(NodeId id) const {
    uint32_t s = NodeShard(id);
    uint64_t i = NodeIndex(id);
    LIPSTICK_DCHECK(id != kInvalidNode && s < shards_.size() &&
                        i < shards_[s].size(),
                    "ParentsOf: node id out of range");
    return shards_[s].ParentSpan(i);
  }

  /// Outgoing edges of `id`; graph must be sealed. Always-on check:
  /// reading children of an unsealed graph would index a stale CSR.
  std::span<const NodeId> ChildrenOf(NodeId id) const {
    LIPSTICK_CHECK(sealed_, "call Seal() before ChildrenOf()");
    uint32_t s = NodeShard(id);
    uint64_t i = NodeIndex(id);
    LIPSTICK_DCHECK(id != kInvalidNode && s < shards_.size() &&
                        i < shards_[s].size(),
                    "ChildrenOf: node id out of range");
    const internal::NodeColumns& sh = shards_[s];
    return {sh.child_edges.data() + sh.child_offsets[i],
            sh.child_offsets[i + 1] - sh.child_offsets[i]};
  }

  /// Calls `fn(NodeId)` for every node ever created (alive or dead), in
  /// deterministic (shard, index) order. The zero-allocation replacement
  /// for materializing AllNodeIds().
  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      size_t n = shards_[s].size();
      for (uint64_t i = 0; i < n; ++i) fn(MakeNodeId(s, i));
    }
  }

  /// Calls `fn(NodeId)` for every alive node, in deterministic order.
  template <typename Fn>
  void ForEachAliveNode(Fn&& fn) const {
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      ForEachAliveIndex(s, [&fn, s](uint64_t i) { fn(MakeNodeId(s, i)); });
    }
  }

  /// Calls `fn(index)` for every alive node of `shard`, in index order: a
  /// straight scan of the shard's flag column.
  template <typename Fn>
  void ForEachAliveIndex(uint32_t shard, Fn&& fn) const {
    const uint8_t* flags = shards_[shard].flags.data();
    const uint64_t n = shards_[shard].flags.size();
    for (uint64_t i = 0; i < n; ++i) {
      if (flags[i] & internal::kAliveFlag) fn(i);
    }
  }

  /// Materialized id list (alive or dead). Test convenience; production
  /// code uses ForEachNode.
  std::vector<NodeId> AllNodeIds() const;

  /// ------------------------------------------------------------------
  /// Mutation API after tracking: what WAL replay applies. No query
  /// mutates a graph; zoom, deletion and restriction are views
  /// (provenance/view.h).
  /// ------------------------------------------------------------------

  /// Marks a node alive or dead. Dirties the seal. Not logged: the graph
  /// must have no WAL sink attached.
  void SetAlive(NodeId id, bool alive);
  /// Replaces the parent list of `id`. Dirties the seal. Not logged: the
  /// graph must have no WAL sink attached.
  void SetParents(NodeId id, std::span<const NodeId> parents);

  /// Column pokes for tools and validator tests that need to fabricate
  /// specific (possibly corrupt) node states. They do not touch
  /// adjacency, so the seal stays valid.
  void SetRole(NodeId id, NodeRole role);
  void SetInvocationTag(NodeId id, uint32_t invocation);
  void SetValueNodeFlag(NodeId id, bool is_value_node);

  /// Sets (or replaces) the value carried by a v-node. WAL-replay path:
  /// tracking writes values through the ShardWriter helpers, but the WAL
  /// logs them as separate records after the append.
  void SetNodeValue(NodeId id, Value value);

  /// Total nodes ever created (including dead ones).
  size_t num_nodes() const;
  /// Number of currently-alive nodes.
  size_t num_alive() const;
  /// Number of edges among alive nodes.
  size_t num_edges() const;

  /// Builds the children adjacency as a per-shard CSR index (offsets +
  /// flat edge array). Must be called after tracking finishes and before
  /// ChildrenOf() / queries. Re-runs after mutations if dirty.
  void Seal();
  bool sealed() const { return sealed_; }
  void MarkDirty() { sealed_ = false; }
  /// Inverse of MarkDirty(): claims the children index is fresh without
  /// rebuilding it. Exists so the validator's stale-seal detector
  /// (G0310) can be exercised deterministically; never call it on a
  /// graph whose adjacency you intend to trust.
  void MarkSealed() { sealed_ = true; }

  /// The graph's string interner (payloads, module/instance names).
  const StringPool& strings() const { return pool_; }
  /// Resolves an interned id; str(inv.module_name) etc.
  std::string_view str(StrId id) const { return pool_.Get(id); }
  /// Interns a string (tracking and deserialization paths).
  StrId InternString(std::string_view s) { return pool_.Intern(s); }
  /// Interns `prefix` + `suffix`, joined in the pool's arena (replay of a
  /// front-coded string).
  StrId InternString(std::string_view prefix, std::string_view suffix) {
    return pool_.Intern(prefix, suffix);
  }
  /// Makes room for `n` new strings at once (StringPool::Reserve).
  void ReserveStrings(size_t n) { pool_.Reserve(n); }

  /// Registered invocations, indexed by invocation id.
  const std::vector<InvocationInfo>& invocations() const {
    return invocations_;
  }
  InvocationInfo& mutable_invocation(uint32_t id) { return invocations_[id]; }

  /// Appends a fully-formed invocation record (deserialization path).
  /// Returns its invocation id.
  uint32_t RestoreInvocation(InvocationInfo info);

  /// Invocations that still carry graph structure (not aborted).
  size_t num_live_invocations() const;

  /// A marker of the graph's extent, used to discard the provenance of
  /// failed or aborted workflow executions. Capture with Savepoint()
  /// before tracking begins; RollbackTo() kills every node appended since
  /// (including nodes in shards added after the savepoint) and erases the
  /// invocation records registered since, leaving the graph observably
  /// identical to its state at the savepoint. Not thread-safe: call with
  /// no concurrent writers.
  struct Savepoint {
    std::vector<size_t> shard_sizes;
    size_t invocation_count = 0;
  };
  Savepoint TakeSavepoint() const;
  void RollbackTo(const Savepoint& savepoint);

  /// Number of nodes currently in `shard` — a per-shard savepoint for
  /// rolling back a single failed invocation attempt.
  size_t ShardSize(uint32_t shard) const;
  /// Number of shards ever created (dense: ids 0..num_shards()-1).
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// Marks every node of `shard` with index >= `from` dead. Safe to call
  /// from the task that owns the shard while other shards are written.
  void KillShardTail(uint32_t shard, size_t from);
  /// Clears an invocation record whose nodes were discarded: drops its
  /// node lists and m-node reference (the record reports aborted()).
  void AbortInvocation(uint32_t invocation);
  /// Truncates the invocation list to `count` records (WAL-replay
  /// counterpart of the truncation RollbackTo performs).
  void TruncateInvocations(size_t count);

  /// Attaches (or detaches, with nullptr) the durability sink notified of
  /// every mutation; also wires the string pool's intern observer. At most
  /// one sink is supported. The sink must outlive the graph or be
  /// detached first, and the graph must not be moved while attached.
  void AttachWalSink(GraphWalSink* sink);
  GraphWalSink* wal_sink() const { return wal_sink_; }

  /// Replay reservation: creates the shards `shard_sizes` names and
  /// reserves shard s's node columns for `shard_sizes[s]` nodes in all,
  /// and the invocation records for `invocations`, exactly, so a replay
  /// that reaches that extent reallocates none of them and ShrinkToFit
  /// after it copies none. Capacities already past a size are left alone.
  /// The caller bounds the sizes: recovery draws an extent read from a
  /// log from one budget of rows that the log's bytes bound. Not
  /// thread-safe.
  void ReserveExtent(std::span<const uint64_t> shard_sizes,
                     size_t invocations);

  /// Releases the growth slack of every node column, the edge arena, the
  /// values, the invocation records and the string pool's span table, so
  /// each holds exactly its contents. The loaders call it once replay is
  /// done: columns grown by doubling would otherwise keep up to half their
  /// capacity spare for the graph's whole life. Not thread-safe.
  void ShrinkToFit();

  /// Bytes held by each storage component, for size accounting
  /// (bench_prov_size) and capacity planning.
  struct MemoryStats {
    size_t column_bytes = 0;      // fixed-width SoA columns + parent slots
    size_t edge_arena_bytes = 0;  // overflow parent lists
    size_t csr_bytes = 0;         // sealed children index
    size_t value_bytes = 0;       // sparse v-node value storage
    size_t interner_bytes = 0;    // StringPool arena + index
    size_t invocation_bytes = 0;  // invocation records
    size_t total() const {
      return column_bytes + edge_arena_bytes + csr_bytes + value_bytes +
             interner_bytes + invocation_bytes;
    }
  };
  MemoryStats ComputeMemoryStats() const;

 private:
  friend class ShardWriter;

  internal::NodeColumns& ShardFor(NodeId id) {
    return shards_[NodeShard(id)];
  }

  std::vector<internal::NodeColumns> shards_;
  StringPool pool_;
  std::vector<InvocationInfo> invocations_;
  // Guards invocations_: invocation registration and the per-invocation
  // input/output/state node lists are shared across concurrent tasks
  // (node creation itself is lock-free — each writer owns its shard).
  // Held behind unique_ptr so the graph stays movable.
  std::unique_ptr<std::mutex> invocations_mu_ =
      std::make_unique<std::mutex>();
  GraphWalSink* wal_sink_ = nullptr;
  internal::AtomicFlag sealed_;
};

/// Guard used by the query layer: every operation that needs the children
/// adjacency reports kInvalidArgument on an unsealed graph instead of
/// asserting (which would be UB under NDEBUG).
inline Status RequireSealed(const ProvenanceGraph& graph, const char* op) {
  if (graph.sealed()) return Status::OK();
  return Status::InvalidArgument(
      std::string("graph not sealed: call Seal() before ") + op);
}

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_GRAPH_H_
