#include "provenance/graph.h"

#include <algorithm>

#include "common/growth.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lipstick {

const char* NodeLabelToString(NodeLabel label) {
  switch (label) {
    case NodeLabel::kToken:
      return "token";
    case NodeLabel::kPlus:
      return "+";
    case NodeLabel::kTimes:
      return "*";
    case NodeLabel::kDelta:
      return "delta";
    case NodeLabel::kTensor:
      return "tensor";
    case NodeLabel::kAggregate:
      return "agg";
    case NodeLabel::kConstValue:
      return "const";
    case NodeLabel::kBlackBox:
      return "blackbox";
    case NodeLabel::kModuleInvocation:
      return "m";
    case NodeLabel::kZoomedModule:
      return "zoom";
  }
  return "?";
}

const char* NodeRoleToString(NodeRole role) {
  switch (role) {
    case NodeRole::kIntermediate:
      return "intermediate";
    case NodeRole::kWorkflowInput:
      return "I";
    case NodeRole::kModuleInput:
      return "i";
    case NodeRole::kModuleOutput:
      return "o";
    case NodeRole::kModuleState:
      return "s";
    case NodeRole::kStateBase:
      return "base";
    case NodeRole::kInvocation:
      return "inv";
    case NodeRole::kZoom:
      return "zoomed";
  }
  return "?";
}

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}

namespace {

using internal::kAliveFlag;
using internal::kInlineParents;
using internal::kNoValueIdx;
using internal::kValueNodeFlag;
using internal::NodeColumns;
using internal::ParentSlot;

/// Writes `parents` into the slot at row `i`: inline if small, else
/// appended to the shard's edge arena. Any previous arena region of the
/// slot is abandoned (the arena is append-only; Seal/stats account it).
void StoreParents(NodeColumns& sh, uint64_t i,
                  std::span<const NodeId> parents) {
  ParentSlot& slot = sh.parents[i];
  slot.count = static_cast<uint32_t>(parents.size());
  if (parents.size() <= kInlineParents) {
    for (size_t k = 0; k < parents.size(); ++k) slot.ab[k] = parents[k];
    return;
  }
  slot.ab[0] = sh.edge_arena.size();
  slot.ab[1] = kInvalidNode;
  sh.edge_arena.insert(sh.edge_arena.end(), parents.begin(), parents.end());
}

}  // namespace

NodeId ShardWriter::Append(NodeLabel label, NodeRole role, uint32_t flags,
                           uint32_t invocation, StrId payload,
                           std::span<const NodeId> parents) {
  NodeColumns& sh = graph_->shards_[shard_];
  uint64_t i = sh.size();
  sh.labels.push_back(label);
  sh.roles.push_back(role);
  sh.flags.push_back(static_cast<uint8_t>(flags));
  sh.invocations.push_back(invocation);
  sh.payloads.push_back(payload);
  sh.parents.emplace_back();
  sh.value_idx.push_back(kNoValueIdx);
  StoreParents(sh, i, parents);
  graph_->sealed_ = false;
  NodeId id = MakeNodeId(shard_, i);
  if (GraphWalSink* sink = graph_->wal_sink_) {
    sink->OnNodeAppend(id, label, role, static_cast<uint8_t>(flags),
                       invocation, payload, parents);
  }
  return id;
}

NodeId ShardWriter::Token(std::string name, NodeRole role) {
  return Append(NodeLabel::kToken, role, kAliveFlag, current_invocation_,
                graph_->pool_.Intern(name), {});
}

NodeId ShardWriter::Tokens(std::span<const StrId> payloads, NodeRole role) {
  NodeColumns& sh = graph_->shards_[shard_];
  const NodeId first = MakeNodeId(shard_, sh.size());
  const size_t n = payloads.size();
  ReserveAsIfPushed(sh.labels, n);
  ReserveAsIfPushed(sh.roles, n);
  ReserveAsIfPushed(sh.flags, n);
  ReserveAsIfPushed(sh.invocations, n);
  ReserveAsIfPushed(sh.payloads, n);
  ReserveAsIfPushed(sh.parents, n);
  ReserveAsIfPushed(sh.value_idx, n);
  sh.labels.insert(sh.labels.end(), n, NodeLabel::kToken);
  sh.roles.insert(sh.roles.end(), n, role);
  sh.flags.insert(sh.flags.end(), n, static_cast<uint8_t>(kAliveFlag));
  sh.invocations.insert(sh.invocations.end(), n, current_invocation_);
  sh.payloads.insert(sh.payloads.end(), payloads.begin(), payloads.end());
  sh.parents.resize(sh.parents.size() + n);  // no parents
  sh.value_idx.insert(sh.value_idx.end(), n, kNoValueIdx);
  graph_->sealed_ = false;
  if (GraphWalSink* sink = graph_->wal_sink_) {
    sink->OnTokens(first, role, current_invocation_, payloads);
  }
  return first;
}

StrId ShardWriter::Intern(std::string_view s) {
  return graph_->pool_.Intern(s);
}

NodeId ShardWriter::Plus(std::vector<NodeId> parents) {
  return Append(NodeLabel::kPlus, NodeRole::kIntermediate, kAliveFlag,
                current_invocation_, kEmptyStr, parents);
}

NodeId ShardWriter::Times(std::vector<NodeId> parents, NodeRole role,
                          uint32_t invocation) {
  return Append(NodeLabel::kTimes, role, kAliveFlag,
                invocation == kNoInvocation ? current_invocation_ : invocation,
                kEmptyStr, parents);
}

NodeId ShardWriter::Delta(std::vector<NodeId> parents) {
  return Append(NodeLabel::kDelta, NodeRole::kIntermediate, kAliveFlag,
                current_invocation_, kEmptyStr, parents);
}

NodeId ShardWriter::Tensor(NodeId value_node, NodeId prov_node) {
  const NodeId parents[2] = {value_node, prov_node};
  return Append(NodeLabel::kTensor, NodeRole::kIntermediate,
                kAliveFlag | kValueNodeFlag, current_invocation_, kEmptyStr,
                parents);
}

NodeId ShardWriter::Aggregate(std::string op, std::vector<NodeId> parents,
                              Value result) {
  NodeId id = Append(NodeLabel::kAggregate, NodeRole::kIntermediate,
                     kAliveFlag | kValueNodeFlag, current_invocation_,
                     graph_->pool_.Intern(op), parents);
  if (!result.is_null()) {
    NodeColumns& sh = graph_->shards_[shard_];
    sh.value_idx.back() = static_cast<uint32_t>(sh.values.size());
    sh.values.push_back(std::move(result));
    if (GraphWalSink* sink = graph_->wal_sink_) {
      sink->OnNodeValue(id, sh.values.back());
    }
  }
  return id;
}

NodeId ShardWriter::ConstValue(Value v) {
  NodeId id = Append(NodeLabel::kConstValue, NodeRole::kIntermediate,
                     kAliveFlag | kValueNodeFlag, current_invocation_,
                     kEmptyStr, {});
  if (!v.is_null()) {
    NodeColumns& sh = graph_->shards_[shard_];
    sh.value_idx.back() = static_cast<uint32_t>(sh.values.size());
    sh.values.push_back(std::move(v));
    if (GraphWalSink* sink = graph_->wal_sink_) {
      sink->OnNodeValue(id, sh.values.back());
    }
  }
  return id;
}

NodeId ShardWriter::BlackBox(std::string function,
                             std::vector<NodeId> parents) {
  return Append(NodeLabel::kBlackBox, NodeRole::kIntermediate, kAliveFlag,
                current_invocation_, graph_->pool_.Intern(function), parents);
}

NodeId ShardWriter::Restore(const NodeRecord& record) {
  uint32_t flags = (record.alive ? kAliveFlag : 0) |
                   (record.is_value_node ? kValueNodeFlag : 0);
  NodeId id = Append(record.label, record.role, flags, record.invocation,
                     graph_->pool_.Intern(record.payload), record.parents);
  if (!record.value.is_null()) {
    NodeColumns& sh = graph_->shards_[shard_];
    sh.value_idx.back() = static_cast<uint32_t>(sh.values.size());
    sh.values.push_back(record.value);
    if (GraphWalSink* sink = graph_->wal_sink_) {
      sink->OnNodeValue(id, sh.values.back());
    }
  }
  return id;
}

uint32_t ShardWriter::BeginInvocation(std::string module_name,
                                      std::string instance_name,
                                      uint32_t execution) {
  StrId module_id = graph_->pool_.Intern(module_name);
  StrId instance_id = graph_->pool_.Intern(instance_name);
  NodeId m_node = Append(NodeLabel::kModuleInvocation, NodeRole::kInvocation,
                         kAliveFlag, kNoInvocation, module_id, {});

  std::lock_guard<std::mutex> lock(*graph_->invocations_mu_);
  uint32_t id = static_cast<uint32_t>(graph_->invocations_.size());
  InvocationInfo info;
  info.module_name = module_id;
  info.instance_name = instance_id;
  info.execution = execution;
  info.m_node = m_node;
  graph_->invocations_.push_back(std::move(info));
  graph_->shards_[shard_].invocations[NodeIndex(m_node)] = id;
  if (GraphWalSink* sink = graph_->wal_sink_) {
    sink->OnBeginInvocation(id, graph_->invocations_.back());
  }
  return id;
}

NodeId ShardWriter::InvocationNode(uint32_t invocation) const {
  std::lock_guard<std::mutex> lock(*graph_->invocations_mu_);
  return graph_->invocations_[invocation].m_node;
}

NodeId ShardWriter::WorkflowInput(std::string token_name) {
  return Append(NodeLabel::kToken, NodeRole::kWorkflowInput, kAliveFlag,
                kNoInvocation, graph_->pool_.Intern(token_name), {});
}

NodeId ShardWriter::ModuleInput(uint32_t invocation, NodeId tuple_node) {
  return StructuralNode(invocation, tuple_node, NodeRole::kModuleInput, 0);
}

NodeId ShardWriter::ModuleOutput(uint32_t invocation, NodeId tuple_node) {
  return StructuralNode(invocation, tuple_node, NodeRole::kModuleOutput, 1);
}

NodeId ShardWriter::ModuleState(uint32_t invocation, NodeId tuple_node) {
  return StructuralNode(invocation, tuple_node, NodeRole::kModuleState, 2);
}

NodeId ShardWriter::StructuralNode(uint32_t invocation, NodeId tuple_node,
                                   NodeRole role, int kind) {
  NodeId parents[2] = {tuple_node, kInvalidNode};
  {
    std::lock_guard<std::mutex> lock(*graph_->invocations_mu_);
    parents[1] = graph_->invocations_[invocation].m_node;
  }
  NodeId id = Append(NodeLabel::kTimes, role, kAliveFlag, invocation,
                     kEmptyStr, parents);
  std::lock_guard<std::mutex> lock(*graph_->invocations_mu_);
  InvocationInfo& info = graph_->invocations_[invocation];
  (kind == 0   ? info.input_nodes
   : kind == 1 ? info.output_nodes
               : info.state_nodes)
      .push_back(id);
  if (GraphWalSink* sink = graph_->wal_sink_) {
    sink->OnInvocationNode(invocation, kind, id);
  }
  return id;
}

void ShardWriter::BeginStateScope(uint32_t invocation,
                                  std::span<const NodeId> state_tuples) {
  EndStateScope();
  state_scope_invocation_ = invocation;
  state_ids_.assign(state_tuples.begin(), state_tuples.end());
  if (!std::is_sorted(state_ids_.begin(), state_ids_.end())) {
    std::sort(state_ids_.begin(), state_ids_.end());
  }
  state_wraps_.assign(state_ids_.size(), kInvalidNode);
  for (NodeId id : state_ids_) {
    if (id == kInvalidNode) continue;
    const uint32_t s = NodeShard(id);
    const uint64_t word = NodeIndex(id) / 64;
    if (s >= state_marks_.size()) state_marks_.resize(s + 1);
    if (word >= state_marks_[s].size()) state_marks_[s].resize(word + 1);
    state_marks_[s][word] |= uint64_t{1} << (NodeIndex(id) % 64);
  }
}

void ShardWriter::EndStateScope() {
  // Every set bit belongs to a listed id, so zeroing their words clears
  // the whole mark.
  for (NodeId id : state_ids_) {
    if (id != kInvalidNode) {
      state_marks_[NodeShard(id)][NodeIndex(id) / 64] = 0;
    }
  }
  state_ids_.clear();
  state_wraps_.clear();
  state_scope_invocation_ = kNoInvocation;
}

NodeId ShardWriter::ResolveParent(NodeId annot) {
  if (!StateMarked(annot)) return annot;
  const size_t k = static_cast<size_t>(
      std::lower_bound(state_ids_.begin(), state_ids_.end(), annot) -
      state_ids_.begin());
  NodeId& wrap = state_wraps_[k];
  if (wrap == kInvalidNode) wrap = ModuleState(state_scope_invocation_, annot);
  return wrap;
}

uint32_t ProvenanceGraph::RestoreInvocation(InvocationInfo info) {
  std::lock_guard<std::mutex> lock(*invocations_mu_);
  invocations_.push_back(std::move(info));
  return static_cast<uint32_t>(invocations_.size() - 1);
}

ShardWriter ProvenanceGraph::AddShard() {
  shards_.emplace_back();
  return ShardWriter(this, static_cast<uint32_t>(shards_.size() - 1));
}

std::span<NodeId> ProvenanceGraph::AppendReplayed(
    uint32_t shard, NodeLabel label, NodeRole role, uint8_t flags,
    uint32_t invocation, StrId payload, uint32_t num_parents) {
  LIPSTICK_DCHECK(wal_sink_ == nullptr, "replay into a logged graph");
  NodeColumns& sh = shards_[shard];
  sh.labels.push_back(label);
  sh.roles.push_back(role);
  sh.flags.push_back(flags);
  sh.invocations.push_back(invocation);
  sh.payloads.push_back(payload);
  sh.value_idx.push_back(kNoValueIdx);
  ParentSlot& slot = sh.parents.emplace_back();
  slot.count = num_parents;
  sealed_ = false;
  if (num_parents <= kInlineParents) return {slot.ab, num_parents};
  slot.ab[0] = sh.edge_arena.size();
  sh.edge_arena.resize(sh.edge_arena.size() + num_parents);
  return {sh.edge_arena.data() + slot.ab[0], num_parents};
}

void ProvenanceGraph::ReserveExtent(std::span<const uint64_t> shard_sizes,
                                    size_t invocations) {
  while (shards_.size() < shard_sizes.size()) shards_.emplace_back();
  for (size_t s = 0; s < shard_sizes.size(); ++s) {
    NodeColumns& sh = shards_[s];
    const size_t n = static_cast<size_t>(shard_sizes[s]);
    sh.labels.reserve(n);
    sh.roles.reserve(n);
    sh.flags.reserve(n);
    sh.invocations.reserve(n);
    sh.payloads.reserve(n);
    sh.parents.reserve(n);
    sh.value_idx.reserve(n);
  }
  std::lock_guard<std::mutex> lock(*invocations_mu_);
  invocations_.reserve(invocations);
}

void ProvenanceGraph::SetAlive(NodeId id, bool alive) {
  uint32_t s = NodeShard(id);
  uint64_t i = NodeIndex(id);
  LIPSTICK_DCHECK(id != kInvalidNode && s < shards_.size() &&
                      i < shards_[s].size(),
                  "SetAlive: node id out of range");
  LIPSTICK_CHECK(wal_sink_ == nullptr, "SetAlive on a logged graph");
  uint8_t& flags = shards_[s].flags[i];
  flags = alive ? (flags | internal::kAliveFlag)
                : (flags & ~internal::kAliveFlag);
  sealed_ = false;
}

void ProvenanceGraph::SetParents(NodeId id, std::span<const NodeId> parents) {
  uint32_t s = NodeShard(id);
  uint64_t i = NodeIndex(id);
  LIPSTICK_DCHECK(id != kInvalidNode && s < shards_.size() &&
                      i < shards_[s].size(),
                  "SetParents: node id out of range");
  LIPSTICK_CHECK(wal_sink_ == nullptr, "SetParents on a logged graph");
  StoreParents(shards_[s], i, parents);
  sealed_ = false;
}

void ProvenanceGraph::SetRole(NodeId id, NodeRole role) {
  uint32_t s = NodeShard(id);
  uint64_t i = NodeIndex(id);
  LIPSTICK_DCHECK(id != kInvalidNode && s < shards_.size() &&
                      i < shards_[s].size(),
                  "SetRole: node id out of range");
  shards_[s].roles[i] = role;
}

void ProvenanceGraph::SetInvocationTag(NodeId id, uint32_t invocation) {
  uint32_t s = NodeShard(id);
  uint64_t i = NodeIndex(id);
  LIPSTICK_DCHECK(id != kInvalidNode && s < shards_.size() &&
                      i < shards_[s].size(),
                  "SetInvocationTag: node id out of range");
  shards_[s].invocations[i] = invocation;
}

void ProvenanceGraph::SetValueNodeFlag(NodeId id, bool is_value_node) {
  uint32_t s = NodeShard(id);
  uint64_t i = NodeIndex(id);
  LIPSTICK_DCHECK(id != kInvalidNode && s < shards_.size() &&
                      i < shards_[s].size(),
                  "SetValueNodeFlag: node id out of range");
  uint8_t& flags = shards_[s].flags[i];
  flags = is_value_node ? (flags | internal::kValueNodeFlag)
                        : (flags & ~internal::kValueNodeFlag);
}

void ProvenanceGraph::SetNodeValue(NodeId id, Value value) {
  uint32_t s = NodeShard(id);
  uint64_t i = NodeIndex(id);
  LIPSTICK_DCHECK(id != kInvalidNode && s < shards_.size() &&
                      i < shards_[s].size(),
                  "SetNodeValue: node id out of range");
  NodeColumns& sh = shards_[s];
  uint32_t& vi = sh.value_idx[i];
  if (vi == kNoValueIdx) {
    vi = static_cast<uint32_t>(sh.values.size());
    sh.values.push_back(std::move(value));
  } else {
    sh.values[vi] = std::move(value);
  }
  if (GraphWalSink* sink = wal_sink_) sink->OnNodeValue(id, sh.values[vi]);
}

namespace {

void ForwardInternToSink(void* ctx, StrId id, std::string_view s,
                         std::string_view prev) {
  static_cast<GraphWalSink*>(ctx)->OnIntern(id, s, prev);
}

}  // namespace

void ProvenanceGraph::AttachWalSink(GraphWalSink* sink) {
  wal_sink_ = sink;
  pool_.SetInternObserver(sink != nullptr ? &ForwardInternToSink : nullptr,
                          sink);
}

size_t ProvenanceGraph::num_nodes() const {
  size_t n = 0;
  for (const NodeColumns& s : shards_) n += s.size();
  return n;
}

size_t ProvenanceGraph::num_alive() const {
  size_t n = 0;
  for (const NodeColumns& s : shards_) {
    for (uint8_t f : s.flags) n += (f & kAliveFlag) ? 1 : 0;
  }
  return n;
}

size_t ProvenanceGraph::num_edges() const {
  size_t n = 0;
  for (const NodeColumns& s : shards_) {
    for (uint64_t i = 0; i < s.size(); ++i) {
      if (!(s.flags[i] & kAliveFlag)) continue;
      for (NodeId p : s.ParentSpan(i)) n += Contains(p) ? 1 : 0;
    }
  }
  return n;
}

std::vector<NodeId> ProvenanceGraph::AllNodeIds() const {
  std::vector<NodeId> ids;
  ids.reserve(num_nodes());
  ForEachNode([&ids](NodeId id) { ids.push_back(id); });
  return ids;
}

void ProvenanceGraph::Seal() {
  // Observability: time the CSR build and report graph shape + bytes/node
  // (from the existing memory accounting) when armed. Disarmed, the whole
  // block is two relaxed atomic loads.
  obs::ObsSpan span("provenance", "seal");
  const bool obs_armed = span.active() || obs::MetricsRegistry::Enabled();
  WallTimer seal_timer;

  // Two-pass CSR build per shard: count alive-child edges into each
  // parent, prefix-sum into offsets, then fill. Iteration order (shard,
  // index) matches the historical nested-vector build, so children of a
  // parent stay sorted by (child shard, child index).
  for (NodeColumns& s : shards_) {
    s.child_offsets.assign(s.size() + 1, 0);
    s.child_edges.clear();
  }
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    const NodeColumns& sh = shards_[s];
    for (uint64_t i = 0; i < sh.size(); ++i) {
      if (!(sh.flags[i] & kAliveFlag)) continue;
      for (NodeId p : sh.ParentSpan(i)) {
        if (!Contains(p)) continue;
        ++shards_[NodeShard(p)].child_offsets[NodeIndex(p) + 1];
      }
    }
  }
  for (NodeColumns& s : shards_) {
    uint64_t total = 0;
    for (size_t i = 1; i < s.child_offsets.size(); ++i) {
      total += s.child_offsets[i];
      LIPSTICK_CHECK(total <= 0xffffffffull,
                     "shard exceeds 2^32 child edges");
      s.child_offsets[i] = static_cast<uint32_t>(total);
    }
    s.child_edges.resize(total);
  }
  // Fill pass; cursor tracks the next free slot per parent.
  std::vector<std::vector<uint32_t>> cursor(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    cursor[s].assign(shards_[s].child_offsets.begin(),
                     shards_[s].child_offsets.end() - 1);
  }
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    const NodeColumns& sh = shards_[s];
    for (uint64_t i = 0; i < sh.size(); ++i) {
      if (!(sh.flags[i] & kAliveFlag)) continue;
      NodeId child = MakeNodeId(s, i);
      for (NodeId p : sh.ParentSpan(i)) {
        if (!Contains(p)) continue;
        uint32_t ps = NodeShard(p);
        shards_[ps].child_edges[cursor[ps][NodeIndex(p)]++] = child;
      }
    }
  }
  sealed_ = true;

  if (obs_armed) {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    static const obs::MetricId kSeals = metrics.RegisterCounter(
        "provenance.seals");
    static const obs::MetricId kSealUs = metrics.RegisterHistogram(
        "provenance.seal_us");
    static const obs::MetricId kBytesPerNode = metrics.RegisterGauge(
        "provenance.bytes_per_node");
    static const obs::MetricId kNodes = metrics.RegisterGauge(
        "provenance.nodes");
    double seal_us = seal_timer.ElapsedMicros();
    size_t nodes = num_nodes();
    size_t edges = 0;
    for (const NodeColumns& s : shards_) edges += s.child_edges.size();
    MemoryStats stats = ComputeMemoryStats();
    size_t bytes_per_node = nodes == 0 ? 0 : stats.total() / nodes;
    metrics.CounterAdd(kSeals);
    metrics.Observe(kSealUs, seal_us);
    metrics.GaugeSet(kNodes, static_cast<int64_t>(nodes));
    metrics.GaugeSet(kBytesPerNode, static_cast<int64_t>(bytes_per_node));
    span.Arg("nodes", static_cast<uint64_t>(nodes));
    span.Arg("edges", static_cast<uint64_t>(edges));
    span.Arg("shards", static_cast<uint64_t>(shards_.size()));
    span.Arg("bytes_per_node", static_cast<uint64_t>(bytes_per_node));
    span.Arg("build_us", seal_us);
  }
}

size_t ProvenanceGraph::num_live_invocations() const {
  std::lock_guard<std::mutex> lock(*invocations_mu_);
  size_t n = 0;
  for (const InvocationInfo& inv : invocations_) n += inv.aborted() ? 0 : 1;
  return n;
}

ProvenanceGraph::Savepoint ProvenanceGraph::TakeSavepoint() const {
  Savepoint sp;
  sp.shard_sizes.reserve(shards_.size());
  for (const NodeColumns& s : shards_) sp.shard_sizes.push_back(s.size());
  std::lock_guard<std::mutex> lock(*invocations_mu_);
  sp.invocation_count = invocations_.size();
  return sp;
}

void ProvenanceGraph::RollbackTo(const Savepoint& savepoint) {
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    size_t from =
        s < savepoint.shard_sizes.size() ? savepoint.shard_sizes[s] : 0;
    KillShardTail(s, from);
  }
  // Invocation ids are indices handed out monotonically, so everything
  // registered after the savepoint forms a suffix; the nodes referencing
  // those ids were just killed above.
  TruncateInvocations(savepoint.invocation_count);
  sealed_ = false;
}

void ProvenanceGraph::TruncateInvocations(size_t count) {
  std::lock_guard<std::mutex> lock(*invocations_mu_);
  if (invocations_.size() > count) invocations_.resize(count);
  if (GraphWalSink* sink = wal_sink_) {
    sink->OnTruncateInvocations(invocations_.size());
  }
}

size_t ProvenanceGraph::ShardSize(uint32_t shard) const {
  return shards_[shard].size();
}

void ProvenanceGraph::KillShardTail(uint32_t shard, size_t from) {
  NodeColumns& s = shards_[shard];
  if (from >= s.size()) return;
  for (size_t i = from; i < s.size(); ++i) {
    s.flags[i] &= static_cast<uint8_t>(~kAliveFlag);
  }
  sealed_ = false;
  if (GraphWalSink* sink = wal_sink_) sink->OnKillShardTail(shard, from);
}

void ProvenanceGraph::AbortInvocation(uint32_t invocation) {
  std::lock_guard<std::mutex> lock(*invocations_mu_);
  InvocationInfo& inv = invocations_[invocation];
  inv.m_node = kInvalidNode;
  inv.input_nodes.clear();
  inv.output_nodes.clear();
  inv.state_nodes.clear();
  if (GraphWalSink* sink = wal_sink_) sink->OnAbortInvocation(invocation);
}

void ProvenanceGraph::ShrinkToFit() {
  for (NodeColumns& s : shards_) {
    s.labels.shrink_to_fit();
    s.roles.shrink_to_fit();
    s.flags.shrink_to_fit();
    s.invocations.shrink_to_fit();
    s.payloads.shrink_to_fit();
    s.parents.shrink_to_fit();
    s.edge_arena.shrink_to_fit();
    s.value_idx.shrink_to_fit();
    s.values.shrink_to_fit();
  }
  {
    std::lock_guard<std::mutex> lock(*invocations_mu_);
    invocations_.shrink_to_fit();
    for (InvocationInfo& inv : invocations_) {
      inv.input_nodes.shrink_to_fit();
      inv.output_nodes.shrink_to_fit();
      inv.state_nodes.shrink_to_fit();
    }
  }
  pool_.ShrinkToFit();
}

ProvenanceGraph::MemoryStats ProvenanceGraph::ComputeMemoryStats() const {
  MemoryStats ms;
  for (const NodeColumns& s : shards_) {
    ms.column_bytes += s.labels.capacity() * sizeof(NodeLabel) +
                       s.roles.capacity() * sizeof(NodeRole) +
                       s.flags.capacity() * sizeof(uint8_t) +
                       s.invocations.capacity() * sizeof(uint32_t) +
                       s.payloads.capacity() * sizeof(StrId) +
                       s.parents.capacity() * sizeof(ParentSlot) +
                       s.value_idx.capacity() * sizeof(uint32_t);
    ms.edge_arena_bytes += s.edge_arena.capacity() * sizeof(NodeId);
    ms.csr_bytes += s.child_offsets.capacity() * sizeof(uint32_t) +
                    s.child_edges.capacity() * sizeof(NodeId);
    ms.value_bytes += s.values.capacity() * sizeof(Value);
  }
  ms.interner_bytes = pool_.MemoryBytes();
  std::lock_guard<std::mutex> lock(*invocations_mu_);
  for (const InvocationInfo& inv : invocations_) {
    ms.invocation_bytes += sizeof(InvocationInfo) +
                           (inv.input_nodes.capacity() +
                            inv.output_nodes.capacity() +
                            inv.state_nodes.capacity()) *
                               sizeof(NodeId);
  }
  return ms;
}

}  // namespace lipstick
