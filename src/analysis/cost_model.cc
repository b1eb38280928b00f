#include "analysis/cost_model.h"

#include <bit>
#include <map>

#include "provenance/string_pool.h"

namespace lipstick::analysis {

namespace {

/// Capacity a std::vector holding `n` elements reaches under push_back
/// doubling: the next power of two, except an empty vector never
/// allocates.
uint64_t Cap(uint64_t n) {
  if (n == 0) return 0;
  if (n == kCardInf) return kCardInf;
  return std::bit_ceil(n);
}

CardInterval CapI(CardInterval c) {
  // bit_ceil is monotone, so capping the endpoints caps the interval.
  return {Cap(c.lo), Cap(c.hi)};
}

CardInterval Scale(CardInterval c, uint64_t k) {
  return c * CardInterval::Exact(k);
}

/// Bytes per node across the fixed-width columns: labels/roles/flags
/// (1 each), invocations (4), payloads (4), value_idx (4), parent slots.
constexpr uint64_t kColumnBytesPerNode =
    3 * sizeof(uint8_t) + sizeof(uint32_t) + sizeof(StrId) +
    sizeof(uint32_t) + sizeof(internal::ParentSlot);

constexpr uint64_t kInternerChunk = 64 * 1024;
constexpr uint64_t kSpanBytes = 16;  // StringPool::Span (private): ptr + u32

/// StringPool::MemoryBytes of the index for `strings` interned strings:
/// its slot table, sized by the pool's own rule.
uint64_t IndexBytes(uint64_t strings) {
  if (strings == kCardInf) return kCardInf;
  return StringPool::IndexSlotsFor(strings) * sizeof(StrId);
}

uint64_t ArenaBytes(uint64_t chars) {
  if (chars == 0) return 0;
  if (chars == kCardInf) return kCardInf;
  return kInternerChunk * ((chars + kInternerChunk - 1) / kInternerChunk);
}

}  // namespace

CostReport PredictFromEmission(
    const Emission& total,
    const std::vector<InvocationProfile>& invocations, bool concrete) {
  CostReport r;
  r.concrete = concrete;
  r.nodes = total.nodes;
  r.edges = total.edges;
  r.est_nodes = total.est_nodes;
  r.est_edges = total.est_edges;

  r.column_bytes = Scale(CapI(total.nodes), kColumnBytesPerNode);
  // The edge arena grows by bulk inserts (libstdc++: new capacity =
  // size + max(size, n)), so its final capacity is run-history dependent:
  // between an exact fit and twice the live wide-parent count.
  CardInterval arena_fit = Scale(total.wide_edges, sizeof(NodeId));
  r.edge_arena_bytes =
      CardInterval{arena_fit.lo, (arena_fit * CardInterval::Exact(2)).hi};
  // Seal() sizes the CSR with assign/resize, so capacities are exact:
  // (N+1) offsets + E child edges per shard (single shard assumed).
  r.csr_bytes = Scale(total.nodes + CardInterval::Exact(1),
                      sizeof(uint32_t)) +
                Scale(total.edges, sizeof(NodeId));
  r.value_bytes = Scale(CapI(total.values), sizeof(Value));

  // Interner: chunked arena + span table (incl. the id-0 empty sentinel)
  // + index slots.
  CardInterval strings = total.interned_strings;
  CardInterval chars = total.interned_chars;
  r.interner_bytes =
      CardInterval{ArenaBytes(chars.lo), ArenaBytes(chars.hi)} +
      Scale(CapI(strings + CardInterval::Exact(1)), kSpanBytes) +
      CardInterval{IndexBytes(strings.lo), IndexBytes(strings.hi)};

  for (const InvocationProfile& p : invocations) {
    r.invocation_bytes += CardInterval::Exact(sizeof(InvocationInfo)) +
                          Scale(CapI(p.emission.input_nodes) +
                                    CapI(p.emission.output_nodes) +
                                    CapI(p.emission.state_nodes),
                                sizeof(NodeId));
  }

  r.total_bytes = r.column_bytes + r.edge_arena_bytes + r.csr_bytes +
                  r.value_bytes + r.interner_bytes + r.invocation_bytes;
  // Point estimate: midpoint-free — reuse the est node/edge counts with
  // the same constants, falling back to interval lows for components whose
  // estimate equals their bound.
  uint64_t est_n = total.nodes.exact()
                       ? total.nodes.lo
                       : static_cast<uint64_t>(total.est_nodes);
  uint64_t est_e = total.edges.exact()
                       ? total.edges.lo
                       : static_cast<uint64_t>(total.est_edges);
  r.est_bytes = Cap(est_n) * kColumnBytesPerNode +
                (est_n + 1) * sizeof(uint32_t) + est_e * sizeof(NodeId) +
                Cap(total.values.hi == kCardInf ? total.values.lo
                                                : total.values.hi) *
                    sizeof(Value) +
                r.interner_bytes.lo + r.invocation_bytes.lo +
                r.edge_arena_bytes.lo;
  return r;
}

CostReport PredictCost(const WorkflowFacts& facts) {
  CostReport r = PredictFromEmission(facts.Total(), facts.invocations,
                                     facts.concrete);

  std::map<std::string, size_t> index;
  for (const InvocationProfile& p : facts.invocations) {
    auto [it, fresh] = index.try_emplace(p.node_id, r.per_node.size());
    if (fresh) {
      ModuleCost mc;
      mc.node_id = p.node_id;
      mc.module = p.module;
      mc.instance = p.instance;
      r.per_node.push_back(std::move(mc));
    }
    ModuleCost& mc = r.per_node[it->second];
    ++mc.invocations;
    mc.nodes += p.emission.nodes;
    mc.edges += p.emission.edges;
    mc.est_nodes += p.emission.est_nodes;
    mc.est_edges += p.emission.est_edges;
  }
  return r;
}

Emission MeasureEmission(const ProvenanceGraph& graph) {
  Emission em;
  graph.ForEachNode([&](NodeId id) {
    NodeView n = graph.node(id);
    em.nodes += CardInterval::Exact(1);
    size_t parents = n.num_parents();
    if (n.alive()) em.edges += CardInterval::Exact(parents);
    if (parents > internal::kInlineParents) {
      em.wide_nodes += CardInterval::Exact(1);
      em.wide_edges += CardInterval::Exact(parents);
    }
    if (n.is_value_node() && !n.value().is_null()) {
      em.values += CardInterval::Exact(1);
    }
  });
  for (const InvocationInfo& inv : graph.invocations()) {
    em.input_nodes += CardInterval::Exact(inv.input_nodes.size());
    em.output_nodes += CardInterval::Exact(inv.output_nodes.size());
    em.state_nodes += CardInterval::Exact(inv.state_nodes.size());
  }
  const StringPool& pool = graph.strings();
  uint64_t chars = 0;
  for (size_t i = 1; i < pool.size(); ++i) {
    chars += pool.Get(static_cast<StrId>(i)).size();
  }
  em.interned_strings = CardInterval::Exact(pool.size() - 1);
  em.interned_chars = CardInterval::Exact(chars);
  em.est_nodes = static_cast<double>(em.nodes.lo);
  em.est_edges = static_cast<double>(em.edges.lo);
  return em;
}

std::vector<InvocationProfile> MeasureInvocations(
    const ProvenanceGraph& graph) {
  std::vector<InvocationProfile> out;
  for (const InvocationInfo& inv : graph.invocations()) {
    InvocationProfile p;
    p.module = std::string(graph.str(inv.module_name));
    p.instance = std::string(graph.str(inv.instance_name));
    p.execution = static_cast<int>(inv.execution);
    p.emission.input_nodes = CardInterval::Exact(inv.input_nodes.size());
    p.emission.output_nodes = CardInterval::Exact(inv.output_nodes.size());
    p.emission.state_nodes = CardInterval::Exact(inv.state_nodes.size());
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace lipstick::analysis
