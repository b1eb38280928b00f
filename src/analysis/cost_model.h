#ifndef LIPSTICK_ANALYSIS_COST_MODEL_H_
#define LIPSTICK_ANALYSIS_COST_MODEL_H_

#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "provenance/graph.h"

namespace lipstick::analysis {

/// Predictive provenance cost model: converts the dataflow analysis's
/// emission facts (dataflow.h) into the byte footprint the columnar graph
/// storage of PR-3 will occupy — per module invocation and for the whole
/// workflow. The byte formulas mirror ProvenanceGraph::ComputeMemoryStats
/// exactly: struct-of-arrays columns with push_back doubling (capacity =
/// bit_ceil), inline ≤2-parent slots with an edge arena for wider nodes,
/// the sealed CSR children index, sparse v-node value storage, the
/// interner (64 KiB chunk arena + span table + index slots), and the
/// per-invocation bookkeeping vectors.

/// Aggregated predicted emission of one workflow node across executions.
struct ModuleCost {
  std::string node_id;
  std::string module;
  std::string instance;
  int invocations = 0;  // executions of this node that were modeled
  CardInterval nodes = CardInterval::Zero();
  CardInterval edges = CardInterval::Zero();
  double est_nodes = 0;
  double est_edges = 0;
};

/// Predicted storage footprint, mirroring MemoryStats component by
/// component. Intervals are exact in concrete mode.
struct CostReport {
  bool concrete = false;

  CardInterval nodes = CardInterval::Zero();
  CardInterval edges = CardInterval::Zero();
  double est_nodes = 0;
  double est_edges = 0;

  CardInterval column_bytes = CardInterval::Zero();
  CardInterval edge_arena_bytes = CardInterval::Zero();
  CardInterval csr_bytes = CardInterval::Zero();
  CardInterval value_bytes = CardInterval::Zero();
  CardInterval interner_bytes = CardInterval::Zero();
  CardInterval invocation_bytes = CardInterval::Zero();
  CardInterval total_bytes = CardInterval::Zero();
  /// Point estimate of total_bytes under the default selectivities.
  uint64_t est_bytes = 0;

  /// Per workflow node, summed over the modeled executions.
  std::vector<ModuleCost> per_node;
};

/// Predicts the storage cost of running the analyzed workflow, assuming a
/// single-shard graph (the reference executor's default).
CostReport PredictCost(const WorkflowFacts& facts);

/// Profiles an existing graph through the same accounting the predictor
/// uses: node/edge/wide/value counts, invocation vector sizes, interner
/// totals. Feeding the result through the byte formulas yields a
/// prediction for *this* graph, which lets tests validate the formulas
/// against ComputeMemoryStats independently of the dataflow analysis.
Emission MeasureEmission(const ProvenanceGraph& graph);

/// Per-invocation profiles of an existing graph (module/instance names
/// resolved, input/output/state vector sizes recorded) — the companion of
/// MeasureEmission for feeding PredictFromEmission's invocation formulas.
std::vector<InvocationProfile> MeasureInvocations(
    const ProvenanceGraph& graph);

/// The byte formulas alone: `total` is a whole-graph emission,
/// `invocation_sizes` the per-invocation (input, output, state) vector
/// lengths. Exposed for the formula-validation test; PredictCost wraps it.
CostReport PredictFromEmission(
    const Emission& total,
    const std::vector<InvocationProfile>& invocations, bool concrete);

}  // namespace lipstick::analysis

#endif  // LIPSTICK_ANALYSIS_COST_MODEL_H_
