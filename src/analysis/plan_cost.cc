#include "analysis/plan_cost.h"

#include <algorithm>
#include <optional>
#include <set>

#include "provenance/query.h"

namespace lipstick::analysis {

namespace {

uint64_t SatSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

/// Estimates a ZoomOut stage from the selected invocations' runs in the
/// snapshot's invocation-run index: how many alive nodes the named modules
/// would collapse away (intermediates + state, with state-base tokens as
/// slack) and how many synthetic zoom nodes they would add (one per live
/// invocation).
struct ZoomEstimate {
  uint64_t removed_lo = 0;  // intermediates + state nodes
  uint64_t removed_hi = 0;  // + state-base tokens possibly stranded
  uint64_t added = 0;       // one synthetic node per invocation
};

ZoomEstimate EstimateZoom(const GraphSnapshot& snap,
                          const std::vector<std::string>& modules) {
  std::set<std::string> names(modules.begin(), modules.end());
  ZoomEstimate est;
  for (uint32_t i = 0; i < snap.invocations().size(); ++i) {
    const InvocationInfo& inv = snap.invocations()[i];
    if (inv.aborted()) continue;
    if (names.count(std::string(snap.str(inv.module_name))) == 0) continue;
    ++est.added;
    for (const NodeRun& run : snap.InvocationRuns(i)) {
      for (NodeId id = run.first; id < run.first + run.length; ++id) {
        if (!snap.Contains(id)) continue;
        switch (snap.node(id).role()) {
          case NodeRole::kIntermediate:
          case NodeRole::kModuleState:
            ++est.removed_lo;
            ++est.removed_hi;
            break;
          case NodeRole::kStateBase:
            // Removed only when no surviving state node still reads it.
            ++est.removed_hi;
            break;
          default:
            break;
        }
      }
    }
  }
  return est;
}

/// Upper bound for a pattern stage from the graph's label counts (the
/// stats terminal's): the tightest label conjunct caps the output
/// (role/payload conjuncts only narrow it further, which the interval
/// already expresses through lo = 0).
uint64_t PatternUpperBound(const GraphStats& stats, const PlanPattern& pattern,
                           uint64_t rows_in) {
  uint64_t hi = rows_in;
  for (const PatternAtom& atom : pattern.atoms) {
    if (atom.kind != PatternAtom::Kind::kLabel) continue;
    hi = std::min<uint64_t>(hi,
                            stats.labels[static_cast<size_t>(atom.label)]);
  }
  return hi;
}

}  // namespace

PlanCostReport EstimatePlanCost(const GraphSnapshot& snap, const Plan& plan) {
  PlanCostReport report;
  const ProvenanceGraph& g = snap.graph();
  uint64_t alive = g.num_alive();
  CostReport storage = PredictFromEmission(MeasureEmission(g),
                                           MeasureInvocations(g),
                                           /*concrete=*/true);
  report.bytes_per_node =
      alive == 0 ? 0.0
                 : static_cast<double>(storage.est_bytes) /
                       static_cast<double>(alive);

  CardInterval rows = CardInterval::Exact(alive);
  double est = static_cast<double>(alive);
  std::optional<GraphStats> stats;  // label counts, computed on first use
  for (const PlanOp& op : plan.ops) {
    switch (op.kind) {
      case PlanOpKind::kZoomOut: {
        ZoomEstimate zoom = EstimateZoom(snap, op.modules);
        rows = CardInterval::Range(
            SatSub(rows.lo, zoom.removed_hi) + zoom.added,
            SatSub(rows.hi, zoom.removed_lo) + zoom.added);
        est = std::max(0.0, est - static_cast<double>(zoom.removed_lo) +
                                static_cast<double>(zoom.added));
        break;
      }
      case PlanOpKind::kSubgraph:
      case PlanOpKind::kDeleteProp:
        // Reachability-bounded: anywhere from nothing surviving to the
        // whole input. Midpoint as the point estimate.
        rows = CardInterval::Range(0, rows.hi);
        est = est / 2.0;
        break;
      case PlanOpKind::kRestrict:
      case PlanOpKind::kFind: {
        if (!stats.has_value()) {
          stats = ComputeGraphStats(snap).ValueOr(GraphStats{});
        }
        uint64_t hi = PatternUpperBound(*stats, op.pattern, rows.hi);
        rows = CardInterval::Range(0, hi);
        est = std::min(est, static_cast<double>(hi));
        break;
      }
      case PlanOpKind::kStats:
        // Full enumeration; output cardinality is the input's.
        break;
      case PlanOpKind::kExpr:
      case PlanOpKind::kDepends:
        rows = CardInterval::Range(0, 1);
        est = 1.0;
        break;
    }
    PlanCostRow row;
    row.op = op.Canonical();
    row.rows = rows;
    row.est_rows = est;
    row.est_bytes = static_cast<uint64_t>(est * report.bytes_per_node);
    report.rows.push_back(std::move(row));
  }
  return report;
}

}  // namespace lipstick::analysis
