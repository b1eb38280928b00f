// The paper's running example (Figure 1 / Examples 2.1-2.3): a buyer
// requests bids for a car model from four dealerships; each dealership
// consults its inventory, sale history, and prior bids; an aggregator picks
// the minimum bid; on acceptance the winning dealership records the sale.
//
// This example runs the full workflow with provenance tracking and then
// answers the Introduction's analytics questions:
//   "Which cars affected the computation of this winning bid?"
//   "Was the sale affected by the presence of some other car?"

#include <cstdio>
#include <string>

#include "provenance/deletion.h"
#include "provenance/subgraph.h"
#include "provenance/zoom.h"
#include "workflowgen/dealership.h"

using namespace lipstick;
using workflowgen::DealershipConfig;
using workflowgen::DealershipWorkflow;

namespace {

void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  DealershipConfig config;
  config.num_cars = 240;       // 60 cars per dealership
  config.num_executions = 25;  // bid rounds before the buyer gives up
  config.seed = 3;

  auto wf = DealershipWorkflow::Create(config);
  Check(wf.status());
  std::printf("buyer wants a %s\n", (*wf)->buyer_model().c_str());

  ProvenanceGraph graph;
  auto stats = (*wf)->Run(&graph);
  Check(stats.status());
  std::printf("run finished after %d execution(s); best bid $%.0f; %s\n",
              stats->executions, stats->best_bid,
              stats->purchased ? "car purchased" : "no purchase");
  graph.Seal();
  std::printf("provenance graph: %zu nodes, %zu edges, %zu invocations\n\n",
              graph.num_alive(), graph.num_edges(),
              graph.invocations().size());

  // --- Which cars affected the winning bid? ---
  // The sold-car output of the car module is the final data product; its
  // ancestor set contains exactly the state tuples (cars, bids) that the
  // fine-grained derivation touched.
  NodeId sale = kInvalidNode;
  for (const InvocationInfo& inv : graph.invocations()) {
    if (graph.str(inv.module_name) == "car" && !inv.output_nodes.empty()) {
      sale = inv.output_nodes.back();
    }
  }
  if (sale == kInvalidNode) {
    std::printf("no sale happened; nothing to analyze\n");
    return 0;
  }
  // Queries read an immutable snapshot; no query mutates the graph.
  auto snap = GraphSnapshot::Capture(graph);
  Check(snap.status());
  auto ancestors = Ancestors(*snap, sale);
  size_t cars_used = 0, state_total = 0;
  graph.ForEachAliveNode([&](NodeId id) {
    if (graph.node(id).role() != NodeRole::kStateBase) return;
    ++state_total;
    if (ancestors.count(id)) ++cars_used;
  });
  std::printf("the sale derives from %zu of %zu state tuples (%.1f%%)\n",
              cars_used, state_total, 100.0 * cars_used / state_total);
  std::printf("coarse-grained provenance would have claimed 100%%\n\n");

  // --- Was the sale affected by a specific other car? ---
  // Take one state tuple inside and one outside the ancestry and ask the
  // dependency query of Section 4.3.
  NodeId used = kInvalidNode, unused = kInvalidNode;
  graph.ForEachAliveNode([&](NodeId id) {
    if (graph.node(id).role() != NodeRole::kStateBase) return;
    if (ancestors.count(id) && used == kInvalidNode) used = id;
    if (!ancestors.count(id) && unused == kInvalidNode) unused = id;
  });
  if (used != kInvalidNode) {
    std::printf("car %s entered the sale's derivation: yes\n",
                std::string(graph.node(used).payload()).c_str());
    // Existence dependency is stricter: the sale tuple survives the
    // deletion of any single car because the dealership's aggregates can
    // be re-derived from the remaining inventory (paper Example 4.3).
    std::printf("  ... but the sale's existence depends on it: %s\n",
                *DependsOn(*snap, sale, used) ? "yes" : "no");
  }
  if (unused != kInvalidNode) {
    std::printf("car %s entered the sale's derivation: no\n",
                std::string(graph.node(unused).payload()).c_str());
  }
  // The accepted bid request, in contrast, is existence-critical
  // (Example 4.4): without it, the whole purchase derivation vanishes.
  NodeId last_request = kInvalidNode;
  graph.ForEachAliveNode([&](NodeId id) {
    if (graph.node(id).role() == NodeRole::kWorkflowInput &&
        graph.node(id).payload().find("BuyerRequests") !=
            std::string_view::npos) {
      last_request = id;  // keep the latest (the accepted round's request)
    }
  });
  if (last_request != kInvalidNode) {
    std::printf("the sale's existence depends on the accepted request: %s\n",
                *DependsOn(*snap, sale, last_request) ? "yes" : "no");
  }

  // --- Flexible granularity ---
  // Zoom out of everything except the aggregator: an analyst studying how
  // the best bid was computed keeps Magg fine-grained and views the rest
  // coarsely.
  Zoomer zoomer(*snap);
  Check(zoomer.ZoomOut({"dealer", "request", "choice", "and", "xor", "car"}));
  std::printf(
      "\nzoomed out of everything but the aggregator: %zu nodes remain\n",
      zoomer.view().num_visible());
  Check(zoomer.ZoomIn({"dealer"}));
  std::printf("zoomed back into the dealerships: %zu nodes\n",
              zoomer.view().num_visible());
  return 0;
}
