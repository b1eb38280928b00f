// What-if analytics via deletion propagation (Section 4.2): "What would
// have been the bid by dealer 1 in response to a particular request if car
// C2 were not present in the dealer's lot?"
//
// This example reproduces Figure 3's scenario directly on a tracked
// dealership bid computation: delete a car's provenance node, propagate,
// and observe which parts of the derivation survive. It also demonstrates
// saving the graph to disk and querying it after reloading — the paper's
// Provenance Tracker / Query Processor architecture.

#include <cstdio>

#include "provenance/deletion.h"
#include "provenance/provio.h"
#include "provenance/semiring.h"
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
  config.num_cars = 48;  // small lot so the printout stays readable
  config.num_executions = 1;
  config.seed = 21;
  auto wf = DealershipWorkflow::Create(config);
  Check(wf.status());

  ProvenanceGraph graph;
  auto outputs = (*wf)->ExecuteOnce(1, &graph);
  Check(outputs.status());
  const Relation& best = outputs->at("agg").at("BestBid");
  if (best.bag.empty()) {
    std::printf("no dealer had a %s in stock\n", (*wf)->buyer_model().c_str());
    return 0;
  }
  NodeId bid = best.bag.at(0).annot;
  std::printf("best bid for the %s: $%.0f\n", (*wf)->buyer_model().c_str(),
              best.bag.at(0).tuple.at(3).AsDouble());

  // The Tracker -> file -> Query Processor handoff (Section 5.1).
  std::string path = "/tmp/lipstick_whatif_graph.txt";
  Check(SaveGraphToFile(graph, path));
  auto loaded = LoadGraphFromFile(path);
  Check(loaded.status());
  loaded->Seal();
  std::printf("graph saved and reloaded: %zu nodes\n\n",
              loaded->num_alive());

  // Enumerate the cars whose tokens entered the graph and test, car by
  // car, whether removing that one car would remove the winning bid.
  auto snap = GraphSnapshot::Capture(*loaded);
  Check(snap.status());
  int survives = 0, kills = 0, independent = 0;
  loaded->ForEachAliveNode([&](NodeId id) {
    NodeView n = loaded->node(id);
    if (n.role() != NodeRole::kStateBase ||
        n.payload().find(".Cars[") == std::string_view::npos) {
      return;
    }
    if (!*DependsOn(*snap, bid, id)) {
      // Most cars: the bid does not depend on them at all, or the COUNT
      // aggregate survives on the remaining cars (paper Example 4.3).
      bool in_derivation = !loaded->ChildrenOf(id).empty();
      in_derivation ? ++survives : ++independent;
    } else {
      ++kills;
    }
  });
  std::printf("what-if over every car in every lot:\n");
  std::printf("  %3d cars never entered the bid derivation\n", independent);
  std::printf(
      "  %3d cars contributed, but the bid survives their deletion\n",
      survives);
  std::printf("  %3d cars are essential to the bid\n", kills);

  // Deleting the bid request itself erases the derivation (Example 4.4).
  NodeId request = kInvalidNode;
  loaded->ForEachAliveNode([&](NodeId id) {
    if (request == kInvalidNode &&
        loaded->node(id).role() == NodeRole::kWorkflowInput) {
      request = id;
    }
  });
  size_t before = loaded->num_alive();
  auto dead = *ComputeDeletionSet(*snap, {request});
  std::printf(
      "\ndeleting the bid request would remove %zu of %zu nodes "
      "(everything except state tuples and module invocations)\n",
      dead.size(), before);
  std::printf("bid removed too: %s\n", dead.count(bid) ? "yes" : "no");
  return 0;
}
