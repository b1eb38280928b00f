// Section 5.6 "Delete": deletion-propagation query performance. The paper
// selects nodes as in the subgraph benchmark and reports that deletion
// queries traverse only descendants and therefore run in under a
// millisecond in most cases (at most ~10-13 ms per node).

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "provenance/deletion.h"
#include "workflowgen/dealership.h"

using namespace lipstick;
using namespace lipstick::bench;
using namespace lipstick::workflowgen;

int main() {
  Banner("Section 5.6 (Delete)", "deletion propagation time — dealerships",
         "per-node deletion propagation over the 50 highest-fanout nodes");
  int num_cars = Scaled(20000, 400);
  DealershipConfig cfg;
  cfg.num_cars = num_cars;
  cfg.num_executions = Scaled(100, 5);
  cfg.seed = 888;
  cfg.accept_probability = 0;
  auto wf = DealershipWorkflow::Create(cfg);
  Check(wf.status());
  ProvenanceGraph graph;
  for (int e = 1; e <= cfg.num_executions; ++e) {
    Check((*wf)->ExecuteOnce(e, &graph).status());
  }
  graph.Seal();
  std::printf("graph: %zu nodes, %zu edges\n\n", graph.num_alive(),
              graph.num_edges());

  std::vector<std::pair<size_t, NodeId>> fanout;
  graph.ForEachAliveNode([&](NodeId id) {
    fanout.emplace_back(graph.ChildrenOf(id).size(), id);
  });
  std::sort(fanout.rbegin(), fanout.rend());
  if (fanout.size() > 50) fanout.resize(50);

  Result<GraphSnapshot> snap = GraphSnapshot::Capture(graph);
  Check(snap.status());
  double total_ms = 0, max_ms = 0;
  size_t under_1ms = 0, max_deleted = 0;
  for (const auto& [children, id] : fanout) {
    WallTimer timer;
    auto deleted = *ComputeDeletionSet(*snap, {id});
    double ms = timer.ElapsedMillis();
    total_ms += ms;
    max_ms = std::max(max_ms, ms);
    if (ms < 1.0) ++under_1ms;
    max_deleted = std::max(max_deleted, deleted.size());
  }
  std::printf("queries:            %zu\n", fanout.size());
  std::printf("avg time:           %.3f ms\n", total_ms / fanout.size());
  std::printf("max time:           %.3f ms\n", max_ms);
  std::printf("under 1 ms:         %zu / %zu\n", under_1ms, fanout.size());
  std::printf("largest delete set: %zu nodes\n", max_deleted);
  std::printf(
      "\nexpected shape (paper): deletion traverses only descendants, so\n"
      "most queries complete in <1 ms, max ~10-13 ms.\n");

  ResultsJson results("bench_delete");
  results.Add("queries", static_cast<double>(fanout.size()));
  results.Add("avg_delete_ms", total_ms / fanout.size());
  results.Add("max_delete_ms", max_ms);
  results.Emit();
  return 0;
}
