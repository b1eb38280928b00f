// Arctic-stations example (Section 5.2): a dense network of meteorological
// stations computes the lowest air temperature observed under a query
// selectivity; minima flow along the station network to the output module.
//
// Demonstrates: workflow families with configurable topology, module state
// that grows with every execution (new measurements), and provenance-size
// behaviour under different selectivities.

#include <cstdio>

#include "provenance/subgraph.h"
#include "workflowgen/arctic.h"

using namespace lipstick;
using namespace lipstick::workflowgen;

namespace {

void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  ArcticConfig config;
  config.topology = ArcticTopology::kDense;
  config.num_stations = 9;
  config.fan_out = 3;
  config.selectivity = Selectivity::kMonth;
  config.history_years = 10;
  config.seed = 42;

  auto wf = ArcticWorkflow::Create(config);
  Check(wf.status());
  std::printf("built %s workflow: %zu nodes, %zu edges\n",
              ArcticTopologyName(config.topology),
              (*wf)->workflow().nodes().size(),
              (*wf)->workflow().edges().size());

  // Run six monthly queries with provenance tracking.
  ProvenanceGraph graph;
  for (int e = 0; e < 6; ++e) {
    auto outputs = (*wf)->ExecuteOnce(&graph);
    Check(outputs.status());
    const Relation& result = outputs->at("out").at("GlobalMin");
    std::printf("month %d: global minimum temperature %.2f C\n", e + 1,
                result.bag.at(0).tuple.at(0).AsDouble());
  }
  graph.Seal();
  std::printf("\nprovenance graph after 6 executions: %zu nodes, %zu edges\n",
              graph.num_alive(), graph.num_edges());

  // How fine-grained is the provenance? The global minimum's ancestry
  // covers only the observations matching the selectivity, not the whole
  // 120-month history of every station.
  NodeId global_min = kInvalidNode;
  for (const InvocationInfo& inv : graph.invocations()) {
    if (graph.str(inv.module_name) == "arctic_out" &&
        !inv.output_nodes.empty()) {
      global_min = inv.output_nodes.back();
    }
  }
  auto snap = GraphSnapshot::Capture(graph);
  Check(snap.status());
  auto ancestors = Ancestors(*snap, global_min);
  size_t used = 0, total = 0;
  graph.ForEachAliveNode([&](NodeId id) {
    if (graph.node(id).role() != NodeRole::kStateBase) return;
    ++total;
    used += ancestors.count(id) ? 1 : 0;
  });
  std::printf(
      "the last global minimum depends on %zu of %zu stored observations "
      "(%.1f%%; selectivity=%s)\n",
      used, total, 100.0 * used / total,
      SelectivityName(config.selectivity));

  // Compare provenance sizes across selectivities (Figure 6's effect).
  std::printf("\nprovenance graph size by selectivity (3 executions):\n");
  for (Selectivity sel : {Selectivity::kYear, Selectivity::kMonth,
                          Selectivity::kSeason, Selectivity::kAll}) {
    ArcticConfig c = config;
    c.selectivity = sel;
    auto wf2 = ArcticWorkflow::Create(c);
    Check(wf2.status());
    ProvenanceGraph g2;
    Check((*wf2)->RunSeries(3, &g2).status());
    std::printf("  %-7s %zu nodes\n", SelectivityName(sel), g2.num_nodes());
  }
  return 0;
}
