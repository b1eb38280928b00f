// Section 5.5 (text): size of the provenance of output tuples — the
// evidence that the recorded provenance is truly fine-grained. The paper
// reports that with numCars=20000 any particular output tuple (a sold car)
// depends on 1.8%-2.2% of the state tuples (~415 tuples) and two input
// tuples, versus 100% of state and inputs under coarse-grained provenance.

#include <sstream>

#include "bench_util.h"
#include "provenance/provio.h"
#include "provenance/subgraph.h"
#include "workflowgen/dealership.h"

using namespace lipstick;
using namespace lipstick::bench;
using namespace lipstick::workflowgen;

int main() {
  Banner("Section 5.5", "fine-grained provenance size — Car dealerships",
         "fraction of state/input tuples an output (sale) depends on");
  int num_cars = Scaled(20000, 400);
  std::printf("%-8s %-14s %-16s %-12s %-12s %s\n", "run", "state_tuples",
              "state_in_deriv", "fraction", "inputs_used", "paper");
  int runs_with_sales = 0;
  for (uint64_t seed = 1; runs_with_sales < 5 && seed < 60; ++seed) {
    DealershipConfig cfg;
    cfg.num_cars = num_cars;
    cfg.num_executions = 60;
    cfg.seed = seed;
    auto wf = DealershipWorkflow::Create(cfg);
    Check(wf.status());
    ProvenanceGraph graph;
    auto stats = (*wf)->Run(&graph);
    Check(stats.status());
    if (!stats->purchased) continue;
    ++runs_with_sales;
    graph.Seal();

    NodeId sale = kInvalidNode;
    for (const InvocationInfo& inv : graph.invocations()) {
      if (graph.str(inv.module_name) == "car" && !inv.output_nodes.empty()) {
        sale = inv.output_nodes.back();
      }
    }
    auto ancestors = Ancestors(GraphSnapshot::CaptureForParents(graph), sale);
    size_t state_total = 0, state_used = 0, inputs_used = 0;
    graph.ForEachAliveNode([&](NodeId id) {
      NodeRole role = graph.node(id).role();
      if (role == NodeRole::kStateBase) {
        ++state_total;
        state_used += ancestors.count(id) ? 1 : 0;
      } else if (role == NodeRole::kWorkflowInput) {
        inputs_used += ancestors.count(id) ? 1 : 0;
      }
    });
    char frac[32];
    std::snprintf(frac, sizeof(frac), "%.2f%%",
                  100.0 * state_used / state_total);
    std::printf("%-8d %-14zu %-16zu %-12s %-12zu %s\n", runs_with_sales,
                state_total, state_used, frac, inputs_used,
                "1.8-2.2% / 2 inputs");
  }
  std::printf(
      "\nnote: the sale's derivation touches only the cars of the\n"
      "requested model at the dealerships plus the accepted round's\n"
      "request/choice inputs — a small fraction of the state, against\n"
      "100%% under the coarse-grained black-box model [23]. The exact\n"
      "fraction is ~#models^-1 x share of bidding dealerships, matching\n"
      "the paper's ~2%% at its parameters.\n");

  // In-memory footprint of the columnar storage, reported as JSON so
  // tools/check.sh and EXPERIMENTS.md can track bytes/node regressions,
  // and the size of the same graph's .pg file.
  {
    DealershipConfig cfg;
    cfg.num_cars = num_cars;
    cfg.num_executions = 60;
    cfg.seed = 1;
    auto wf = DealershipWorkflow::Create(cfg);
    Check(wf.status());
    ProvenanceGraph graph;
    Check((*wf)->Run(&graph).status());
    graph.Seal();
    ProvenanceGraph::MemoryStats mem = graph.ComputeMemoryStats();
    size_t nodes = graph.num_nodes();
    size_t edges = 0;
    graph.ForEachNode(
        [&](NodeId id) { edges += graph.ParentsOf(id).size(); });
    std::printf(
        "\nmemory_stats_json: {\"nodes\": %zu, \"edges\": %zu, "
        "\"total_bytes\": %zu, \"bytes_per_node\": %.1f, "
        "\"bytes_per_edge\": %.1f, \"column_bytes\": %zu, "
        "\"edge_arena_bytes\": %zu, \"csr_bytes\": %zu, "
        "\"value_bytes\": %zu, \"interner_bytes\": %zu, "
        "\"invocation_bytes\": %zu}\n",
        nodes, edges, mem.total(), double(mem.total()) / double(nodes),
        double(mem.total()) / double(edges), mem.column_bytes,
        mem.edge_arena_bytes, mem.csr_bytes, mem.value_bytes,
        mem.interner_bytes, mem.invocation_bytes);

    std::ostringstream file;
    Check(SaveGraph(graph, file));
    const size_t file_bytes = file.str().size();
    std::printf("graph file: %zu bytes, %.2f bytes/node\n", file_bytes,
                double(file_bytes) / double(nodes));

    ResultsJson results("bench_prov_size");
    results.Add("nodes", static_cast<double>(nodes));
    results.Add("file_bytes_per_node", double(file_bytes) / double(nodes));
    results.Add("total_bytes", static_cast<double>(mem.total()));
    results.Add("memory_bytes_per_node",
                double(mem.total()) / double(nodes));
    results.Add("csr_bytes", static_cast<double>(mem.csr_bytes));
    results.Emit();
  }
  return 0;
}
