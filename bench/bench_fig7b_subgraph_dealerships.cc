// Figure 7(b): subgraph query performance, Car dealerships. A subgraph
// query returns a node's ancestors, descendants, and siblings of
// descendants. Following the paper's methodology, the 50 nodes with the
// highest number of children are queried and the time is reported against
// the size of the resulting subgraph.

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "provenance/snapshot.h"
#include "provenance/subgraph.h"
#include "provenance/traverse.h"
#include "workflowgen/dealership.h"

using namespace lipstick;
using namespace lipstick::bench;
using namespace lipstick::workflowgen;

int main() {
  Banner("Figure 7(b)", "subgraph query time — Car dealerships",
         "ms per query vs subgraph result size; 50 highest-fanout nodes; "
         "numCars=20000");
  int num_cars = Scaled(20000, 400);
  DealershipConfig cfg;
  cfg.num_cars = num_cars;
  cfg.num_executions = Scaled(100, 5);
  cfg.seed = 777;
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

  // Pick the 50 nodes with the most children.
  std::vector<std::pair<size_t, NodeId>> fanout;
  graph.ForEachAliveNode([&](NodeId id) {
    fanout.emplace_back(graph.ChildrenOf(id).size(), id);
  });
  std::sort(fanout.rbegin(), fanout.rend());
  if (fanout.size() > 50) fanout.resize(50);

  std::printf("%-14s %-14s %-12s %s\n", "node_children", "subgraph_nodes",
              "time_ms", "node_label");
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(graph);
  Check(snap.status());
  std::vector<std::pair<size_t, std::pair<double, NodeId>>> rows;
  for (const auto& [children, id] : fanout) {
    WallTimer timer;
    auto sub = *SubgraphQuery(*snap, id);
    double ms = timer.ElapsedMillis();
    rows.push_back({sub.size(), {ms, id}});
  }
  std::sort(rows.begin(), rows.end());
  double total_ms = 0, max_ms = 0;
  for (const auto& [size, rest] : rows) {
    const auto& [ms, id] = rest;
    std::printf("%-14zu %-14zu %-12.3f %s\n",
                graph.ChildrenOf(id).size(), size, ms,
                NodeLabelToString(graph.node(id).label()));
    total_ms += ms;
    max_ms = std::max(max_ms, ms);
  }
  std::printf(
      "\nexpected shape (paper): time ~linear in subgraph size, sub-second\n"
      "even for subgraphs of tens of thousands of nodes.\n");

  // Multi-thread variant: the same query batch served concurrently over
  // one immutable snapshot (the CLI --batch scenario), 1 vs 4 workers.
  std::vector<NodeId> ids;
  for (const auto& [children, id] : fanout) ids.push_back(id);
  // Repeat the 50-query batch until a single-threaded pass takes tens of
  // milliseconds: worker startup (~0.1 ms) must stay noise relative to the
  // measurement, or small bench scales would understate the speedup.
  int reps = static_cast<int>(
      std::clamp(std::ceil(40.0 / std::max(total_ms, 0.05)), 1.0, 64.0));
  std::vector<NodeId> batch;
  batch.reserve(ids.size() * static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    batch.insert(batch.end(), ids.begin(), ids.end());
  }
  auto serve = [&](int threads) {
    WallTimer t;
    ParallelFor(batch.size(), threads, [&](size_t b, size_t e, int) {
      for (size_t i = b; i < e; ++i) {
        Check(SubgraphQuery(*snap, batch[i]).status());
      }
    });
    return t.ElapsedMillis();
  };
  serve(4);  // warm the visited-bitmap pool
  double batch_1t_ms = serve(1);
  double batch_4t_ms = serve(4);
  std::printf("\nbatch of %zu subgraph queries (%d reps of %zu) over one "
              "snapshot: 1 thread %.2f ms, 4 threads %.2f ms "
              "(%.2fx, %u hw threads)\n",
              batch.size(), reps, ids.size(), batch_1t_ms, batch_4t_ms,
              batch_1t_ms / batch_4t_ms,
              std::thread::hardware_concurrency());

  ResultsJson results("bench_fig7b_subgraph_dealerships");
  results.Add("queries", static_cast<double>(rows.size()));
  results.Add("avg_subgraph_ms", total_ms / rows.size());
  results.Add("max_subgraph_ms", max_ms);
  results.Add("batch_subgraph_1t_ms", batch_1t_ms);
  results.Add("batch_subgraph_4t_ms", batch_4t_ms);
  results.Add("subgraph_speedup_4t", batch_1t_ms / batch_4t_ms);
  results.Emit();
  return 0;
}
