// Figure 7(c): subgraph query performance, Arctic stations with 24
// modules, by selectivity across topologies. As in the paper, selectivity
// drives the number of nodes/edges in the graph and hence the query time;
// topology affects the in-degree of module/workflow output nodes.

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "provenance/snapshot.h"
#include "provenance/subgraph.h"
#include "provenance/traverse.h"
#include "workflowgen/arctic.h"

using namespace lipstick;
using namespace lipstick::bench;
using namespace lipstick::workflowgen;

namespace {

struct Topo {
  const char* name;
  ArcticTopology topology;
  int fan_out;
};

}  // namespace

int main() {
  Banner("Figure 7(c)", "subgraph query time — Arctic stations, 24 modules",
         "ms per subgraph query on the last 50 GlobalMin outputs, by "
         "selectivity and topology");
  const Topo kTopos[] = {
      {"serial", ArcticTopology::kSerial, 0},
      {"parallel", ArcticTopology::kParallel, 0},
      {"dense_fo2", ArcticTopology::kDense, 2},
      {"dense_fo3", ArcticTopology::kDense, 3},
      {"dense_fo6", ArcticTopology::kDense, 6},
      {"dense_fo12", ArcticTopology::kDense, 12},
  };
  int num_exec = Scaled(100, 5);
  std::printf("%-12s %-12s %-12s %-12s %-10s %s\n", "selectivity",
              "topology", "nodes", "avg_ms", "max_ms", "max_subgraph");
  double worst_avg_ms = 0;
  size_t largest_sub = 0;
  for (Selectivity sel : {Selectivity::kAll, Selectivity::kSeason,
                          Selectivity::kMonth, Selectivity::kYear}) {
    for (const Topo& topo : kTopos) {
      ArcticConfig cfg;
      cfg.topology = topo.topology;
      cfg.fan_out = topo.fan_out;
      cfg.num_stations = 24;
      cfg.selectivity = sel;
      cfg.history_years = Scaled(40, 2);
      cfg.seed = 11;
      auto wf = ArcticWorkflow::Create(cfg);
      Check(wf.status());
      ProvenanceGraph graph;
      Check((*wf)->RunSeries(num_exec, &graph).status());
      graph.Seal();

      // Query the workflow's final outputs (the GlobalMin "o" nodes of the
      // last 50 executions): their subgraphs cover the execution's full
      // derivation, whose size is governed by the selectivity.
      std::vector<NodeId> targets;
      for (const InvocationInfo& inv : graph.invocations()) {
        if (graph.str(inv.module_name) != "arctic_out") continue;
        for (NodeId out : inv.output_nodes) {
          if (graph.Contains(out)) targets.push_back(out);
        }
      }
      if (targets.size() > 50) {
        targets.erase(targets.begin(), targets.end() - 50);
      }

      double total_ms = 0, max_ms = 0;
      size_t max_sub = 0;
      Result<GraphSnapshot> snap = GraphSnapshot::Capture(graph);
      Check(snap.status());
      for (NodeId id : targets) {
        WallTimer timer;
        auto sub = *SubgraphQuery(*snap, id);
        double ms = timer.ElapsedMillis();
        total_ms += ms;
        max_ms = std::max(max_ms, ms);
        max_sub = std::max(max_sub, sub.size());
      }
      double avg_ms = total_ms / targets.size();
      std::printf("%-12s %-12s %-12zu %-12.3f %-10.3f %zu\n",
                  SelectivityName(sel), topo.name, graph.num_alive(),
                  avg_ms, max_ms, max_sub);
      worst_avg_ms = std::max(worst_avg_ms, avg_ms);
      largest_sub = std::max(largest_sub, max_sub);
    }
  }
  std::printf(
      "\nexpected shape (paper): query time increases with decreasing\n"
      "selectivity (more nodes/edges); topology gives second-order\n"
      "differences via output-node in-degrees (dense mid fan-outs\n"
      "slowest).\n");

  // Multi-thread variant on the paper's default configuration (parallel
  // topology, month selectivity): the GlobalMin query batch served
  // concurrently over one immutable snapshot, 1 vs 4 workers.
  double batch_1t_ms = 0, batch_4t_ms = 0;
  {
    ArcticConfig cfg;
    cfg.topology = ArcticTopology::kParallel;
    cfg.num_stations = 24;
    cfg.selectivity = Selectivity::kMonth;
    cfg.history_years = Scaled(40, 2);
    cfg.seed = 11;
    auto wf = ArcticWorkflow::Create(cfg);
    Check(wf.status());
    ProvenanceGraph graph;
    Check((*wf)->RunSeries(num_exec, &graph).status());
    graph.Seal();
    std::vector<NodeId> targets;
    for (const InvocationInfo& inv : graph.invocations()) {
      if (graph.str(inv.module_name) != "arctic_out") continue;
      for (NodeId out : inv.output_nodes) {
        if (graph.Contains(out)) targets.push_back(out);
      }
    }
    if (targets.size() > 50) {
      targets.erase(targets.begin(), targets.end() - 50);
    }
    Result<GraphSnapshot> snap = GraphSnapshot::Capture(graph);
    Check(snap.status());
    auto serve = [&](const std::vector<NodeId>& batch, int threads) {
      WallTimer t;
      ParallelFor(batch.size(), threads, [&](size_t b, size_t e, int) {
        for (size_t i = b; i < e; ++i) {
          Check(SubgraphQuery(*snap, batch[i]).status());
        }
      });
      return t.ElapsedMillis();
    };
    // Repeat the query batch until a single-threaded pass takes tens of
    // milliseconds: worker startup (~0.1 ms) must stay noise relative to
    // the measurement, or small bench scales would understate the speedup.
    double probe_ms = serve(targets, 1);
    int reps = static_cast<int>(
        std::clamp(std::ceil(40.0 / std::max(probe_ms, 0.05)), 1.0, 64.0));
    std::vector<NodeId> batch;
    batch.reserve(targets.size() * static_cast<size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      batch.insert(batch.end(), targets.begin(), targets.end());
    }
    serve(batch, 4);  // warm the visited-bitmap pool
    batch_1t_ms = serve(batch, 1);
    batch_4t_ms = serve(batch, 4);
    std::printf("\nbatch of %zu subgraph queries (%d reps of %zu) over one "
                "snapshot: 1 thread %.2f ms, 4 threads %.2f ms "
                "(%.2fx, %u hw threads)\n",
                batch.size(), reps, targets.size(), batch_1t_ms, batch_4t_ms,
                batch_1t_ms / batch_4t_ms,
                std::thread::hardware_concurrency());
  }

  ResultsJson results("bench_fig7c_subgraph_arctic");
  results.Add("worst_avg_subgraph_ms", worst_avg_ms);
  results.Add("largest_subgraph_nodes", static_cast<double>(largest_sub));
  results.Add("batch_subgraph_1t_ms", batch_1t_ms);
  results.Add("batch_subgraph_4t_ms", batch_4t_ms);
  results.Add("subgraph_speedup_4t", batch_1t_ms / batch_4t_ms);
  results.Emit();
  return 0;
}
