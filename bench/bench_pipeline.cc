// Pipeline execution: fused composed-view plans vs materializing a
// standalone graph between every stage. Workload: the paper's dealership
// provenance and the canonical three-stage pipeline
// "zoomout dealer | subgraph <output> | stats" — the shape Figure 7's
// zoom/subgraph operators take when chained. Reports p50/p99 per strategy
// plus the warm composed-view-cache variant (prefix reuse).

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"
#include "provenance/exec.h"
#include "provenance/optimizer.h"
#include "provenance/plan.h"
#include "provenance/query.h"
#include "provenance/snapshot.h"
#include "workflowgen/dealership.h"

using namespace lipstick;
using namespace lipstick::bench;
using namespace lipstick::workflowgen;

namespace {

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main() {
  Banner("Pipeline plans", "fused composed view vs per-stage materialization",
         "zoomout dealer | subgraph <agg output> | stats; numCars=20000, "
         "50 executions");
  DealershipConfig cfg;
  cfg.num_cars = Scaled(20000, 400);
  cfg.num_executions = Scaled(50, 3);
  cfg.seed = 555;
  cfg.accept_probability = 0;
  auto wf = DealershipWorkflow::Create(cfg);
  Check(wf.status());
  ProvenanceGraph graph;
  Check((*wf)->Run(&graph).status());
  graph.Seal();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(graph);
  Check(snap.status());

  auto outputs = FindNodes(*snap, And(ByRole(NodeRole::kModuleOutput),
                                      ByModule(graph, "aggregate")));
  if (outputs.empty()) {
    std::fprintf(stderr, "bench error: no aggregate outputs\n");
    return 1;
  }
  const std::string query =
      StrCat("zoomout dealer | subgraph ", outputs.front(), " | stats");
  Result<Plan> plan = ParsePlan(query, {});
  Check(plan.status());
  OptimizedPlan optimized = OptimizePlan(*plan);

  const int reps = Scaled(40, 5);
  std::vector<double> fused_ms, naive_ms, cached_ms;
  std::string fused_out, naive_out;

  // Warm the visited-bitmap pool so the first rep is not an outlier.
  Check(ExecutePlan(*snap, optimized));

  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    Result<std::string> out = ExecutePlan(*snap, optimized);
    Check(out.status());
    fused_ms.push_back(t.ElapsedMillis());
    fused_out = *out;
  }
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    Result<std::string> out = ExecutePlanNaive(*snap, *plan);
    Check(out.status());
    naive_ms.push_back(t.ElapsedMillis());
    naive_out = *out;
  }
  // Warm prefix cache: every rep after the first clones the cached
  // composed view instead of recomputing the zoomout + subgraph stages.
  PlanViewCache cache(8);
  ExecOptions cached_opts;
  cached_opts.cache = &cache;
  cached_opts.scope = "bench";
  Check(ExecutePlan(*snap, optimized, cached_opts));
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    Result<std::string> out = ExecutePlan(*snap, optimized, cached_opts);
    Check(out.status());
    cached_ms.push_back(t.ElapsedMillis());
  }

  if (fused_out != naive_out) {
    std::fprintf(stderr, "bench error: fused/naive outputs differ\n");
    return 1;
  }

  std::sort(fused_ms.begin(), fused_ms.end());
  std::sort(naive_ms.begin(), naive_ms.end());
  std::sort(cached_ms.begin(), cached_ms.end());
  double fused_p50 = Percentile(fused_ms, 0.50);
  double naive_p50 = Percentile(naive_ms, 0.50);
  double cached_p50 = Percentile(cached_ms, 0.50);

  std::printf("%-14s %-10s %-10s %-10s\n", "strategy", "p50_ms", "p99_ms",
              "reps");
  std::printf("%-14s %-10.3f %-10.3f %-10d\n", "fused", fused_p50,
              Percentile(fused_ms, 0.99), reps);
  std::printf("%-14s %-10.3f %-10.3f %-10d\n", "materialized", naive_p50,
              Percentile(naive_ms, 0.99), reps);
  std::printf("%-14s %-10.3f %-10.3f %-10d\n", "fused+cache", cached_p50,
              Percentile(cached_ms, 0.99), reps);
  std::printf("\nfused speedup over per-stage materialization: %.2fx "
              "(cache-warm: %.2fx); outputs byte-identical\n",
              naive_p50 / fused_p50, naive_p50 / cached_p50);

  ResultsJson results("bench_pipeline");
  results.Add("nodes", static_cast<double>(graph.num_nodes()));
  results.Add("fused_p50_ms", fused_p50);
  results.Add("materialized_p50_ms", naive_p50);
  results.Add("cached_p50_ms", cached_p50);
  results.Add("fused_speedup", naive_p50 / fused_p50);
  results.Add("cached_speedup", naive_p50 / cached_p50);
  results.Emit();
  return 0;
}
