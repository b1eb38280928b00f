// Figure 7(a): ZoomOut performance, Car dealerships, as a function of
// provenance graph size, for the `dealer` and `aggregate` modules (dealer
// has ~5x more invocations per execution). ZoomIn timings are reported as
// well (paper text: ZoomIn is ~3x faster than ZoomOut). Both run on a
// Zoomer over one snapshot: ZoomOut composes the collapse onto its view,
// and ZoomIn rebuilds the view from the identity view, re-applying the
// zoom groups that remain (none here). On the largest graph it also times
// the stats terminal alone and composed after `zoomout aggregate`, through
// the plan engine: a composed plan should cost about the sum of its stages.

#include <algorithm>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "provenance/exec.h"
#include "provenance/optimizer.h"
#include "provenance/plan.h"
#include "provenance/snapshot.h"
#include "provenance/traverse.h"
#include "provenance/view.h"
#include "provenance/zoom.h"
#include "workflowgen/dealership.h"

using namespace lipstick;
using namespace lipstick::bench;
using namespace lipstick::workflowgen;

int main() {
  Banner("Figure 7(a)", "ZoomOut / ZoomIn time — Car dealerships",
         "milliseconds per zoom operation vs provenance graph size; "
         "numCars=20000");
  int num_cars = Scaled(20000, 400);
  std::printf("%-10s %-12s %-14s %-14s %-14s %-14s %s\n", "numExec",
              "nodes", "zoomout_dlr", "zoomin_dlr", "zoomout_agg",
              "zoomin_agg", "(ms)");
  double last_ms[4] = {0, 0, 0, 0};
  size_t last_nodes = 0;
  double view_1t_ms = 0, view_4t_ms = 0;
  double zoom_agg_summary_ms = 0, stats_ms = 0, composed_stats_ms = 0;
  double composed_stats_ratio = 0;
  for (int num_exec : {10, 25, 50, 100, 150}) {
    DealershipConfig cfg;
    cfg.num_cars = num_cars;
    cfg.num_executions = num_exec;
    cfg.seed = 555;
    cfg.accept_probability = 0;
    auto wf = DealershipWorkflow::Create(cfg);
    Check(wf.status());
    ProvenanceGraph graph;
    for (int e = 1; e <= num_exec; ++e) {
      Check((*wf)->ExecuteOnce(e, &graph).status());
    }
    graph.Seal();
    size_t nodes = graph.num_nodes();
    Result<GraphSnapshot> snap = GraphSnapshot::Capture(graph);
    Check(snap.status());

    double ms[4];
    int idx = 0;
    for (const char* module : {"dealer", "aggregate"}) {
      Zoomer zoomer(*snap);
      WallTimer t_out;
      Check(zoomer.ZoomOut({module}));
      ms[idx++] = t_out.ElapsedMillis();
      WallTimer t_in;
      Check(zoomer.ZoomIn({module}));
      ms[idx++] = t_in.ElapsedMillis();
    }
    std::printf("%-10d %-12zu %-14.2f %-14.2f %-14.2f %-14.2f\n", num_exec,
                nodes, ms[0], ms[1], ms[2], ms[3]);
    for (int i = 0; i < 4; ++i) last_ms[i] = ms[i];
    last_nodes = nodes;
    if (num_exec == 150) {
      // Multi-thread variant on the largest graph: lazy zoom views served
      // from one shared snapshot, batch of kViews constructions, 1 vs 4
      // worker threads.
      constexpr size_t kViews = 8;
      auto serve = [&](int threads) {
        WallTimer t;
        ParallelFor(kViews, threads, [&](size_t b, size_t e, int) {
          for (size_t i = b; i < e; ++i) {
            GraphView view = GraphView::MakeIdentity(*snap);
            Check(view.ApplyZoomOut({"dealer"}));
          }
        });
        return t.ElapsedMillis();
      };
      serve(4);  // warm the visited-bitmap pool
      view_1t_ms = serve(1);
      view_4t_ms = serve(4);
      std::printf("\nzoom views (batch of %zu over one snapshot): "
                  "1 thread %.2f ms, 4 threads %.2f ms "
                  "(%.2fx, %u hw threads)\n",
                  kViews, view_1t_ms, view_4t_ms, view_1t_ms / view_4t_ms,
                  std::thread::hardware_concurrency());
      // The three plans through ExecutePlan, rendering included, run
      // back to back in each of 11 rounds. Each time is its best round;
      // the ratio is the median of the rounds' own ratios, so a host that
      // changes speed mid-run moves all three terms of a round together.
      const char* queries[3] = {"zoomout aggregate", "stats",
                                "zoomout aggregate | stats"};
      std::vector<OptimizedPlan> plans;
      for (const char* query : queries) {
        Result<Plan> plan = ParsePlan(query, {});
        Check(plan.status());
        plans.push_back(OptimizePlan(*plan));
      }
      double best[3] = {0, 0, 0};
      std::vector<double> ratios;
      for (int round = 0; round < 11; ++round) {
        double ms[3];
        for (int k = 0; k < 3; ++k) {
          WallTimer t;
          Check(ExecutePlan(*snap, plans[k]).status());
          ms[k] = t.ElapsedMillis();
          best[k] = round == 0 ? ms[k] : std::min(best[k], ms[k]);
        }
        ratios.push_back(ms[2] / (ms[0] + ms[1]));
      }
      std::sort(ratios.begin(), ratios.end());
      zoom_agg_summary_ms = best[0];
      stats_ms = best[1];
      composed_stats_ms = best[2];
      composed_stats_ratio = ratios[ratios.size() / 2];
      std::printf("stats %.2f ms; zoomout aggregate %.2f ms; "
                  "zoomout aggregate | stats %.2f ms (%.2fx the sum)\n",
                  stats_ms, zoom_agg_summary_ms, composed_stats_ms,
                  composed_stats_ratio);
    }
  }
  std::printf(
      "\nexpected shape (paper): both operations linear in graph size;\n"
      "zooming the aggregate module is faster than the dealer module\n"
      "(fewer invocations); ZoomIn faster than ZoomOut.\n");

  ResultsJson results("bench_fig7a_zoom");
  results.Add("nodes", static_cast<double>(last_nodes));
  results.Add("zoomout_dealer_ms", last_ms[0]);
  results.Add("zoomin_dealer_ms", last_ms[1]);
  results.Add("zoomout_aggregate_ms", last_ms[2]);
  results.Add("zoomin_aggregate_ms", last_ms[3]);
  results.Add("zoomout_view_1t_ms", view_1t_ms);
  results.Add("zoomout_view_4t_ms", view_4t_ms);
  results.Add("zoom_view_speedup_4t", view_1t_ms / view_4t_ms);
  results.Add("stats_ms", stats_ms);
  results.Add("zoomout_aggregate_stats_ms", composed_stats_ms);
  results.Add("composed_stats_ratio", composed_stats_ratio);
  results.Emit();
  return 0;
}
