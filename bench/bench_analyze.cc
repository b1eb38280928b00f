// Static-analysis performance: wall time of the dataflow engine on the
// generator workflows (interval-domain fixpoint, the `lipstick analyze`
// default) and of the concrete domain (the real executor over sample
// inputs) as sample-input volume grows. The analyzer is meant to be cheap
// enough to run on every lint pass, so the interval fixpoint over a full
// generator workflow must stay in the low milliseconds; the concrete
// domain is allowed to scale with the sample (it runs the real executor)
// but must stay linear.

#include <algorithm>

#include "analysis/cost_model.h"
#include "analysis/dataflow.h"
#include "bench_util.h"
#include "workflow/wfdsl.h"
#include "workflowgen/arctic.h"
#include "workflowgen/dealership.h"

using namespace lipstick;
using namespace lipstick::bench;
using namespace lipstick::workflowgen;

namespace {

constexpr int kReps = 5;

/// FILTER / JOIN / GROUP / UNION pipeline whose concrete run has to
/// chew through the whole sample (join + state accumulation).
const char* kPipelineWf =
    "module src {\n"
    "  input Ext(k: int, v: int);\n"
    "  output Out(k: int, v: int);\n"
    "  qout {\n"
    "    Out = FOREACH Ext GENERATE k, v;\n"
    "  }\n"
    "}\n"
    "module proc {\n"
    "  input In(k: int, v: int);\n"
    "  state Hist(k: int, v: int);\n"
    "  output Count(n: int);\n"
    "  qstate {\n"
    "    Hist = UNION Hist, In;\n"
    "  }\n"
    "  qout {\n"
    "    Big = FILTER In BY v > 2;\n"
    "    J = JOIN Big BY k, Hist BY k;\n"
    "    G = GROUP J ALL;\n"
    "    Count = FOREACH G GENERATE COUNT(J) AS n;\n"
    "  }\n"
    "}\n"
    "node src = src;\n"
    "node proc = proc;\n"
    "edge src -> proc : Out -> In;\n";

/// Min-of-kReps analysis wall time in milliseconds.
double AnalyzeMs(const Workflow& wf, const analysis::AnalyzeOptions& opt) {
  double best = 1e30;
  for (int r = 0; r < kReps; ++r) {
    WallTimer timer;
    Result<analysis::WorkflowFacts> facts =
        analysis::AnalyzeDataflow(wf, opt, nullptr);
    Check(facts);
    analysis::PredictCost(*facts);
    best = std::min(best, timer.ElapsedSeconds() * 1e3);
  }
  return best;
}

}  // namespace

int main() {
  Banner("Static analysis cost",
         "dataflow fixpoint + cost model wall time",
         "interval domain on generator workflows; concrete replay vs "
         "sample size");

  // 1. Interval domain over the generator workflows (no sample data):
  // the path `lipstick analyze <wf>` and the lint gate take.
  DealershipConfig dcfg;
  dcfg.num_dealers = 4;
  dcfg.num_cars = 100;
  dcfg.seed = 7;
  auto dealers = DealershipWorkflow::Create(dcfg);
  Check(dealers.status());
  analysis::AnalyzeOptions dopt;
  dopt.executions = 3;
  dopt.udfs = &(*dealers)->udfs();
  double dealership_ms = AnalyzeMs((*dealers)->workflow(), dopt);
  std::printf("%-40s %8.3f ms\n", "interval: dealerships (4 dealers, x3)",
              dealership_ms);

  ArcticConfig acfg;
  acfg.topology = ArcticTopology::kDense;
  acfg.num_stations = Scaled(16, 4);
  acfg.seed = 7;
  auto arctic = ArcticWorkflow::Create(acfg);
  Check(arctic.status());
  analysis::AnalyzeOptions aopt;
  aopt.executions = 2;
  aopt.udfs = &(*arctic)->udfs();
  double arctic_ms = AnalyzeMs((*arctic)->workflow(), aopt);
  std::printf("%-40s %8.3f ms  (%d stations)\n",
              "interval: arctic dense, x2", arctic_ms, acfg.num_stations);

  // 2. Concrete domain: analysis time grows with the sample it has to
  // execute; report absolute time and per-row rate at bench scale.
  Result<Workflow> pipeline = ParseWorkflow(kPipelineWf);
  Check(pipeline);
  int rows = Scaled(20000, 400);
  Bag sample;
  sample.Reserve(rows);
  for (int i = 0; i < rows; ++i) {
    sample.Add(Tuple({Value::Int(i % 97), Value::Int(i % 7)}));
  }
  analysis::AnalyzeOptions copt;
  copt.executions = 2;
  copt.inputs["src"]["Ext"] = sample;
  double concrete_ms = AnalyzeMs(*pipeline, copt);
  std::printf("%-40s %8.3f ms  (%d rows/exec)\n",
              "concrete: filter-join-group pipeline", concrete_ms, rows);
  double us_per_row = concrete_ms * 1e3 / (rows * copt.executions);
  std::printf("%-40s %8.3f us/row\n\n", "concrete replay rate", us_per_row);

  std::printf(
      "expected: the interval fixpoint is independent of data volume and\n"
      "stays in single-digit milliseconds even on the dense arctic\n"
      "topology; concrete replay scales linearly with sample rows (it\n"
      "runs the real interpreter against a scratch graph).\n");

  ResultsJson results("bench_analyze");
  results.Add("interval_dealership_ms", dealership_ms);
  results.Add("interval_arctic_dense_ms", arctic_ms);
  results.Add("concrete_pipeline_ms", concrete_ms);
  results.Add("concrete_us_per_row", us_per_row);
  results.Add("concrete_rows", rows);
  results.Emit();
  return 0;
}
