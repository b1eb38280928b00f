// Quickstart: build a tiny two-module workflow, execute it with
// fine-grained provenance tracking, and ask provenance questions.
//
// The workflow:   source ──Out→In── stats
// `stats` keeps every number it ever saw in its state and reports the
// running sum, so repeated executions demonstrate module state.

#include <cstdio>

#include "provenance/deletion.h"
#include "provenance/semiring.h"
#include "provenance/subgraph.h"
#include "provenance/zoom.h"
#include "workflow/executor.h"
#include "workflow/module.h"
#include "workflow/workflow.h"

using namespace lipstick;

namespace {

SchemaPtr NumSchema() {
  return Schema::Make({Field("x", FieldType::Int())});
}

void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  // 1. Define the modules with Pig Latin queries.
  Workflow workflow;
  auto source = MakeModule(
      "source", {{"Ext", NumSchema()}}, {}, {{"Out", NumSchema()}},
      /*qstate=*/"",
      /*qout=*/"Out = FOREACH Ext GENERATE x;");
  Check(source.status());
  Check(workflow.AddModule(std::move(*source)));

  auto stats = MakeModule(
      "stats", {{"In", NumSchema()}}, {{"Seen", NumSchema()}},
      {{"Total", Schema::Make({Field("t", FieldType::Int())})}},
      /*qstate=*/"Seen = UNION Seen, In;",
      /*qout=*/
      "G = GROUP Seen ALL;\n"
      "Total = FOREACH G GENERATE SUM(Seen.x) AS t;");
  Check(stats.status());
  Check(workflow.AddModule(std::move(*stats)));

  // 2. Wire the DAG.
  Check(workflow.AddNode("in", "source"));
  Check(workflow.AddNode("stats", "stats"));
  Check(workflow.AddEdge("in", "stats", {EdgeRelation{"Out", "In"}}));

  // 3. Execute three times with provenance tracking.
  WorkflowExecutor executor(&workflow, nullptr);
  Check(executor.Initialize());
  ProvenanceGraph graph;
  NodeId last_total = kInvalidNode;
  for (int e = 1; e <= 3; ++e) {
    WorkflowInputs inputs;
    Bag ext;
    ext.Add(Tuple({Value::Int(e * 10)}));
    inputs["in"]["Ext"] = std::move(ext);
    auto outputs = executor.Execute(inputs, &graph);
    Check(outputs.status());
    const Relation& total = outputs->at("stats").at("Total");
    std::printf("execution %d: running total = %lld\n", e,
                (long long)total.bag.at(0).tuple.at(0).int_value());
    last_total = total.bag.at(0).annot;
  }

  // 4. Inspect the provenance graph.
  graph.Seal();
  // Queries read an immutable snapshot; no query mutates the graph.
  auto snap = GraphSnapshot::Capture(graph);
  Check(snap.status());
  std::printf("\nprovenance graph: %zu nodes, %zu edges, %zu invocations\n",
              graph.num_alive(), graph.num_edges(),
              graph.invocations().size());
  std::printf("provenance of the last total:\n  %s\n",
              ProvExpressionString(*snap, last_total, 6).c_str());

  // 5. What-if: delete the first execution's input. Two different
  //    questions (Section 4):
  //    - value dependency: is the input in the total's derivation? (yes —
  //      its value is folded into the SUM through a ⊗ pair)
  //    - existence dependency: would the total tuple disappear? (no — the
  //      SUM survives on the remaining inputs, like the COUNT in the
  //      paper's Example 4.3)
  NodeId first_input = kInvalidNode;
  graph.ForEachNode([&](NodeId id) {
    if (first_input == kInvalidNode &&
        graph.node(id).role() == NodeRole::kWorkflowInput) {
      first_input = id;
    }
  });
  auto ancestry = Ancestors(*snap, last_total);
  std::printf("\nfirst input is in the last total's derivation: %s\n",
              ancestry.count(first_input) ? "yes" : "no");
  std::printf("last total's existence depends on it: %s\n",
              *DependsOn(*snap, last_total, first_input) ? "yes" : "no");

  // 6. ZoomOut hides the stats module's internals in a view of the
  //    snapshot; ZoomIn restores them.
  Zoomer zoomer(*snap);
  size_t fine = zoomer.view().num_visible();
  Check(zoomer.ZoomOut({"stats"}));
  std::printf("zoom-out on 'stats': %zu -> %zu alive nodes\n", fine,
              zoomer.view().num_visible());
  Check(zoomer.ZoomIn({"stats"}));
  std::printf("zoom-in restores %zu nodes\n", zoomer.view().num_visible());
  return 0;
}
