#include <gtest/gtest.h>

#include "test_util.h"
#include "workflow/executor.h"
#include "workflow/module.h"
#include "workflow/workflow.h"

namespace lipstick {
namespace {

using ::lipstick::testing::I;
using ::lipstick::testing::MakeSchema;
using ::lipstick::testing::S;
using ::lipstick::testing::T;

SchemaPtr NumSchema() { return MakeSchema({{"x", FieldType::Int()}}); }

/// A module that doubles its input: In(x) -> Out(x*2).
Result<ModuleSpec> DoublerModule() {
  return MakeModule("doubler", {{"In", NumSchema()}}, {},
                    {{"Out", NumSchema()}}, "",
                    "Out = FOREACH In GENERATE x * 2 AS x;");
}

/// A module that accumulates everything it ever saw in state and outputs
/// the running total: In(x), state Seen(x) -> Out(total).
Result<ModuleSpec> AccumulatorModule() {
  return MakeModule("accumulator", {{"In", NumSchema()}},
                    {{"Seen", NumSchema()}},
                    {{"Total", MakeSchema({{"t", FieldType::Int()}})}},
                    "Seen = UNION Seen, In;\n",
                    "G = GROUP Seen ALL;\n"
                    "Total = FOREACH G GENERATE SUM(Seen.x) AS t;\n");
}

TEST(ModuleSpecTest, ValidateAcceptsWellFormed) {
  auto spec = DoublerModule();
  LIPSTICK_ASSERT_OK(spec.status());
  LIPSTICK_EXPECT_OK(spec->Validate(nullptr));
}

TEST(ModuleSpecTest, ValidateRejectsSchemaNameOverlap) {
  auto spec = MakeModule("bad", {{"R", NumSchema()}}, {{"R", NumSchema()}},
                         {}, "", "");
  LIPSTICK_ASSERT_OK(spec.status());
  EXPECT_FALSE(spec->Validate(nullptr).ok());
}

TEST(ModuleSpecTest, ValidateRejectsUnboundOutput) {
  auto spec = MakeModule("bad", {{"In", NumSchema()}}, {},
                         {{"Out", NumSchema()}}, "",
                         "Other = FOREACH In GENERATE x;");
  LIPSTICK_ASSERT_OK(spec.status());
  Status st = spec->Validate(nullptr);
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
  EXPECT_NE(st.message().find("does not bind output"), std::string::npos);
}

TEST(ModuleSpecTest, ValidateRejectsWrongOutputSchema) {
  auto spec = MakeModule("bad", {{"In", NumSchema()}}, {},
                         {{"Out", NumSchema()}}, "",
                         "Out = FOREACH In GENERATE x, x AS y;");
  LIPSTICK_ASSERT_OK(spec.status());
  EXPECT_FALSE(spec->Validate(nullptr).ok());
}

TEST(ModuleSpecTest, ValidateRejectsIncompatibleStateRebind) {
  auto spec = MakeModule("bad", {{"In", NumSchema()}}, {{"S", NumSchema()}},
                         {}, "S = FOREACH In GENERATE x, x AS y;", "");
  LIPSTICK_ASSERT_OK(spec.status());
  EXPECT_FALSE(spec->Validate(nullptr).ok());
}

TEST(ModuleSpecTest, ValidateCatchesPigErrors) {
  auto spec = MakeModule("bad", {{"In", NumSchema()}}, {},
                         {{"Out", NumSchema()}}, "",
                         "Out = FOREACH In GENERATE missing_field;");
  LIPSTICK_ASSERT_OK(spec.status());
  EXPECT_FALSE(spec->Validate(nullptr).ok());
}

TEST(ModuleSpecTest, MakeModuleReportsParseErrors) {
  auto spec = MakeModule("bad", {}, {}, {}, "", "Out = FILTER;");
  EXPECT_EQ(spec.status().code(), StatusCode::kParseError);
}

class WorkflowFixture : public ::testing::Test {
 protected:
  // in -> a(doubler) -> b(doubler) -> (out implicitly b)
  void BuildChain(Workflow* w) {
    auto doubler = DoublerModule();
    LIPSTICK_ASSERT_OK(doubler.status());
    LIPSTICK_ASSERT_OK(w->AddModule(std::move(*doubler)));
    auto input = MakeModule("source", {{"Ext", NumSchema()}}, {},
                            {{"Out", NumSchema()}}, "",
                            "Out = FOREACH Ext GENERATE x;");
    LIPSTICK_ASSERT_OK(input.status());
    LIPSTICK_ASSERT_OK(w->AddModule(std::move(*input)));
    LIPSTICK_ASSERT_OK(w->AddNode("in", "source"));
    LIPSTICK_ASSERT_OK(w->AddNode("a", "doubler"));
    LIPSTICK_ASSERT_OK(w->AddNode("b", "doubler"));
    LIPSTICK_ASSERT_OK(w->AddEdge("in", "a", {EdgeRelation{"Out", "In"}}));
    LIPSTICK_ASSERT_OK(w->AddEdge("a", "b", {EdgeRelation{"Out", "In"}}));
  }
};

TEST_F(WorkflowFixture, ValidateAndTopologicalOrder) {
  Workflow w;
  BuildChain(&w);
  LIPSTICK_EXPECT_OK(w.Validate(nullptr));
  auto order = w.TopologicalOrder();
  LIPSTICK_ASSERT_OK(order.status());
  EXPECT_EQ(*order, (std::vector<std::string>{"in", "a", "b"}));
  EXPECT_EQ(w.InputNodes(), std::vector<std::string>{"in"});
  EXPECT_EQ(w.OutputNodes(), std::vector<std::string>{"b"});
}

TEST_F(WorkflowFixture, RejectsCycles) {
  Workflow w;
  BuildChain(&w);
  LIPSTICK_ASSERT_OK(w.AddEdge("b", "a", {EdgeRelation{"Out", "In"}}));
  EXPECT_FALSE(w.Validate(nullptr).ok());
  EXPECT_FALSE(w.TopologicalOrder().ok());
}

TEST_F(WorkflowFixture, RejectsUnknownModulesAndBadEdges) {
  Workflow w;
  BuildChain(&w);
  LIPSTICK_ASSERT_OK(w.AddNode("ghost", "nonexistent"));
  EXPECT_FALSE(w.Validate(nullptr).ok());

  Workflow w2;
  BuildChain(&w2);
  LIPSTICK_ASSERT_OK(
      w2.AddEdge("a", "b", {EdgeRelation{"Nope", "In"}}));
  EXPECT_FALSE(w2.Validate(nullptr).ok());

  Workflow w3;
  BuildChain(&w3);
  LIPSTICK_ASSERT_OK(
      w3.AddEdge("a", "b", {EdgeRelation{"Out", "Nope"}}));
  EXPECT_FALSE(w3.Validate(nullptr).ok());
}

TEST_F(WorkflowFixture, RejectsUncoveredInputs) {
  Workflow w;
  BuildChain(&w);
  // c has an incoming edge carrying nothing for In? No: c has no incoming
  // edge at all -> it becomes an In node, which is fine. Instead, add an
  // edge to c that covers nothing.
  LIPSTICK_ASSERT_OK(w.AddNode("c", "doubler"));
  LIPSTICK_ASSERT_OK(w.AddEdge("b", "c", {EdgeRelation{"Out", "In"}}));
  LIPSTICK_EXPECT_OK(w.Validate(nullptr));

  // A second doubler whose input is not fed: give it an incoming edge that
  // feeds the wrong relation -> caught by edge validation; instead build a
  // module with two inputs and feed only one.
  Workflow w2;
  auto two_in = MakeModule(
      "two_in", {{"A", NumSchema()}, {"B", NumSchema()}}, {},
      {{"Out", NumSchema()}}, "", "Out = UNION A, B;");
  LIPSTICK_ASSERT_OK(two_in.status());
  auto source = MakeModule("source", {{"Ext", NumSchema()}}, {},
                           {{"Out", NumSchema()}}, "",
                           "Out = FOREACH Ext GENERATE x;");
  LIPSTICK_ASSERT_OK(w2.AddModule(std::move(*source)));
  LIPSTICK_ASSERT_OK(w2.AddModule(std::move(*two_in)));
  LIPSTICK_ASSERT_OK(w2.AddNode("in", "source"));
  LIPSTICK_ASSERT_OK(w2.AddNode("t", "two_in"));
  LIPSTICK_ASSERT_OK(w2.AddEdge("in", "t", {EdgeRelation{"Out", "A"}}));
  Status st = w2.Validate(nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not fed"), std::string::npos);
}

TEST_F(WorkflowFixture, RejectsDisconnectedGraph) {
  Workflow w;
  BuildChain(&w);
  LIPSTICK_ASSERT_OK(w.AddNode("island", "source"));
  EXPECT_FALSE(w.Validate(nullptr).ok());
}

TEST_F(WorkflowFixture, RejectsInstanceBoundToTwoModules) {
  Workflow w;
  BuildChain(&w);
  LIPSTICK_ASSERT_OK(w.AddNode("x", "source", "a"));  // instance "a" taken
  EXPECT_FALSE(w.Validate(nullptr).ok());
}

TEST_F(WorkflowFixture, ExecutesChain) {
  Workflow w;
  BuildChain(&w);
  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());
  WorkflowInputs inputs;
  Bag ext;
  ext.Add(T({I(5)}));
  ext.Add(T({I(7)}));
  inputs["in"]["Ext"] = std::move(ext);
  auto outputs = exec.Execute(inputs, nullptr);
  LIPSTICK_ASSERT_OK(outputs.status());
  const Relation& out = outputs->at("b").at("Out");
  EXPECT_EQ(out.bag.ToString(), "{(20),(28)}");  // doubled twice
}

TEST(WorkflowStateTest, StateThreadsAcrossExecutions) {
  Workflow w;
  auto source = MakeModule("source", {{"Ext", NumSchema()}}, {},
                           {{"Out", NumSchema()}}, "",
                           "Out = FOREACH Ext GENERATE x;");
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*source)));
  auto acc = AccumulatorModule();
  LIPSTICK_ASSERT_OK(acc.status());
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*acc)));
  LIPSTICK_ASSERT_OK(w.AddNode("in", "source"));
  LIPSTICK_ASSERT_OK(w.AddNode("acc", "accumulator"));
  LIPSTICK_ASSERT_OK(w.AddEdge("in", "acc", {EdgeRelation{"Out", "In"}}));
  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());

  // Execution sequence per Definition 2.3: each execution sees the state
  // produced by the previous one.
  for (int e = 1; e <= 3; ++e) {
    WorkflowInputs inputs;
    Bag ext;
    ext.Add(T({I(10 * e)}));
    inputs["in"]["Ext"] = std::move(ext);
    auto outputs = exec.Execute(inputs, nullptr);
    LIPSTICK_ASSERT_OK(outputs.status());
    int64_t expected = e == 1 ? 10 : (e == 2 ? 30 : 60);
    EXPECT_EQ(outputs->at("acc").at("Total").bag.at(0).tuple.at(0).int_value(),
              expected);
  }
  EXPECT_EQ(exec.executions_run(), 3u);
  auto state = exec.GetState("acc", "Seen");
  LIPSTICK_ASSERT_OK(state.status());
  EXPECT_EQ((*state)->bag.size(), 3u);
  EXPECT_FALSE(exec.GetState("acc", "Nope").ok());
  EXPECT_FALSE(exec.GetState("ghost", "Seen").ok());
}

TEST(WorkflowStateTest, SharedInstanceStateWithinOneExecution) {
  // Two nodes bound to the same instance: the second sees the state the
  // first wrote during the same execution (the dealership bid/purchase
  // pattern).
  Workflow w;
  auto source = MakeModule("source", {{"Ext", NumSchema()}}, {},
                           {{"Out", NumSchema()}}, "",
                           "Out = FOREACH Ext GENERATE x;");
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*source)));
  auto acc = AccumulatorModule();
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*acc)));
  LIPSTICK_ASSERT_OK(w.AddNode("in", "source"));
  LIPSTICK_ASSERT_OK(w.AddNode("first", "accumulator", "shared"));
  LIPSTICK_ASSERT_OK(w.AddNode("second", "accumulator", "shared"));
  LIPSTICK_ASSERT_OK(w.AddEdge("in", "first", {EdgeRelation{"Out", "In"}}));
  // Wire first->second so the DAG orders the shared instance; the Total
  // output cannot feed In (schema mismatch is fine: use a fresh relation).
  auto relay = MakeModule("relay", {{"T", MakeSchema({{"t", FieldType::Int()}})}},
                          {}, {{"Out", NumSchema()}}, "",
                          "Out = FOREACH T GENERATE t AS x;");
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*relay)));
  LIPSTICK_ASSERT_OK(w.AddNode("mid", "relay"));
  LIPSTICK_ASSERT_OK(w.AddEdge("first", "mid", {EdgeRelation{"Total", "T"}}));
  LIPSTICK_ASSERT_OK(w.AddEdge("mid", "second", {EdgeRelation{"Out", "In"}}));

  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());
  WorkflowInputs inputs;
  Bag ext;
  ext.Add(T({I(4)}));
  inputs["in"]["Ext"] = std::move(ext);
  auto outputs = exec.Execute(inputs, nullptr);
  LIPSTICK_ASSERT_OK(outputs.status());
  // first: Seen={4}, Total=4; mid relays 4; second: Seen={4,4}, Total=8.
  EXPECT_EQ(
      outputs->at("second").at("Total").bag.at(0).tuple.at(0).int_value(), 8);
}

TEST(WorkflowStateTest, UnorderedSharedInstanceRejected) {
  Workflow w;
  auto source = MakeModule("source", {{"Ext", NumSchema()}}, {},
                           {{"Out", NumSchema()}}, "",
                           "Out = FOREACH Ext GENERATE x;");
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*source)));
  auto acc = AccumulatorModule();
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*acc)));
  LIPSTICK_ASSERT_OK(w.AddNode("in", "source"));
  LIPSTICK_ASSERT_OK(w.AddNode("p", "accumulator", "shared"));
  LIPSTICK_ASSERT_OK(w.AddNode("q", "accumulator", "shared"));
  LIPSTICK_ASSERT_OK(w.AddEdge("in", "p", {EdgeRelation{"Out", "In"}}));
  LIPSTICK_ASSERT_OK(w.AddEdge("in", "q", {EdgeRelation{"Out", "In"}}));
  WorkflowExecutor exec(&w, nullptr);
  Status st = exec.Initialize();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not ordered"), std::string::npos);
}

TEST(WorkflowProvenanceTest, StructuralNodesAreCreated) {
  Workflow w;
  auto source = MakeModule("source", {{"Ext", NumSchema()}}, {},
                           {{"Out", NumSchema()}}, "",
                           "Out = FOREACH Ext GENERATE x;");
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*source)));
  auto acc = AccumulatorModule();
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*acc)));
  LIPSTICK_ASSERT_OK(w.AddNode("in", "source"));
  LIPSTICK_ASSERT_OK(w.AddNode("acc", "accumulator"));
  LIPSTICK_ASSERT_OK(w.AddEdge("in", "acc", {EdgeRelation{"Out", "In"}}));
  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());

  ProvenanceGraph graph;
  for (int e = 0; e < 2; ++e) {
    WorkflowInputs inputs;
    Bag ext;
    ext.Add(T({I(e)}));
    inputs["in"]["Ext"] = std::move(ext);
    LIPSTICK_ASSERT_OK(exec.Execute(inputs, &graph).status());
  }
  // Two executions x two nodes = four invocations.
  EXPECT_EQ(graph.invocations().size(), 4u);
  for (const InvocationInfo& inv : graph.invocations()) {
    EXPECT_FALSE(inv.input_nodes.empty());
    EXPECT_FALSE(inv.output_nodes.empty());
  }
  // Workflow-input tokens exist and are labeled by execution.
  size_t wf_inputs = 0;
  for (NodeId id : graph.AllNodeIds()) {
    if (graph.node(id).role() == NodeRole::kWorkflowInput) ++wf_inputs;
  }
  EXPECT_EQ(wf_inputs, 2u);
  // State flows from execution 0 to execution 1: the accumulator's second
  // invocation must consume a state ("s") node.
  bool second_exec_state = false;
  for (const InvocationInfo& inv : graph.invocations()) {
    if (graph.str(inv.module_name) == "accumulator" &&
        inv.execution == 1) {
      second_exec_state = !inv.state_nodes.empty();
    }
  }
  EXPECT_TRUE(second_exec_state);
}

TEST(WorkflowLoopTest, UnrolledLoopExecutes) {
  // A bounded loop unfolded into a DAG (Definition 2.2's remark): five
  // iterations of the doubler applied to the source's output.
  Workflow w;
  auto source = MakeModule("source", {{"Ext", NumSchema()}}, {},
                           {{"Out", NumSchema()}}, "",
                           "Out = FOREACH Ext GENERATE x;");
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*source)));
  auto doubler = DoublerModule();
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*doubler)));
  LIPSTICK_ASSERT_OK(w.AddNode("in", "source"));
  auto chain =
      w.AddUnrolledLoop("doubler", "iter", 5, {EdgeRelation{"Out", "In"}});
  LIPSTICK_ASSERT_OK(chain.status());
  ASSERT_EQ(chain->size(), 5u);
  LIPSTICK_ASSERT_OK(
      w.AddEdge("in", chain->front(), {EdgeRelation{"Out", "In"}}));
  LIPSTICK_EXPECT_OK(w.Validate(nullptr));

  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());
  WorkflowInputs inputs;
  Bag ext;
  ext.Add(T({I(1)}));
  inputs["in"]["Ext"] = std::move(ext);
  ProvenanceGraph graph;
  auto outputs = exec.Execute(inputs, &graph);
  LIPSTICK_ASSERT_OK(outputs.status());
  EXPECT_EQ(outputs->at(chain->back())
                .at("Out")
                .bag.at(0)
                .tuple.at(0)
                .int_value(),
            32);  // 1 * 2^5
  // Six invocations (source + 5 iterations) in the provenance graph.
  EXPECT_EQ(graph.invocations().size(), 6u);
  // Zero iterations rejected.
  EXPECT_FALSE(w.AddUnrolledLoop("doubler", "bad", 0, {}).ok());
}

TEST(ParallelExecutorTest, MatchesSerialResults) {
  // A diamond: in -> a, b -> join. Parallel execution with 4 workers must
  // produce identical outputs to serial execution.
  Workflow w;
  auto source = MakeModule("source", {{"Ext", NumSchema()}}, {},
                           {{"Out", NumSchema()}}, "",
                           "Out = FOREACH Ext GENERATE x;");
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*source)));
  auto doubler = DoublerModule();
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*doubler)));
  auto merge = MakeModule("merge", {{"A", NumSchema()}, {"B", NumSchema()}},
                          {}, {{"Out", NumSchema()}}, "",
                          "Out = UNION A, B;");
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*merge)));
  LIPSTICK_ASSERT_OK(w.AddNode("in", "source"));
  LIPSTICK_ASSERT_OK(w.AddNode("a", "doubler"));
  LIPSTICK_ASSERT_OK(w.AddNode("b", "doubler"));
  LIPSTICK_ASSERT_OK(w.AddNode("m", "merge"));
  LIPSTICK_ASSERT_OK(w.AddEdge("in", "a", {EdgeRelation{"Out", "In"}}));
  LIPSTICK_ASSERT_OK(w.AddEdge("in", "b", {EdgeRelation{"Out", "In"}}));
  LIPSTICK_ASSERT_OK(w.AddEdge("a", "m", {EdgeRelation{"Out", "A"}}));
  LIPSTICK_ASSERT_OK(w.AddEdge("b", "m", {EdgeRelation{"Out", "B"}}));

  auto run = [&](int workers, ProvenanceGraph* graph) -> std::string {
    WorkflowExecutor exec(&w, nullptr);
    EXPECT_TRUE(exec.Initialize().ok());
    WorkflowInputs inputs;
    Bag ext;
    for (int i = 0; i < 10; ++i) ext.Add(T({I(i)}));
    inputs["in"]["Ext"] = std::move(ext);
    auto outputs = exec.Execute(inputs, graph, workers);
    EXPECT_TRUE(outputs.ok()) << outputs.status().ToString();
    if (!outputs.ok()) return "<failed>";
    return outputs->at("m").at("Out").bag.ToString();
  };
  std::string serial = run(1, nullptr);
  std::string parallel = run(4, nullptr);
  EXPECT_EQ(serial, parallel);

  // With provenance: same data results, and a well-formed sharded graph.
  ProvenanceGraph graph;
  std::string tracked = run(4, &graph);
  EXPECT_EQ(tracked, serial);
  graph.Seal();
  EXPECT_EQ(graph.invocations().size(), 4u);
  EXPECT_GT(graph.num_edges(), 0u);
  // Every recorded parent resolves to a live node across shards.
  for (NodeId id : graph.AllNodeIds()) {
    for (NodeId p : graph.ParentsOf(id)) {
      EXPECT_TRUE(graph.Contains(p));
    }
  }
}

/// in -> acc, the stateful accumulator, fed three rows per execution.
Workflow AccumulatorChain() {
  Workflow w;
  auto source = MakeModule("source", {{"Ext", NumSchema()}}, {},
                           {{"Out", NumSchema()}}, "",
                           "Out = FOREACH Ext GENERATE x;");
  auto acc = AccumulatorModule();
  EXPECT_TRUE(w.AddModule(std::move(*source)).ok());
  EXPECT_TRUE(w.AddModule(std::move(*acc)).ok());
  EXPECT_TRUE(w.AddNode("in", "source").ok());
  EXPECT_TRUE(w.AddNode("acc", "accumulator").ok());
  EXPECT_TRUE(w.AddEdge("in", "acc", {EdgeRelation{"Out", "In"}}).ok());
  return w;
}

WorkflowInputs ThreeRows() {
  WorkflowInputs inputs;
  Bag ext;
  for (int i = 1; i <= 3; ++i) ext.Add(T({I(i)}));
  inputs["in"]["Ext"] = std::move(ext);
  return inputs;
}

TEST(ExecutionReportTest, CommittedNodesReportInvocationAndRelationRows) {
  Workflow w = AccumulatorChain();
  for (int workers : {1, 2}) {
    SCOPED_TRACE(workers);
    WorkflowExecutor exec(&w, nullptr);
    LIPSTICK_ASSERT_OK(exec.Initialize());
    ProvenanceGraph graph;
    for (uint32_t e = 0; e < 2; ++e) {
      ExecutionReport report;
      auto outputs =
          exec.Execute(ThreeRows(), &graph, ExecutionOptions{}, &report,
                       workers);
      LIPSTICK_ASSERT_OK(outputs.status());

      // Every relation bound when Qout finished, with its row count.
      const NodeReport& in = report.nodes.at("in");
      EXPECT_EQ(in.relation_rows,
                (std::map<std::string, size_t>{{"Ext", 3}, {"Out", 3}}));
      EXPECT_EQ(in.relation_rows.at("Out"),
                outputs->at("in").at("Out").bag.size());
      const NodeReport& acc = report.nodes.at("acc");
      auto seen = exec.GetState("acc", "Seen");
      LIPSTICK_ASSERT_OK(seen.status());
      EXPECT_EQ(acc.relation_rows,
                (std::map<std::string, size_t>{
                    {"G", 1}, {"In", 3}, {"Seen", 3 * (e + 1)}, {"Total", 1}}));
      EXPECT_EQ(acc.relation_rows.at("Seen"), (*seen)->bag.size());
      EXPECT_EQ(acc.relation_rows.at("Total"),
                outputs->at("acc").at("Total").bag.size());

      // Each node names its own invocation of this execution.
      for (const auto& [id, node] : report.nodes) {
        ASSERT_LT(node.invocation, graph.invocations().size()) << id;
        const InvocationInfo& inv = graph.invocations()[node.invocation];
        EXPECT_EQ(graph.str(inv.instance_name), id);
        EXPECT_EQ(inv.execution, e);
      }
      EXPECT_NE(in.invocation, acc.invocation);
    }
  }
}

TEST(ExecutionReportTest, FailedNodeReportsNoInvocationOrRows) {
  pig::UdfRegistry udfs;
  LIPSTICK_ASSERT_OK(udfs.Register(
      "Boom",
      [](const std::vector<Value>&) -> Result<Value> {
        return Status::ExecutionError("boom");
      },
      FieldType::Int()));
  Workflow w = AccumulatorChain();
  auto bad = MakeModule("bad", {{"In", NumSchema()}}, {},
                        {{"Out", NumSchema()}}, "",
                        "Out = FOREACH In GENERATE Boom(x) AS x;");
  LIPSTICK_ASSERT_OK(w.AddModule(std::move(*bad)));
  LIPSTICK_ASSERT_OK(w.AddNode("bad", "bad"));
  LIPSTICK_ASSERT_OK(w.AddEdge("in", "bad", {EdgeRelation{"Out", "In"}}));
  WorkflowExecutor exec(&w, &udfs);
  LIPSTICK_ASSERT_OK(exec.Initialize());

  ExecutionOptions options;
  options.failure_policy = FailurePolicy::kBestEffort;
  ExecutionReport report;
  ProvenanceGraph graph;
  LIPSTICK_ASSERT_OK(
      exec.Execute(ThreeRows(), &graph, options, &report).status());
  const NodeReport& failed = report.nodes.at("bad");
  EXPECT_FALSE(failed.status.ok());
  EXPECT_EQ(failed.attempts, 1);
  EXPECT_EQ(failed.invocation, kNoInvocation);
  EXPECT_TRUE(failed.relation_rows.empty());
  for (const char* id : {"in", "acc"}) {
    EXPECT_NE(report.nodes.at(id).invocation, kNoInvocation) << id;
    EXPECT_FALSE(report.nodes.at(id).relation_rows.empty()) << id;
  }
}

}  // namespace
}  // namespace lipstick
