#include "common/fault.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/str_util.h"
#include "provenance/deletion.h"
#include "provenance/query.h"
#include "provenance/subgraph.h"
#include "test_util.h"
#include "workflow/executor.h"
#include "workflow/module.h"
#include "workflow/workflow.h"

namespace lipstick {
namespace {

using testing::Snap;

using ::lipstick::testing::I;
using ::lipstick::testing::MakeSchema;
using ::lipstick::testing::T;

SchemaPtr NumSchema() { return MakeSchema({{"x", FieldType::Int()}}); }

/// Every test starts and ends with a disarmed global injector, so tests
/// never leak faults into each other.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

/// ------------------------- injector mechanics ---------------------------

TEST_F(FaultTest, DisarmedFireIsOkAndCheap) {
  EXPECT_FALSE(FaultInjector::Armed());
  LIPSTICK_EXPECT_OK(FaultInjector::Fire("anything", "any-key"));
}

TEST_F(FaultTest, SkipHitsAndMaxFires) {
  FaultInjector::FaultSpec spec;
  spec.point = "test.point";
  spec.skip_hits = 2;
  spec.max_fires = 1;
  spec.code = StatusCode::kInternal;
  FaultInjector::Global().Arm(spec);

  LIPSTICK_EXPECT_OK(FaultInjector::Fire("test.point"));  // hit 1: skipped
  LIPSTICK_EXPECT_OK(FaultInjector::Fire("test.point"));  // hit 2: skipped
  Status st = FaultInjector::Fire("test.point");          // hit 3: fires
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  LIPSTICK_EXPECT_OK(FaultInjector::Fire("test.point"));  // budget spent
  EXPECT_EQ(FaultInjector::Global().fire_count("test.point"), 1u);
  EXPECT_EQ(FaultInjector::Global().hit_count("test.point"), 4u);
  // Other points and non-matching keys are unaffected.
  LIPSTICK_EXPECT_OK(FaultInjector::Fire("other.point"));
}

TEST_F(FaultTest, KeyedFaultMatchesOnlyItsKey) {
  FaultInjector::FaultSpec spec;
  spec.point = "test.point";
  spec.key = "alpha";
  FaultInjector::Global().Arm(spec);
  LIPSTICK_EXPECT_OK(FaultInjector::Fire("test.point", "beta"));
  EXPECT_FALSE(FaultInjector::Fire("test.point", "alpha").ok());
}

TEST_F(FaultTest, ProbabilisticFiringIsDeterministic) {
  auto run = [] {
    FaultInjector::Global().Reset();
    FaultInjector::FaultSpec spec;
    spec.point = "test.point";
    spec.probability = 0.5;
    spec.seed = 42;
    FaultInjector::Global().Arm(spec);
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      pattern += FaultInjector::Fire("test.point").ok() ? '.' : 'X';
    }
    return pattern;
  };
  std::string first = run();
  std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
}

TEST_F(FaultTest, ArmFromEnvParsesSpec) {
  ::setenv("LIPSTICK_FAULTS", "pig.udf@triple:code=internal:fires=1", 1);
  LIPSTICK_ASSERT_OK(FaultInjector::Global().ArmFromEnv());
  ::unsetenv("LIPSTICK_FAULTS");
  Status st = FaultInjector::Fire("pig.udf", "triple");
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  LIPSTICK_EXPECT_OK(FaultInjector::Fire("pig.udf", "triple"));  // fires=1

  ::setenv("LIPSTICK_FAULTS", "point:bogus_option=1", 1);
  EXPECT_FALSE(FaultInjector::Global().ArmFromEnv().ok());
  ::unsetenv("LIPSTICK_FAULTS");
}

/// --------------------------- workflow fixtures --------------------------

Result<ModuleSpec> SourceModule() {
  return MakeModule("source", {{"Ext", NumSchema()}}, {},
                    {{"Out", NumSchema()}}, "",
                    "Out = FOREACH Ext GENERATE x;");
}

Result<ModuleSpec> DoublerModule() {
  return MakeModule("doubler", {{"In", NumSchema()}}, {},
                    {{"Out", NumSchema()}}, "",
                    "Out = FOREACH In GENERATE x * 2 AS x;");
}

Result<ModuleSpec> AccumulatorModule() {
  return MakeModule("accumulator", {{"In", NumSchema()}},
                    {{"Seen", NumSchema()}},
                    {{"Total", MakeSchema({{"t", FieldType::Int()}})}},
                    "Seen = UNION Seen, In;\n",
                    "G = GROUP Seen ALL;\n"
                    "Total = FOREACH G GENERATE SUM(Seen.x) AS t;\n");
}

void AddModuleOrDie(Workflow* w, Result<ModuleSpec> spec) {
  LIPSTICK_ASSERT_OK(spec.status());
  LIPSTICK_ASSERT_OK(w->AddModule(std::move(*spec)));
}

/// in -> a -> b chain of doublers.
void BuildChain(Workflow* w) {
  AddModuleOrDie(w, SourceModule());
  AddModuleOrDie(w, DoublerModule());
  LIPSTICK_ASSERT_OK(w->AddNode("in", "source"));
  LIPSTICK_ASSERT_OK(w->AddNode("a", "doubler"));
  LIPSTICK_ASSERT_OK(w->AddNode("b", "doubler"));
  LIPSTICK_ASSERT_OK(w->AddEdge("in", "a", {EdgeRelation{"Out", "In"}}));
  LIPSTICK_ASSERT_OK(w->AddEdge("a", "b", {EdgeRelation{"Out", "In"}}));
}

/// Diamond: in -> {a, b} -> m.
void BuildDiamond(Workflow* w) {
  AddModuleOrDie(w, SourceModule());
  AddModuleOrDie(w, DoublerModule());
  AddModuleOrDie(w, MakeModule("merge",
                               {{"A", NumSchema()}, {"B", NumSchema()}}, {},
                               {{"Out", NumSchema()}}, "",
                               "Out = UNION A, B;"));
  LIPSTICK_ASSERT_OK(w->AddNode("in", "source"));
  LIPSTICK_ASSERT_OK(w->AddNode("a", "doubler"));
  LIPSTICK_ASSERT_OK(w->AddNode("b", "doubler"));
  LIPSTICK_ASSERT_OK(w->AddNode("m", "merge"));
  LIPSTICK_ASSERT_OK(w->AddEdge("in", "a", {EdgeRelation{"Out", "In"}}));
  LIPSTICK_ASSERT_OK(w->AddEdge("in", "b", {EdgeRelation{"Out", "In"}}));
  LIPSTICK_ASSERT_OK(w->AddEdge("a", "m", {EdgeRelation{"Out", "A"}}));
  LIPSTICK_ASSERT_OK(w->AddEdge("b", "m", {EdgeRelation{"Out", "B"}}));
}

WorkflowInputs ChainInputs(std::vector<int64_t> xs) {
  WorkflowInputs inputs;
  Bag ext;
  for (int64_t x : xs) ext.Add(T({I(x)}));
  inputs["in"]["Ext"] = std::move(ext);
  return inputs;
}

/// ------------------------ engine failure points -------------------------

TEST_F(FaultTest, InjectedUdfFailurePropagatesWithContext) {
  pig::UdfRegistry udfs;
  LIPSTICK_ASSERT_OK(udfs.Register(
      "TRIPLE",
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Int(args.at(0).int_value() * 3);
      },
      FieldType::Int()));
  Workflow w;
  AddModuleOrDie(&w, SourceModule());
  AddModuleOrDie(&w,
                 MakeModule("tripler", {{"In", NumSchema()}}, {},
                            {{"Out", NumSchema()}}, "",
                            "Out = FOREACH In GENERATE TRIPLE(x) AS x;"));
  LIPSTICK_ASSERT_OK(w.AddNode("in", "source"));
  LIPSTICK_ASSERT_OK(w.AddNode("t", "tripler"));
  LIPSTICK_ASSERT_OK(w.AddEdge("in", "t", {EdgeRelation{"Out", "In"}}));
  WorkflowExecutor exec(&w, &udfs);
  LIPSTICK_ASSERT_OK(exec.Initialize());

  FaultInjector::FaultSpec spec;
  spec.point = "pig.udf";
  spec.key = "triple";  // keys are lower-cased function names
  FaultInjector::Global().Arm(spec);

  auto outputs = exec.Execute(ChainInputs({1}), nullptr);
  ASSERT_FALSE(outputs.ok());
  EXPECT_EQ(outputs.status().code(), StatusCode::kUnavailable);
  // The error names the UDF and the failing node on the way up.
  EXPECT_NE(outputs.status().message().find("TRIPLE"), std::string::npos);
  EXPECT_NE(outputs.status().message().find("node t"), std::string::npos);
  EXPECT_EQ(exec.executions_run(), 0u);  // aborted, not committed

  // Disarmed, the same execution succeeds.
  FaultInjector::Global().Reset();
  auto ok = exec.Execute(ChainInputs({1}), nullptr);
  LIPSTICK_ASSERT_OK(ok.status());
  EXPECT_EQ(ok->at("t").at("Out").bag.ToString(), "{(3)}");
  EXPECT_EQ(exec.executions_run(), 1u);
}

TEST_F(FaultTest, RetryUntilSuccessDiscardsFailedProvenance) {
  Workflow w;
  BuildChain(&w);
  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());

  // The source node's only statement binds "Out"; fail it twice, so the
  // first two attempts die inside the interpreter (after an invocation
  // record and some graph nodes exist) and the third succeeds.
  FaultInjector::FaultSpec spec;
  spec.point = "pig.statement";
  spec.key = "Out";
  spec.max_fires = 2;
  FaultInjector::Global().Arm(spec);

  ExecutionOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 0.5;
  options.retry.jitter = 0.5;
  ExecutionReport report;
  ProvenanceGraph graph;
  auto outputs = exec.Execute(ChainInputs({5, 7}), &graph, options, &report);
  LIPSTICK_ASSERT_OK(outputs.status());
  EXPECT_EQ(outputs->at("b").at("Out").bag.ToString(), "{(20),(28)}");

  EXPECT_EQ(report.nodes.at("in").attempts, 3);
  LIPSTICK_EXPECT_OK(report.nodes.at("in").status);
  EXPECT_EQ(report.nodes.at("a").attempts, 1);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(exec.executions_run(), 1u);

  // The two failed attempts left aborted invocation records but no live
  // graph structure; the merged graph seals and queries cleanly.
  EXPECT_EQ(graph.invocations().size(), 5u);  // 3 live + 2 aborted
  EXPECT_EQ(graph.num_live_invocations(), 3u);
  graph.Seal();
  GraphStats stats = *ComputeGraphStats(Snap(graph));
  EXPECT_EQ(stats.invocations, 3u);
  for (NodeId id : graph.AllNodeIds()) {
    if (!graph.Contains(id)) continue;
    for (NodeId p : graph.ParentsOf(id)) {
      EXPECT_TRUE(graph.Contains(p)) << "live node with dead parent";
    }
  }
}

TEST_F(FaultTest, NodeTimeoutReportsDeadlineExceeded) {
  Workflow w;
  AddModuleOrDie(&w, SourceModule());
  AddModuleOrDie(&w, AccumulatorModule());
  LIPSTICK_ASSERT_OK(w.AddNode("in", "source"));
  LIPSTICK_ASSERT_OK(w.AddNode("acc", "accumulator"));
  LIPSTICK_ASSERT_OK(w.AddEdge("in", "acc", {EdgeRelation{"Out", "In"}}));
  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());

  // A delay-only fault (fail = false) slows every statement of the
  // accumulator node by 30 ms; with a 10 ms budget the cooperative check
  // between statements trips.
  FaultInjector::FaultSpec spec;
  spec.point = "pig.statement";
  spec.key = "Seen";
  spec.fail = false;
  spec.delay_ms = 30;
  FaultInjector::Global().Arm(spec);

  ExecutionOptions options;
  options.node_timeout_seconds = 0.01;
  ExecutionReport report;
  auto outputs = exec.Execute(ChainInputs({1}), nullptr, options, &report);
  ASSERT_FALSE(outputs.ok());
  EXPECT_EQ(outputs.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.nodes.at("acc").status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(exec.executions_run(), 0u);

  // The state transaction held: nothing from the timed-out Qstate sticks.
  auto state = exec.GetState("acc", "Seen");
  LIPSTICK_ASSERT_OK(state.status());
  EXPECT_TRUE((*state)->bag.empty());
}

TEST_F(FaultTest, SkipDownstreamKeepsIndependentBranch) {
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    FaultInjector::Global().Reset();

    // Fault-free reference run for the surviving branch.
    Workflow w;
    BuildDiamond(&w);
    WorkflowExecutor clean(&w, nullptr);
    LIPSTICK_ASSERT_OK(clean.Initialize());
    auto reference = clean.Execute(ChainInputs({1, 2, 3}), nullptr, workers);
    LIPSTICK_ASSERT_OK(reference.status());

    FaultInjector::FaultSpec spec;
    spec.point = "executor.node";
    spec.key = "b";
    FaultInjector::Global().Arm(spec);

    WorkflowExecutor exec(&w, nullptr);
    LIPSTICK_ASSERT_OK(exec.Initialize());
    ExecutionOptions options;
    options.failure_policy = FailurePolicy::kSkipDownstream;
    ExecutionReport report;
    ProvenanceGraph graph;
    auto outputs = exec.Execute(ChainInputs({1, 2, 3}), &graph, options,
                                &report, workers);
    LIPSTICK_ASSERT_OK(outputs.status());

    // The independent branch produced exactly its fault-free outputs.
    EXPECT_EQ(outputs->at("a").at("Out").bag.ToString(),
              reference->at("a").at("Out").bag.ToString());
    EXPECT_EQ(outputs->count("b"), 0u);
    EXPECT_EQ(outputs->count("m"), 0u);

    EXPECT_EQ(report.nodes.at("b").attempts, 1);
    EXPECT_EQ(report.nodes.at("b").status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(report.nodes.at("m").skipped);
    EXPECT_EQ(report.nodes.at("m").skipped_because_of, "b");
    EXPECT_EQ(report.nodes.at("m").status.code(), StatusCode::kAborted);
    EXPECT_EQ(report.failed_count(), 1u);
    EXPECT_EQ(report.skipped_count(), 1u);
    EXPECT_FALSE(report.all_ok());

    // Partial executions still commit and still carry clean provenance
    // for what did run: in and a.
    EXPECT_EQ(exec.executions_run(), 1u);
    EXPECT_EQ(graph.num_live_invocations(), 2u);
    graph.Seal();
    for (NodeId id : graph.AllNodeIds()) {
      if (!graph.Contains(id)) continue;
      for (NodeId p : graph.ParentsOf(id)) {
        EXPECT_TRUE(graph.Contains(p)) << "live node with dead parent";
      }
    }
  }
}

TEST_F(FaultTest, BestEffortRunsEveryNode) {
  Workflow w;
  BuildDiamond(&w);
  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());

  FaultInjector::FaultSpec spec;
  spec.point = "executor.node";
  spec.key = "b";
  FaultInjector::Global().Arm(spec);

  ExecutionOptions options;
  options.failure_policy = FailurePolicy::kBestEffort;
  ExecutionReport report;
  auto outputs = exec.Execute(ChainInputs({4}), nullptr, options, &report);
  LIPSTICK_ASSERT_OK(outputs.status());
  // m still runs, seeing only branch a's tuples on its dead B edge.
  EXPECT_EQ(outputs->at("m").at("Out").bag.ToString(), "{(8)}");
  EXPECT_EQ(report.nodes.at("m").attempts, 1);
  EXPECT_FALSE(report.nodes.at("m").skipped);
  EXPECT_EQ(report.failed_count(), 1u);
  EXPECT_EQ(report.skipped_count(), 0u);
}

TEST_F(FaultTest, FailFastRollsBackStateAndProvenance) {
  // in -> acc (stateful) -> relay; the relay fails after the accumulator
  // already committed new state within the execution.
  Workflow w;
  AddModuleOrDie(&w, SourceModule());
  AddModuleOrDie(&w, AccumulatorModule());
  AddModuleOrDie(&w,
                 MakeModule("relay",
                            {{"T", MakeSchema({{"t", FieldType::Int()}})}},
                            {}, {{"Out", NumSchema()}}, "",
                            "Out = FOREACH T GENERATE t AS x;"));
  LIPSTICK_ASSERT_OK(w.AddNode("in", "source"));
  LIPSTICK_ASSERT_OK(w.AddNode("acc", "accumulator"));
  LIPSTICK_ASSERT_OK(w.AddNode("end", "relay"));
  LIPSTICK_ASSERT_OK(w.AddEdge("in", "acc", {EdgeRelation{"Out", "In"}}));
  LIPSTICK_ASSERT_OK(w.AddEdge("acc", "end", {EdgeRelation{"Total", "T"}}));
  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());

  // One committed execution to establish non-trivial prior state.
  ProvenanceGraph graph;
  LIPSTICK_ASSERT_OK(exec.Execute(ChainInputs({10}), &graph).status());
  size_t alive_before = graph.num_alive();
  size_t invocations_before = graph.invocations().size();

  FaultInjector::FaultSpec spec;
  spec.point = "executor.node";
  spec.key = "end";
  FaultInjector::Global().Arm(spec);

  ExecutionReport report;
  auto outputs = exec.Execute(ChainInputs({32}), &graph, ExecutionOptions(),
                              &report);
  ASSERT_FALSE(outputs.ok());
  EXPECT_EQ(outputs.status().code(), StatusCode::kUnavailable);

  // Everything observable is as if the failed execution never started:
  // the execution counter, the module state, and the provenance graph.
  EXPECT_EQ(exec.executions_run(), 1u);
  auto state = exec.GetState("acc", "Seen");
  LIPSTICK_ASSERT_OK(state.status());
  EXPECT_EQ((*state)->bag.ToString(), "{(10)}");
  EXPECT_EQ(graph.num_alive(), alive_before);
  EXPECT_EQ(graph.invocations().size(), invocations_before);

  // The report still tells the story of the aborted run.
  EXPECT_EQ(report.nodes.at("end").status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(report.nodes.at("acc").attempts, 1);

  // Disarm and rerun: the sequence continues exactly where it left off.
  FaultInjector::Global().Reset();
  auto ok = exec.Execute(ChainInputs({32}), &graph);
  LIPSTICK_ASSERT_OK(ok.status());
  EXPECT_EQ(ok->at("end").at("Out").bag.ToString(), "{(42)}");
  EXPECT_EQ(exec.executions_run(), 2u);
  graph.Seal();
  GraphStats stats = *ComputeGraphStats(Snap(graph));
  EXPECT_EQ(stats.invocations, 6u);  // 3 nodes x 2 committed executions
}

/// Every tuple of the accumulator's state with its annotation, in order.
std::string AnnotatedState(const WorkflowExecutor& exec) {
  auto state = exec.GetState("acc", "Seen");
  if (!state.ok()) return state.status().ToString();
  std::string out;
  for (const AnnotatedTuple& t : (*state)->bag) {
    out += StrCat(t.tuple.ToString(), "@", t.annot, " ");
  }
  return out;
}

TEST_F(FaultTest, StateSurvivesFailureInsideStatefulNode) {
  // The state moves into the interpreter's environment while a node runs,
  // so a statement failing inside the accumulator's Qstate fails with its
  // state moved out. Each way of failing must restore the pre-execution
  // bag, annotations included, and the next execution continues from it.
  enum class Mode { kFailFast, kRetriedFailFast, kBestEffort };
  for (bool tracked : {false, true}) {
    for (Mode mode : {Mode::kFailFast, Mode::kRetriedFailFast,
                      Mode::kBestEffort}) {
      SCOPED_TRACE(StrCat(tracked ? "tracked" : "untracked", ", mode ",
                          static_cast<int>(mode)));
      FaultInjector::Global().Reset();
      Workflow w;
      AddModuleOrDie(&w, SourceModule());
      AddModuleOrDie(&w, AccumulatorModule());
      LIPSTICK_ASSERT_OK(w.AddNode("in", "source"));
      LIPSTICK_ASSERT_OK(w.AddNode("acc", "accumulator"));
      LIPSTICK_ASSERT_OK(w.AddEdge("in", "acc", {EdgeRelation{"Out", "In"}}));
      WorkflowExecutor exec(&w, nullptr);
      LIPSTICK_ASSERT_OK(exec.Initialize());
      ProvenanceGraph graph;
      ProvenanceGraph* g = tracked ? &graph : nullptr;

      // One committed execution: non-empty state, annotated when tracked.
      LIPSTICK_ASSERT_OK(exec.Execute(ChainInputs({10, 11}), g).status());
      const std::string before = AnnotatedState(exec);
      ASSERT_EQ((*exec.GetState("acc", "Seen"))->bag.ToString(), "{(10),(11)}");
      // Tracked, every state tuple carries an annotation; untracked, none.
      EXPECT_EQ(before.find("@0 ") == std::string::npos, tracked);

      // Fail the Qstate statement `Seen = UNION Seen, In;`.
      FaultInjector::FaultSpec spec;
      spec.point = "pig.statement";
      spec.key = "Seen";
      ExecutionOptions options;
      if (mode == Mode::kRetriedFailFast) {
        spec.max_fires = 2;
        options.retry.max_attempts = 3;
      }
      if (mode == Mode::kBestEffort) {
        options.failure_policy = FailurePolicy::kBestEffort;
      }
      FaultInjector::Global().Arm(spec);
      ExecutionReport report;
      auto failed = exec.Execute(ChainInputs({5}), g, options, &report);
      FaultInjector::Global().Reset();

      switch (mode) {
        case Mode::kFailFast:
          ASSERT_FALSE(failed.ok());
          EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
          EXPECT_EQ(exec.executions_run(), 1u);
          EXPECT_EQ(AnnotatedState(exec), before);
          break;
        case Mode::kRetriedFailFast:
          // Two failed attempts, then the third commits on top of the
          // restored state: the old tuples keep their annotations.
          LIPSTICK_ASSERT_OK(failed.status());
          EXPECT_EQ(report.nodes.at("acc").attempts, 3);
          EXPECT_EQ(exec.executions_run(), 2u);
          EXPECT_EQ(AnnotatedState(exec).substr(0, before.size()), before);
          EXPECT_EQ(failed->at("acc").at("Total").bag.ToString(), "{(26)}");
          break;
        case Mode::kBestEffort:
          LIPSTICK_ASSERT_OK(failed.status());
          EXPECT_FALSE(report.nodes.at("acc").status.ok());
          EXPECT_EQ(failed->count("acc"), 0u);
          EXPECT_EQ(exec.executions_run(), 2u);
          EXPECT_EQ(AnnotatedState(exec), before);
          break;
      }

      // The next execution continues from that state.
      const std::string kept = AnnotatedState(exec);
      auto next = exec.Execute(ChainInputs({1}), g);
      LIPSTICK_ASSERT_OK(next.status());
      EXPECT_EQ(next->at("acc").at("Total").bag.ToString(),
                mode == Mode::kRetriedFailFast ? "{(27)}" : "{(22)}");
      EXPECT_EQ(AnnotatedState(exec).substr(0, kept.size()), kept);
      if (tracked) {
        graph.Seal();
        for (NodeId id : graph.AllNodeIds()) {
          if (!graph.Contains(id)) continue;
          for (NodeId p : graph.ParentsOf(id)) {
            EXPECT_TRUE(graph.Contains(p)) << "live node with dead parent";
          }
        }
      }
    }
  }
}

/// --------------------- always-on invariant checks -----------------------

TEST_F(FaultTest, UnsealedGraphQueriesReturnStatusNotUB) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId x = w.Token("x");
  // No Seal(): every children-dependent query reports kInvalidArgument.
  GraphSnapshot parents_only = GraphSnapshot::CaptureForParents(g);
  EXPECT_EQ(ComputeGraphStats(parents_only).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PathExists(parents_only, x, x).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ComputeDeletionSet(parents_only, {x}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SubgraphQuery(parents_only, x).status().code(),
            StatusCode::kInvalidArgument);
  g.Seal();
  LIPSTICK_EXPECT_OK(
      ComputeGraphStats(GraphSnapshot::CaptureForParents(g)).status());
}

using FaultDeathTest = FaultTest;

TEST_F(FaultDeathTest, ErroredResultValueAbortsWithMessage) {
  Result<int> r(Status::InvalidArgument("the reason"));
  EXPECT_DEATH(r.value(), "the reason");
}

}  // namespace
}  // namespace lipstick
