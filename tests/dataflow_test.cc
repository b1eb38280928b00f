// Tests for the static dataflow engine (src/analysis/dataflow.h) and the
// predictive provenance cost model (src/analysis/cost_model.h): interval
// arithmetic, one broken fixture per D04xx diagnostic code (asserting the
// exact code and source location), deletion-propagation classification,
// byte-stable diagnostic rendering, concrete-mode exactness against the
// real executor, interval-mode soundness as a property over the
// WorkflowGen families, and validation of the byte formulas against
// ProvenanceGraph::ComputeMemoryStats.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "analysis/dataflow.h"
#include "analysis/diagnostics.h"
#include "pig/udf.h"
#include "provenance/graph.h"
#include "test_util.h"
#include "workflow/executor.h"
#include "workflow/wfdsl.h"
#include "workflowgen/arctic.h"
#include "workflowgen/dealership.h"

namespace lipstick::analysis {
namespace {

using testing::I;
using testing::T;

/// Parses the workflow DSL source and runs the dataflow analysis.
Result<WorkflowFacts> AnalyzeSource(const std::string& source,
                                    const AnalyzeOptions& options,
                                    DiagnosticSink* sink) {
  Result<Workflow> wf = ParseWorkflow(source);
  if (!wf.ok()) return wf.status();
  return AnalyzeDataflow(*wf, options, sink);
}

/// Asserts that `sink` contains a diagnostic with `code` anchored exactly
/// at line:column.
void ExpectDiagAt(const DiagnosticSink& sink, const std::string& code,
                  int line, int column) {
  const Diagnostic* diag = sink.Find(code);
  ASSERT_NE(diag, nullptr) << "no " << code << " in:\n" << sink.RenderText();
  EXPECT_EQ(diag->loc.line, line) << sink.RenderText();
  EXPECT_EQ(diag->loc.column, column) << sink.RenderText();
}

/// The running-total example, inlined (source feeding a stateful
/// accumulator: the canonical amplifying-input workflow).
const char* kRunningTotalWf =
    "module source {\n"                               // 1
    "  input Ext(x: int);\n"                          // 2
    "  output Out(x: int);\n"                         // 3
    "  qout {\n"                                      // 4
    "    Out = FOREACH Ext GENERATE x;\n"             // 5
    "  }\n"                                           // 6
    "}\n"                                             // 7
    "module stats {\n"                                // 8
    "  input In(x: int);\n"                           // 9
    "  state Seen(x: int);\n"                         // 10
    "  output Total(t: int);\n"                       // 11
    "  qstate {\n"                                    // 12
    "    Seen = UNION Seen, In;\n"                    // 13
    "  }\n"                                           // 14
    "  qout {\n"                                      // 15
    "    G = GROUP Seen ALL;\n"                       // 16
    "    Total = FOREACH G GENERATE SUM(Seen.x) AS t;\n"  // 17
    "  }\n"                                           // 18
    "}\n"                                             // 19
    "node in = source;\n"                             // 20
    "node stats = stats;\n"                           // 21
    "edge in -> stats : Out -> In;\n";                // 22

/// A stateless pipeline exercising FILTER / JOIN / GROUP / UNION in one
/// stateful module (state only read through the JOIN).
const char* kPipelineWf =
    "module src {\n"                                  // 1
    "  input Ext(k: int, v: int);\n"                  // 2
    "  output Out(k: int, v: int);\n"                 // 3
    "  qout {\n"                                      // 4
    "    Out = FOREACH Ext GENERATE k, v;\n"          // 5
    "  }\n"                                           // 6
    "}\n"                                             // 7
    "module proc {\n"                                 // 8
    "  input In(k: int, v: int);\n"                   // 9
    "  state Hist(k: int, v: int);\n"                 // 10
    "  output Count(n: int);\n"                       // 11
    "  qstate {\n"                                    // 12
    "    Hist = UNION Hist, In;\n"                    // 13
    "  }\n"                                           // 14
    "  qout {\n"                                      // 15
    "    Big = FILTER In BY v > 2;\n"                 // 16
    "    J = JOIN Big BY k, Hist BY k;\n"             // 17
    "    G = GROUP J ALL;\n"                          // 18
    "    Count = FOREACH G GENERATE COUNT(J) AS n;\n" // 19
    "  }\n"                                           // 20
    "}\n"                                             // 21
    "node src = src;\n"                               // 22
    "node proc = proc;\n"                             // 23
    "edge src -> proc : Out -> In;\n";                // 24

Bag NumbersBag() {
  Bag bag;
  bag.Add(T({I(1), I(1)}));
  bag.Add(T({I(1), I(5)}));
  bag.Add(T({I(2), I(7)}));
  return bag;
}

/// ------------------------- interval arithmetic -------------------------

TEST(CardIntervalTest, SaturatingArithmetic) {
  CardInterval a = CardInterval::Range(2, 5);
  CardInterval b = CardInterval::Range(3, kCardInf);
  EXPECT_EQ((a + b).lo, 5u);
  EXPECT_EQ((a + b).hi, kCardInf);
  EXPECT_EQ((a * b).lo, 6u);
  EXPECT_EQ((a * b).hi, kCardInf);
  EXPECT_EQ((CardInterval::Zero() * b).hi, 0u);  // 0 * inf == 0 here
  EXPECT_EQ(a.Join(b), CardInterval::Range(2, kCardInf));
  EXPECT_EQ(a.CapAt(CardInterval::Exact(3)), CardInterval::Range(2, 3));
  EXPECT_TRUE(CardInterval::Exact(7).exact());
  EXPECT_TRUE(b.Contains(1000000));
  EXPECT_FALSE(a.Contains(6));
}

TEST(CardIntervalTest, ToStringForms) {
  EXPECT_EQ(CardInterval::Exact(7).ToString(), "7");
  EXPECT_EQ(CardInterval::Range(2, 9).ToString(), "[2, 9]");
  EXPECT_EQ(CardInterval::Unknown().ToString(), "[0, inf)");
}

/// --------------------- diagnostic fixtures (D04xx) ---------------------

DiagnosticSink AnalyzeForDiags(const std::string& source) {
  DiagnosticSink sink;
  AnalyzeOptions opt;
  Result<WorkflowFacts> facts = AnalyzeSource(source, opt, &sink);
  EXPECT_TRUE(facts.ok()) << facts.status().ToString();
  return sink;
}

TEST(DataflowDiagTest, D0401JoinKeyFamilyMismatch) {
  DiagnosticSink sink = AnalyzeForDiags(
      "module m {\n"                                               // 1
      "  input A(x: int, s: chararray);\n"                         // 2
      "  input B(y: int, t: chararray);\n"                         // 3
      "  output Out(x: int, s: chararray, y: int, t: chararray);\n"  // 4
      "  qout {\n"                                                 // 5
      "    Out = JOIN A BY x, B BY t;\n"                           // 6
      "  }\n"                                                      // 7
      "}\n"                                                        // 8
      "node n = m;\n");                                            // 9
  ExpectDiagAt(sink, "D0401", 6, 29);  // the chararray key `t`
}

TEST(DataflowDiagTest, D0402CrossBlowup) {
  DiagnosticSink sink = AnalyzeForDiags(
      "module m {\n"                       // 1
      "  input A(x: int);\n"               // 2
      "  input B(y: int);\n"               // 3
      "  output Out(x: int, y: int);\n"    // 4
      "  qout {\n"                         // 5
      "    Out = CROSS A, B;\n"            // 6
      "  }\n"                              // 7
      "}\n"                                // 8
      "node n = m;\n");                    // 9
  ExpectDiagAt(sink, "D0402", 6, 5);
}

TEST(DataflowDiagTest, D0403StaticallyEmptyRelation) {
  DiagnosticSink sink = AnalyzeForDiags(
      "module m {\n"                          // 1
      "  input A(x: int);\n"                  // 2
      "  output Out(x: int);\n"               // 3
      "  qout {\n"                            // 4
      "    E = LIMIT A 0;\n"                  // 5
      "    Out = FOREACH E GENERATE x;\n"     // 6
      "  }\n"                                 // 7
      "}\n"                                   // 8
      "node n = m;\n");                       // 9
  ExpectDiagAt(sink, "D0403", 6, 5);
}

TEST(DataflowDiagTest, D0404DeadRelation) {
  DiagnosticSink sink = AnalyzeForDiags(
      "module m {\n"                             // 1
      "  input A(x: int);\n"                     // 2
      "  output Out(x: int);\n"                  // 3
      "  qout {\n"                               // 4
      "    Dead = FOREACH A GENERATE x;\n"       // 5
      "    Out = FOREACH A GENERATE x;\n"        // 6
      "  }\n"                                    // 7
      "}\n"                                      // 8
      "node n = m;\n");                          // 9
  ExpectDiagAt(sink, "D0404", 5, 5);
}

TEST(DataflowDiagTest, D0405UnreadFieldPruned) {
  // `s` crosses the module boundary in A's declared schema but no
  // expression ever reads it before the FOREACH drops it.
  DiagnosticSink sink = AnalyzeForDiags(
      "module m {\n"                             // 1
      "  input A(x: int, s: chararray);\n"       // 2
      "  output Out(x: int);\n"                  // 3
      "  qout {\n"                               // 4
      "    Out = FOREACH A GENERATE x;\n"        // 5
      "  }\n"                                    // 6
      "}\n"                                      // 7
      "node n = m;\n");                          // 8
  ExpectDiagAt(sink, "D0405", 5, 5);
}

TEST(DataflowDiagTest, D0405SuppressedWhenFieldIsRead) {
  // Same shape, but `s` is consumed by a FILTER first: no finding.
  DiagnosticSink sink = AnalyzeForDiags(
      "module m {\n"
      "  input A(x: int, s: chararray);\n"
      "  output Out(x: int);\n"
      "  qout {\n"
      "    F = FILTER A BY s == s;\n"
      "    Out = FOREACH F GENERATE x;\n"
      "  }\n"
      "}\n"
      "node n = m;\n");
  EXPECT_FALSE(sink.Has("D0405")) << sink.RenderText();
}

TEST(DataflowDiagTest, D0406ConstantCondition) {
  DiagnosticSink sink = AnalyzeForDiags(
      "module m {\n"                          // 1
      "  input A(x: int);\n"                  // 2
      "  output Out(x: int);\n"               // 3
      "  qout {\n"                            // 4
      "    Out = FILTER A BY 1 > 0;\n"        // 5
      "  }\n"                                 // 6
      "}\n"                                   // 7
      "node n = m;\n");                       // 8
  ExpectDiagAt(sink, "D0406", 5, 25);  // the constant condition's operator
}

TEST(DataflowDiagTest, D0407MixedComparison) {
  DiagnosticSink sink = AnalyzeForDiags(
      "module m {\n"                                 // 1
      "  input A(x: int, s: chararray);\n"           // 2
      "  output Out(x: int, s: chararray);\n"        // 3
      "  qout {\n"                                   // 4
      "    Out = FILTER A BY x == s;\n"              // 5
      "  }\n"                                        // 6
      "}\n"                                          // 7
      "node n = m;\n");                              // 8
  ExpectDiagAt(sink, "D0407", 5, 25);  // the comparison's operator
}

TEST(DataflowDiagTest, D0408AmplifyingInputIsANote) {
  DiagnosticSink sink = AnalyzeForDiags(kRunningTotalWf);
  const Diagnostic* diag = sink.Find("D0408");
  ASSERT_NE(diag, nullptr) << sink.RenderText();
  // kNote severity keeps the lint gate green on stateful-but-correct
  // workflows: amplification is a property, not a defect.
  EXPECT_EQ(diag->severity, Severity::kNote);
  EXPECT_EQ(sink.CountAtLeast(Severity::kWarning), 0u) << sink.RenderText();
}

/// -------------------- deletion-propagation classification --------------

TEST(DataflowDeletionTest, StateAccumulationIsAmplifying) {
  DiagnosticSink sink;
  AnalyzeOptions opt;
  opt.executions = 3;
  Result<WorkflowFacts> facts = AnalyzeSource(kRunningTotalWf, opt, &sink);
  LIPSTICK_ASSERT_OK(facts.status());
  ASSERT_EQ(facts->deletion.size(), 1u);
  EXPECT_EQ(facts->deletion[0].node_id, "in");
  EXPECT_EQ(facts->deletion[0].relation, "Ext");
  EXPECT_TRUE(facts->deletion[0].amplifying);
  EXPECT_TRUE(facts->deletion[0].reaches_state);
}

TEST(DataflowDeletionTest, PassThroughInputIsSafe) {
  DiagnosticSink sink;
  AnalyzeOptions opt;
  Result<WorkflowFacts> facts = AnalyzeSource(
      "module m {\n"
      "  input A(x: int);\n"
      "  output Out(x: int);\n"
      "  qout {\n"
      "    Out = FILTER A BY x > 0;\n"
      "  }\n"
      "}\n"
      "node n = m;\n",
      opt, &sink);
  LIPSTICK_ASSERT_OK(facts.status());
  ASSERT_EQ(facts->deletion.size(), 1u);
  EXPECT_FALSE(facts->deletion[0].amplifying);
  EXPECT_FALSE(facts->deletion[0].reaches_state);
  EXPECT_FALSE(sink.Has("D0408"));
}

/// -------------------- deterministic diagnostic rendering ---------------

TEST(DiagnosticDeterminismTest, RenderingIsStableUnderEmissionOrder) {
  // Two sinks with the same findings reported in opposite orders, spanning
  // multiple files, lines, and tie-broken codes.
  std::vector<Diagnostic> diags = {
      {"D0402", Severity::kWarning, {10, 5}, "second file", "", "b.wf"},
      {"D0401", Severity::kWarning, {10, 5}, "tie on position", "", "b.wf"},
      {"L0101", Severity::kError, {3, 9}, "first file", "a note", "a.wf"},
      {"W0201", Severity::kNote, {3, 2}, "earlier column", "", "a.wf"},
      {"G0301", Severity::kWarning, {0, 0}, "no location", "", ""},
  };
  DiagnosticSink forward, backward;
  for (const Diagnostic& d : diags) forward.Report(d);
  for (auto it = diags.rbegin(); it != diags.rend(); ++it) {
    backward.Report(*it);
  }
  EXPECT_EQ(forward.RenderText("z.wf"), backward.RenderText("z.wf"));
  EXPECT_EQ(forward.RenderJson("z.wf"), backward.RenderJson("z.wf"));

  // (file, line, column, code) order. The unlocated finding has an empty
  // `file`, which sorts before "a.wf" (the fallback name is applied only
  // at render time); within b.wf the code breaks the position tie.
  std::string text = forward.RenderText("z.wf");
  size_t z = text.find("z.wf");
  size_t a = text.find("a.wf:3:2");
  size_t a2 = text.find("a.wf:3:9");
  size_t b = text.find("D0401");
  size_t b2 = text.find("D0402");
  ASSERT_NE(z, std::string::npos) << text;
  EXPECT_LT(z, a) << text;
  EXPECT_LT(a, a2) << text;
  EXPECT_LT(a2, b) << text;
  EXPECT_LT(b, b2) << text;
}

/// -------------------- concrete mode: exact predictions -----------------

class ConcreteExactnessTest : public ::testing::Test {
 protected:
  /// Runs `execs` executions of the parsed workflow with `ext` bound to
  /// `input_node`.`input_rel`, tracking provenance; then analyzes the same
  /// workflow with the same inputs and compares.
  void RunAndAnalyze(const char* source, const std::string& input_node,
                     const std::string& input_rel, int execs) {
    Result<Workflow> wf = ParseWorkflow(source);
    LIPSTICK_ASSERT_OK(wf.status());
    WorkflowExecutor exec(&*wf, nullptr);
    LIPSTICK_ASSERT_OK(exec.Initialize());
    WorkflowInputs inputs;
    inputs[input_node][input_rel] = NumbersBag();
    for (int e = 0; e < execs; ++e) {
      LIPSTICK_ASSERT_OK(exec.Execute(inputs, &graph_).status());
    }
    graph_.Seal();

    AnalyzeOptions opt;
    opt.executions = execs;
    opt.inputs[input_node][input_rel] = NumbersBag();
    DiagnosticSink sink;
    Result<WorkflowFacts> facts = AnalyzeDataflow(*wf, opt, &sink);
    LIPSTICK_ASSERT_OK(facts.status());
    EXPECT_TRUE(facts->concrete) << "fell back to interval mode: "
                                 << (facts->notes.empty() ? ""
                                                          : facts->notes[0]);
    cost_ = PredictCost(*facts);
  }

  ProvenanceGraph graph_;
  CostReport cost_;
};

TEST_F(ConcreteExactnessTest, RunningTotalCountsAreExact) {
  RunAndAnalyze(kRunningTotalWf, "in", "Ext", 3);
  ASSERT_TRUE(cost_.nodes.exact());
  ASSERT_TRUE(cost_.edges.exact());
  EXPECT_EQ(cost_.nodes.lo, graph_.num_nodes());
  EXPECT_EQ(cost_.edges.lo, graph_.num_edges());
}

TEST_F(ConcreteExactnessTest, PipelineCountsAreExact) {
  RunAndAnalyze(kPipelineWf, "src", "Ext", 3);
  ASSERT_TRUE(cost_.nodes.exact());
  ASSERT_TRUE(cost_.edges.exact());
  EXPECT_EQ(cost_.nodes.lo, graph_.num_nodes());
  EXPECT_EQ(cost_.edges.lo, graph_.num_edges());
}

TEST_F(ConcreteExactnessTest, PredictedBytesWithin15Percent) {
  RunAndAnalyze(kRunningTotalWf, "in", "Ext", 3);
  ProvenanceGraph::MemoryStats actual = graph_.ComputeMemoryStats();
  uint64_t total = actual.total();
  ASSERT_GT(total, 0u);
  uint64_t predicted = cost_.est_bytes;
  double err = predicted > total ? static_cast<double>(predicted - total)
                                 : static_cast<double>(total - predicted);
  EXPECT_LE(err / static_cast<double>(total), 0.15)
      << "predicted " << predicted << " bytes, actual " << total;
}

/// A source that outputs everything it has seen, feeding a node whose UDF
/// fails on its 4th call. With two input rows per execution, the second of
/// three executions fails in `b` after `a` already ran.
const char* kFlakyWf =
    "module src {\n"
    "  input Ext(x: int);\n"
    "  state Seen(x: int);\n"
    "  output Out(x: int);\n"
    "  qstate {\n"
    "    Seen = UNION Seen, Ext;\n"
    "  }\n"
    "  qout {\n"
    "    Out = FOREACH Seen GENERATE x;\n"
    "  }\n"
    "}\n"
    "module sink {\n"
    "  input In(x: int);\n"
    "  output Res(y: int);\n"
    "  qout {\n"
    "    Res = FOREACH In GENERATE Flaky(x) AS y;\n"
    "  }\n"
    "}\n"
    "node a = src;\n"
    "node b = sink;\n"
    "edge a -> b : Out -> In;\n";

TEST(ConcreteFallbackTest, FailedRunLeavesTheIntervalFacts) {
  Result<Workflow> wf = ParseWorkflow(kFlakyWf);
  LIPSTICK_ASSERT_OK(wf.status());
  int calls = 0;
  pig::UdfRegistry udfs;
  LIPSTICK_ASSERT_OK(udfs.Register(
      "Flaky",
      [&calls](const std::vector<Value>& args) -> Result<Value> {
        if (++calls == 4) return Status::ExecutionError("Flaky gave up");
        return args[0];
      },
      FieldType::Int()));
  AnalyzeOptions opt;
  opt.executions = 3;
  opt.udfs = &udfs;
  Bag two;
  two.Add(T({I(1)}));
  two.Add(T({I(2)}));
  opt.inputs["a"]["Ext"] = two;
  Result<WorkflowFacts> facts = AnalyzeDataflow(*wf, opt, nullptr);
  LIPSTICK_ASSERT_OK(facts.status());
  EXPECT_FALSE(facts->concrete);
  ASSERT_EQ(facts->notes.size(), 1u);
  EXPECT_NE(facts->notes[0].find("node b (module sink, execution 1)"),
            std::string::npos)
      << facts->notes[0];

  // No concrete count of the executions that did commit leaks into the
  // table: it is exactly the interval domain's.
  opt.force_interval = true;
  Result<WorkflowFacts> interval = AnalyzeDataflow(*wf, opt, nullptr);
  LIPSTICK_ASSERT_OK(interval.status());
  ASSERT_EQ(facts->relations.size(), interval->relations.size());
  for (const auto& [node_id, rels] : interval->relations) {
    ASSERT_TRUE(facts->relations.count(node_id)) << node_id;
    const auto& got = facts->relations.at(node_id);
    ASSERT_EQ(got.size(), rels.size()) << node_id;
    for (const auto& [rel, want] : rels) {
      SCOPED_TRACE(node_id + "." + rel);
      ASSERT_TRUE(got.count(rel));
      const RelationFacts& f = got.at(rel);
      EXPECT_EQ(f.card.total, want.card.total)
          << f.card.total.ToString() << " vs " << want.card.total.ToString();
      EXPECT_EQ(f.card.state, want.card.state);
      EXPECT_EQ(f.est, want.est);
      ASSERT_EQ(f.schema == nullptr, want.schema == nullptr);
      if (f.schema) {
        EXPECT_EQ(f.schema->ToString(), want.schema->ToString());
      }
    }
  }
  EXPECT_EQ(facts->relations.at("a").at("Seen").card.total,
            CardInterval::Range(2, kCardInf));
  EXPECT_EQ(facts->relations.at("b").at("Res").card.total,
            CardInterval::Range(2, kCardInf));
}

/// -------------------- interval mode: soundness -------------------------

TEST(IntervalSoundnessTest, PipelineIntervalsContainGroundTruth) {
  Result<Workflow> wf = ParseWorkflow(kPipelineWf);
  LIPSTICK_ASSERT_OK(wf.status());
  WorkflowExecutor exec(&*wf, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());
  WorkflowInputs inputs;
  inputs["src"]["Ext"] = NumbersBag();
  ProvenanceGraph graph;
  for (int e = 0; e < 3; ++e) {
    LIPSTICK_ASSERT_OK(exec.Execute(inputs, &graph).status());
  }
  graph.Seal();

  // Same inputs, but forced into the interval domain: the transfer
  // functions must produce sound over-approximations of the run above.
  AnalyzeOptions opt;
  opt.executions = 3;
  opt.force_interval = true;
  opt.inputs["src"]["Ext"] = NumbersBag();
  DiagnosticSink sink;
  Result<WorkflowFacts> facts = AnalyzeDataflow(*wf, opt, &sink);
  LIPSTICK_ASSERT_OK(facts.status());
  EXPECT_FALSE(facts->concrete);
  CostReport cost = PredictCost(*facts);
  EXPECT_TRUE(cost.nodes.Contains(graph.num_nodes()))
      << cost.nodes.ToString() << " vs " << graph.num_nodes();
  EXPECT_TRUE(cost.edges.Contains(graph.num_edges()))
      << cost.edges.ToString() << " vs " << graph.num_edges();
}

struct ArcticCase {
  workflowgen::ArcticTopology topology;
  uint64_t seed;
};

class ArcticSoundnessTest : public ::testing::TestWithParam<ArcticCase> {};

TEST_P(ArcticSoundnessTest, IntervalBoundsContainRealRun) {
  workflowgen::ArcticConfig cfg;
  cfg.topology = GetParam().topology;
  cfg.num_stations = 4;
  cfg.history_years = 1;
  cfg.seed = GetParam().seed;
  auto arctic = workflowgen::ArcticWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(arctic.status());
  ProvenanceGraph graph;
  LIPSTICK_ASSERT_OK((*arctic)->RunSeries(2, &graph).status());
  graph.Seal();

  // No sample inputs: the analyzer only knows the workflow text, so its
  // intervals must still contain whatever the real run produced.
  AnalyzeOptions opt;
  opt.executions = 2;
  opt.udfs = &(*arctic)->udfs();
  DiagnosticSink sink;
  Result<WorkflowFacts> facts =
      AnalyzeDataflow((*arctic)->workflow(), opt, &sink);
  LIPSTICK_ASSERT_OK(facts.status());
  CostReport cost = PredictCost(*facts);
  EXPECT_TRUE(cost.nodes.Contains(graph.num_nodes()))
      << cost.nodes.ToString() << " vs " << graph.num_nodes();
  EXPECT_TRUE(cost.edges.Contains(graph.num_edges()))
      << cost.edges.ToString() << " vs " << graph.num_edges();
  EXPECT_TRUE(cost.total_bytes.Contains(graph.ComputeMemoryStats().total()))
      << cost.total_bytes.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ArcticSoundnessTest,
    ::testing::Values(
        ArcticCase{workflowgen::ArcticTopology::kSerial, 7},
        ArcticCase{workflowgen::ArcticTopology::kSerial, 99},
        ArcticCase{workflowgen::ArcticTopology::kParallel, 7},
        ArcticCase{workflowgen::ArcticTopology::kDense, 7}));

/// -------------------- byte formulas vs ComputeMemoryStats --------------

TEST(CostFormulaTest, MeasuredEmissionReproducesMemoryStats) {
  // A mid-sized dealership run gives a graph with wide nodes, values,
  // invocation records, and a few thousand interned strings. Profiling it
  // with MeasureEmission and pushing the result through the predictor's
  // byte formulas must land on ComputeMemoryStats' answer.
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 160;
  cfg.num_executions = 3;
  cfg.seed = 11;
  auto dealership = workflowgen::DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(dealership.status());
  ProvenanceGraph graph;
  LIPSTICK_ASSERT_OK((*dealership)->Run(&graph).status());
  graph.Seal();

  Emission em = MeasureEmission(graph);
  std::vector<InvocationProfile> invs = MeasureInvocations(graph);
  CostReport rep = PredictFromEmission(em, invs, /*concrete=*/true);
  ProvenanceGraph::MemoryStats actual = graph.ComputeMemoryStats();

  EXPECT_EQ(em.nodes.lo, graph.num_nodes());
  // Fixed-width columns, CSR, and invocation records mirror the exact
  // capacity model, so those components must match to the byte.
  EXPECT_EQ(rep.column_bytes.lo, actual.column_bytes);
  EXPECT_EQ(rep.csr_bytes.lo, actual.csr_bytes);
  EXPECT_EQ(rep.invocation_bytes.lo, actual.invocation_bytes);
  // The arena's capacity is growth-history dependent (bulk inserts), so
  // the model brackets it instead of pinning it.
  EXPECT_TRUE(rep.edge_arena_bytes.Contains(actual.edge_arena_bytes))
      << rep.edge_arena_bytes.ToString() << " vs "
      << actual.edge_arena_bytes;
  EXPECT_EQ(rep.value_bytes.lo, actual.value_bytes);
  // The interner's strings fit one arena chunk, and its span table and
  // index slots follow sizing rules the model mirrors.
  EXPECT_EQ(rep.interner_bytes.lo, actual.interner_bytes);
  // The total must stay within the 15% accuracy budget.
  uint64_t total = actual.total();
  uint64_t predicted = rep.total_bytes.lo;
  double err = predicted > total ? static_cast<double>(predicted - total)
                                 : static_cast<double>(total - predicted);
  EXPECT_LE(err / static_cast<double>(total), 0.15)
      << "predicted " << predicted << " bytes, actual " << total;
}

/// -------------------- facts sanity on interval mode --------------------

TEST(IntervalFactsTest, RunningTotalFactsShapes) {
  DiagnosticSink sink;
  AnalyzeOptions opt;
  opt.executions = 2;
  Result<WorkflowFacts> facts = AnalyzeSource(kRunningTotalWf, opt, &sink);
  LIPSTICK_ASSERT_OK(facts.status());
  EXPECT_FALSE(facts->concrete);
  ASSERT_TRUE(facts->relations.count("stats"));
  const auto& stats = facts->relations.at("stats");
  ASSERT_TRUE(stats.count("Total"));
  // GROUP ALL over a relation that may be empty yields at most one group.
  EXPECT_LE(stats.at("Total").card.total.hi, 1u);
  ASSERT_TRUE(stats.at("Total").schema != nullptr);
  EXPECT_EQ(stats.at("Total").schema->num_fields(), 1u);
  // Two executions of two modules were profiled.
  EXPECT_EQ(facts->invocations.size(), 4u);
}

}  // namespace
}  // namespace lipstick::analysis
