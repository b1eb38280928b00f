// Tests for the static-analysis subsystem (src/analysis/): the shared
// diagnostics engine, the Pig/workflow linters (one broken fixture per
// diagnostic code, asserting the exact code and source location), and the
// provenance-graph validator, including a property test that mutates
// graphs produced by the WorkflowGen benchmark families and expects every
// seeded corruption to be rejected.

#include <gtest/gtest.h>

#include <span>
#include <string>

#include "analysis/diagnostics.h"
#include "analysis/graph_validator.h"
#include "analysis/pig_linter.h"
#include "analysis/workflow_linter.h"
#include "pig/parser.h"
#include "pig/udf.h"
#include "provenance/graph.h"
#include "workflow/wfdsl.h"
#include "workflowgen/arctic.h"
#include "workflowgen/dealership.h"

namespace lipstick::analysis {
namespace {

using workflowgen::ArcticConfig;
using workflowgen::ArcticTopology;
using workflowgen::ArcticWorkflow;
using workflowgen::DealershipConfig;
using workflowgen::DealershipWorkflow;

/// Parses the workflow DSL source and runs the workflow linter over it.
DiagnosticSink LintWf(const std::string& source) {
  Result<Workflow> wf = ParseWorkflow(source);
  EXPECT_TRUE(wf.ok()) << wf.status().ToString();
  DiagnosticSink sink;
  if (wf.ok()) {
    pig::UdfRegistry udfs;
    LintWorkflow(*wf, &udfs, &sink);
  }
  return sink;
}

/// Asserts that `sink` contains a diagnostic with `code` anchored exactly
/// at line:column.
void ExpectDiagAt(const DiagnosticSink& sink, const std::string& code,
                  int line, int column) {
  const Diagnostic* diag = sink.Find(code);
  ASSERT_NE(diag, nullptr)
      << "no " << code << " in:\n" << sink.RenderText();
  EXPECT_EQ(diag->loc.line, line) << sink.RenderText();
  EXPECT_EQ(diag->loc.column, column) << sink.RenderText();
}

/// Asserts the message and note of the first `code` diagnostic in `sink`.
void ExpectDiagText(const DiagnosticSink& sink, const std::string& code,
                    const std::string& message, const std::string& note) {
  const Diagnostic* diag = sink.Find(code);
  ASSERT_NE(diag, nullptr)
      << "no " << code << " in:\n" << sink.RenderText();
  EXPECT_EQ(diag->message, message);
  EXPECT_EQ(diag->note, note);
}

/// A minimal valid module wrapping one qout statement block, used by the
/// Pig-linter fixtures. The block starts at line 4, column 8.
std::string OneModuleWf(const std::string& qout_body,
                        const std::string& extra_decls = "") {
  return "module m {\n"
         "  input In(x: int, s: chararray);\n" +
         extra_decls +
         "  output Out(x: int);\n"
         "  qout {\n" +
         qout_body +
         "  }\n"
         "}\n"
         "node n = m;\n";
}

/// ------------------------- diagnostics engine -------------------------

TEST(DiagnosticsTest, SeverityCountingAndLookup) {
  DiagnosticSink sink;
  sink.Report("X0001", Severity::kNote, {1, 1}, "a note");
  sink.Report("X0002", Severity::kWarning, {2, 1}, "a warning");
  sink.Report("X0003", Severity::kError, {3, 1}, "an error");
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.CountAtLeast(Severity::kNote), 3u);
  EXPECT_EQ(sink.CountAtLeast(Severity::kWarning), 2u);
  EXPECT_EQ(sink.CountAtLeast(Severity::kError), 1u);
  EXPECT_TRUE(sink.HasErrors());
  EXPECT_TRUE(sink.Has("X0002"));
  EXPECT_FALSE(sink.Has("X9999"));
}

TEST(DiagnosticsTest, SortOrdersByLocationThenCode) {
  DiagnosticSink sink;
  sink.Report("B0002", Severity::kError, {5, 2}, "later");
  sink.Report("A0001", Severity::kError, {5, 2}, "same spot");
  sink.Report("C0003", Severity::kError, {1, 9}, "first line");
  sink.Sort();
  EXPECT_EQ(sink.diagnostics()[0].code, "C0003");
  EXPECT_EQ(sink.diagnostics()[1].code, "A0001");
  EXPECT_EQ(sink.diagnostics()[2].code, "B0002");
}

TEST(DiagnosticsTest, TextRenderingIncludesFileLocationAndCode) {
  DiagnosticSink sink;
  sink.Report("L0199", Severity::kError, {7, 3}, "boom", "context");
  std::string text = sink.RenderText("wf.wf");
  EXPECT_NE(text.find("wf.wf:7:3: error: boom [L0199]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("note: context"), std::string::npos) << text;
}

TEST(DiagnosticsTest, JsonRenderingEscapesAndStructures) {
  DiagnosticSink sink;
  sink.Report("G0301", Severity::kWarning, {2, 4}, "say \"hi\"\n");
  std::string json = sink.RenderJson();
  EXPECT_NE(json.find("\"code\": \"G0301\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\": \"warning\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("say \\\"hi\\\"\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\": 2"), std::string::npos) << json;
}

/// ------------------------- Pig linter fixtures ------------------------
/// Each fixture seeds exactly one defect and asserts its code and the
/// exact line:column in whole-file coordinates.

TEST(PigLinterTest, L0101UndefinedAlias) {
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    Out = FOREACH Ghost GENERATE x;\n"));
  ExpectDiagAt(sink, "L0101", 5, 5);
  // One defect, one report: the target is poisoned, not cascaded.
  EXPECT_EQ(sink.CountAtLeast(Severity::kError), 1u) << sink.RenderText();
}

TEST(PigLinterTest, L0102DeadRebind) {
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    A = FILTER In BY x > 0;\n"
      "    A = FILTER In BY x < 0;\n"
      "    Out = FOREACH A GENERATE x;\n"));
  ExpectDiagAt(sink, "L0102", 6, 5);
}

TEST(PigLinterTest, L0102NotFiredForAccumulatorIdiom) {
  // `S = UNION S, In` reads the previous binding in the same statement.
  std::string src =
      "module m {\n"
      "  input In(x: int);\n"
      "  state S(x: int);\n"
      "  output Out(x: int);\n"
      "  qstate { S = UNION S, In; }\n"
      "  qout { Out = FOREACH In GENERATE x; }\n"
      "}\n"
      "node n = m;\n";
  DiagnosticSink sink = LintWf(src);
  EXPECT_FALSE(sink.Has("L0102")) << sink.RenderText();
  EXPECT_EQ(sink.CountAtLeast(Severity::kWarning), 0u) << sink.RenderText();
}

TEST(PigLinterTest, L0103UnknownField) {
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    Out = FOREACH In GENERATE nope;\n"));
  ExpectDiagAt(sink, "L0103", 5, 31);
  ExpectDiagText(sink, "L0103",
                 "module m qout: field 'nope' not found (or ambiguous) in "
                 "schema (x:int, s:chararray)",
                 "available fields: (x:int, s:chararray)");
}

TEST(PigLinterTest, L0104TypeMismatch) {
  // Binary expressions anchor at the operator token.
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    Out = FOREACH In GENERATE s + 1;\n"));
  ExpectDiagAt(sink, "L0104", 5, 33);
  ExpectDiagText(sink, "L0104",
                 "module m qout: arithmetic requires numeric operands",
                 "operands have types chararray and int");
}

TEST(PigLinterTest, BothOperandsOfOneOperatorAreChecked) {
  // The left operand is ill-typed and the right one does not resolve:
  // one diagnostic each, in source order.
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    Out = FOREACH In GENERATE (s + 1) + nope;\n"));
  ASSERT_EQ(sink.size(), 2u) << sink.RenderText();
  EXPECT_EQ(sink.diagnostics()[0].code, "L0104");
  EXPECT_EQ(sink.diagnostics()[1].code, "L0103");
  ExpectDiagAt(sink, "L0104", 5, 34);
  ExpectDiagAt(sink, "L0103", 5, 41);
  ExpectDiagText(sink, "L0104",
                 "module m qout: arithmetic requires numeric operands",
                 "operands have types chararray and int");
  ExpectDiagText(sink, "L0103",
                 "module m qout: field 'nope' not found (or ambiguous) in "
                 "schema (x:int, s:chararray)",
                 "available fields: (x:int, s:chararray)");
}

TEST(PigLinterTest, L0104FilterConditionMustBeBool) {
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    F = FILTER In BY x + 1;\n"
      "    Out = FOREACH F GENERATE x;\n"));
  ExpectDiagAt(sink, "L0104", 5, 24);
  ExpectDiagText(sink, "L0104",
                 "module m qout: FILTER condition must be boolean",
                 "condition has type int");
}

TEST(PigLinterTest, L0105UnknownFunction) {
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    Out = FOREACH In GENERATE Frobnicate(x);\n"));
  ExpectDiagAt(sink, "L0105", 5, 31);
  ExpectDiagText(sink, "L0105", "module m qout: unknown function 'Frobnicate'",
                 "not a built-in aggregate and not in the UDF registry");
}

TEST(PigLinterTest, L0106AggregateArity) {
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    Out = FOREACH In GENERATE COUNT(x);\n"));
  ExpectDiagAt(sink, "L0106", 5, 31);
  ExpectDiagText(sink, "L0106", "module m qout: COUNT requires a bag argument",
                 "argument has type int; aggregates run after GROUP");
}

TEST(PigLinterTest, L0107UnusedAlias) {
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    Lonely = FILTER In BY x > 0;\n"
      "    Out = FOREACH In GENERATE x;\n"));
  ExpectDiagAt(sink, "L0107", 5, 5);
  EXPECT_EQ(sink.Find("L0107")->severity, Severity::kWarning);
  ExpectDiagText(sink, "L0107", "module m qout: alias 'Lonely' is never used",
                 "it is not an output or state relation; drop the statement "
                 "or consume the alias");
}

TEST(PigLinterTest, L0108PositionalOutOfRange) {
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    Out = FOREACH In GENERATE $7;\n"));
  ExpectDiagAt(sink, "L0108", 5, 31);
  ExpectDiagText(sink, "L0108",
                 "module m qout: positional reference $7 out of range",
                 "the input has 2 field(s): (x:int, s:chararray)");
}

TEST(PigLinterTest, L0109DuplicateFieldAlias) {
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    Out2 = FOREACH In GENERATE x AS a, s AS a;\n"
      "    Out = FOREACH In GENERATE x;\n"));
  ExpectDiagAt(sink, "L0109", 5, 40);
  EXPECT_EQ(sink.Find("L0109")->severity, Severity::kWarning);
}

TEST(PigLinterTest, L0110StatementRejectedBySchemaInference) {
  // UNION of incompatible schemas is rejected by the engine's own
  // inference; the linter has no more specific code for it.
  DiagnosticSink sink = LintWf(OneModuleWf(
      "    Pairs = FOREACH In GENERATE x;\n"
      "    U = UNION In, Pairs;\n"
      "    Out = FOREACH U GENERATE x;\n"));
  ExpectDiagAt(sink, "L0110", 6, 5);
}

TEST(PigLinterTest, DirectApiWithRequiredOutputs) {
  Result<pig::Program> program = pig::ParseProgram(
      "Out = FOREACH In GENERATE x;\n");
  ASSERT_TRUE(program.ok());
  PigLintOptions options;
  options.env.emplace(
      "In", Schema::Make({Field("x", FieldType::Int())}));
  options.required_outputs.insert("Out");
  DiagnosticSink sink;
  LintProgram(*program, options, &sink);
  EXPECT_TRUE(sink.empty()) << sink.RenderText();
}

/// ----------------------- workflow linter fixtures ---------------------

constexpr const char* kPassthroughModule =
    "module pass {\n"                         // line 1
    "  input In(x: int);\n"
    "  output Out(x: int);\n"
    "  qout { Out = FOREACH In GENERATE x; }\n"
    "}\n";                                    // line 5

TEST(WorkflowLinterTest, CleanWorkflowHasNoFindings) {
  DiagnosticSink sink = LintWf(
      std::string(kPassthroughModule) +
      "node a = pass;\n"
      "node b = pass;\n"
      "edge a -> b : Out -> In;\n");
  EXPECT_TRUE(sink.empty()) << sink.RenderText();
}

TEST(WorkflowLinterTest, W0201UnknownModule) {
  DiagnosticSink sink = LintWf(
      std::string(kPassthroughModule) +
      "node a = pass;\n"
      "node b = ghost;\n"
      "edge a -> b : Out -> In;\n");
  ExpectDiagAt(sink, "W0201", 7, 6);
}

TEST(WorkflowLinterTest, W0202Cycle) {
  DiagnosticSink sink = LintWf(
      std::string(kPassthroughModule) +
      "node a = pass;\n"
      "node b = pass;\n"
      "edge a -> b : Out -> In;\n"
      "edge b -> a : Out -> In;\n");
  ExpectDiagAt(sink, "W0202", 8, 6);
}

TEST(WorkflowLinterTest, W0203UnknownEdgeRelation) {
  DiagnosticSink sink = LintWf(
      std::string(kPassthroughModule) +
      "node a = pass;\n"
      "node b = pass;\n"
      "edge a -> b : Mystery -> In;\n");
  ExpectDiagAt(sink, "W0203", 8, 6);
}

TEST(WorkflowLinterTest, W0204EdgeSchemaMismatch) {
  DiagnosticSink sink = LintWf(
      std::string(kPassthroughModule) +
      "module wide {\n"                                          // line 6
      "  input In(x: int, y: int);\n"
      "  output Out(x: int, y: int);\n"
      "  qout { Out = FOREACH In GENERATE x, y; }\n"
      "}\n"
      "node a = pass;\n"
      "node b = wide;\n"
      "edge a -> b : Out -> In;\n");                             // line 13
  ExpectDiagAt(sink, "W0204", 13, 6);
}

TEST(WorkflowLinterTest, W0205UncoveredInput) {
  DiagnosticSink sink = LintWf(
      std::string(kPassthroughModule) +
      "module two {\n"
      "  input A(x: int);\n"
      "  input B(x: int);\n"
      "  output Out(x: int);\n"
      "  qout { Out = UNION A, B; }\n"
      "}\n"
      "node a = pass;\n"
      "node b = two;\n"                                          // line 13
      "edge a -> b : Out -> A;\n");
  ExpectDiagAt(sink, "W0205", 13, 6);
}

TEST(WorkflowLinterTest, W0206DanglingOutput) {
  DiagnosticSink sink = LintWf(
      std::string(kPassthroughModule) +
      "module two_out {\n"
      "  input In(x: int);\n"
      "  output Main(x: int);\n"
      "  output Extra(x: int);\n"
      "  qout {\n"
      "    Main = FOREACH In GENERATE x;\n"
      "    Extra = FILTER In BY x > 0;\n"
      "  }\n"
      "}\n"
      "node a = two_out;\n"                                      // line 15
      "node b = pass;\n"
      "edge a -> b : Main -> In;\n");
  ExpectDiagAt(sink, "W0206", 15, 6);
  EXPECT_EQ(sink.Find("W0206")->severity, Severity::kWarning);
}

TEST(WorkflowLinterTest, W0207UnusedModule) {
  DiagnosticSink sink = LintWf(
      std::string(kPassthroughModule) +
      "module spare {\n"                                         // line 6
      "  input In(x: int);\n"
      "  output Out(x: int);\n"
      "  qout { Out = FOREACH In GENERATE x; }\n"
      "}\n"
      "node a = pass;\n");
  ExpectDiagAt(sink, "W0207", 6, 8);
  EXPECT_EQ(sink.Find("W0207")->severity, Severity::kWarning);
}

TEST(WorkflowLinterTest, W0208InstanceConflict) {
  DiagnosticSink sink = LintWf(
      std::string(kPassthroughModule) +
      "module pass2 {\n"
      "  input In(x: int);\n"
      "  output Out(x: int);\n"
      "  qout { Out = FOREACH In GENERATE x; }\n"
      "}\n"
      "node a = pass as shared;\n"
      "node b = pass2 as shared;\n"                              // line 12
      "edge a -> b : Out -> In;\n");
  ExpectDiagAt(sink, "W0208", 12, 6);
}

TEST(WorkflowLinterTest, W0209StateNeverWritten) {
  DiagnosticSink sink = LintWf(
      "module lookup {\n"
      "  input In(x: int);\n"
      "  state Table(x: int);\n"
      "  output Out(x: int);\n"
      "  qout { Out = UNION In, Table; }\n"
      "}\n"
      "node n = lookup;\n");
  const Diagnostic* diag = sink.Find("W0209");
  ASSERT_NE(diag, nullptr) << sink.RenderText();
  EXPECT_EQ(diag->severity, Severity::kNote);
  // Notes do not fail the lint gate.
  EXPECT_EQ(sink.CountAtLeast(Severity::kWarning), 0u) << sink.RenderText();
}

TEST(WorkflowLinterTest, W0210OutputNeverBound) {
  DiagnosticSink sink = LintWf(
      "module broken {\n"
      "  input In(x: int);\n"
      "  output Out(x: int);\n"
      "  qout {\n"                                               // line 4
      "    Other = FOREACH In GENERATE x;\n"
      "  }\n"
      "}\n"
      "node n = broken;\n");
  ExpectDiagAt(sink, "W0210", 4, 8);
}

TEST(WorkflowLinterTest, W0211Disconnected) {
  DiagnosticSink sink = LintWf(
      std::string(kPassthroughModule) +
      "node a = pass;\n"
      "node b = pass;\n"
      "node c = pass;\n"                                         // line 8
      "edge a -> b : Out -> In;\n");
  ExpectDiagAt(sink, "W0211", 8, 6);
}

TEST(WorkflowLinterTest, MultipleDefectsAllReportedInOnePass) {
  // Unlike Workflow::Validate (fail-fast), the linter recovers and
  // reports every independent defect.
  DiagnosticSink sink = LintWf(
      std::string(kPassthroughModule) +
      "node a = pass;\n"
      "node b = ghost;\n"
      "node c = pass;\n"
      "edge a -> c : Mystery -> In;\n");
  EXPECT_TRUE(sink.Has("W0201")) << sink.RenderText();
  EXPECT_TRUE(sink.Has("W0203")) << sink.RenderText();
  EXPECT_TRUE(sink.Has("W0211")) << sink.RenderText();
}

/// ------------------------- graph validator ----------------------------

/// Builds a miniature well-formed graph:
///   t1, t2 (tokens) -> times -> plus; const ⊗ times -> agg; one invocation
///   with an i-node wrapping t1.
struct MiniGraph {
  ProvenanceGraph graph;
  NodeId t1, t2, times, plus, cv, tensor, agg, inode;
  uint32_t inv;

  MiniGraph() {
    ShardWriter writer = graph.writer();
    inv = writer.BeginInvocation("m", "m1", 0);
    t1 = writer.Token("a");
    t2 = writer.Token("b");
    times = writer.Times({t1, t2});
    plus = writer.Plus({times});
    cv = writer.ConstValue(Value::Int(7));
    tensor = writer.Tensor(cv, times);
    agg = writer.Aggregate("SUM", {tensor}, Value::Int(7));
    inode = writer.ModuleInput(inv, t1);
    graph.Seal();
  }
};

DiagnosticSink Validate(const ProvenanceGraph& graph) {
  DiagnosticSink sink;
  ValidateGraph(graph, &sink);
  return sink;
}

/// Appends one parent edge to `id` by replacing its parent list.
void AppendParent(ProvenanceGraph& graph, NodeId id, NodeId parent) {
  std::span<const NodeId> old = graph.ParentsOf(id);
  std::vector<NodeId> parents(old.begin(), old.end());
  parents.push_back(parent);
  graph.SetParents(id, parents);
}

TEST(GraphValidatorTest, AcceptsWellFormedGraph) {
  MiniGraph mini;
  DiagnosticSink sink = Validate(mini.graph);
  EXPECT_TRUE(sink.empty()) << sink.RenderText();
  EXPECT_TRUE(CheckGraphInvariants(mini.graph).ok());
}

TEST(GraphValidatorTest, G0301DanglingParent) {
  MiniGraph mini;
  AppendParent(mini.graph, mini.plus, MakeNodeId(9, 123));  // no shard 9
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0301"));
}

TEST(GraphValidatorTest, G0302JointNodeOverDeadParent) {
  MiniGraph mini;
  mini.graph.SetAlive(mini.t2, false);  // · keeps a dead operand
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0302"));
}

TEST(GraphValidatorTest, G0303TokenWithParents) {
  MiniGraph mini;
  AppendParent(mini.graph, mini.t1, mini.t2);
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0303"));
}

TEST(GraphValidatorTest, G0304DerivationWithoutParents) {
  MiniGraph mini;
  mini.graph.SetParents(mini.plus, {});
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0304"));
}

TEST(GraphValidatorTest, G0304ValueFlagInconsistent) {
  MiniGraph mini;
  mini.graph.SetValueNodeFlag(mini.cv, false);
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0304"));
}

TEST(GraphValidatorTest, G0305TensorArityBroken) {
  MiniGraph mini;
  AppendParent(mini.graph, mini.tensor, mini.t1);
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0305"));
}

TEST(GraphValidatorTest, G0305TensorOperandsSwapped) {
  MiniGraph mini;
  std::span<const NodeId> p = mini.graph.ParentsOf(mini.tensor);
  const NodeId swapped[2] = {p[1], p[0]};
  mini.graph.SetParents(mini.tensor, swapped);
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0305"));
}

TEST(GraphValidatorTest, G0306AggregateOverConst) {
  MiniGraph mini;
  const NodeId only_const[1] = {mini.cv};
  mini.graph.SetParents(mini.agg, only_const);
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0306"));
}

TEST(GraphValidatorTest, G0307UnknownInvocationTag) {
  MiniGraph mini;
  mini.graph.SetInvocationTag(mini.plus, 42);
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0307"));
}

TEST(GraphValidatorTest, G0307AbortedInvocationWithSurvivors) {
  MiniGraph mini;
  // Abort the invocation record but leave its nodes alive: the rollback
  // that should have killed them never ran.
  mini.graph.AbortInvocation(mini.inv);
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0307"));
}

TEST(GraphValidatorTest, G0308CorruptedInvocationRecord) {
  MiniGraph mini;
  mini.graph.SetRole(mini.inode, NodeRole::kIntermediate);
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0308"));
}

TEST(GraphValidatorTest, G0309Cycle) {
  MiniGraph mini;
  AppendParent(mini.graph, mini.times, mini.plus);
  mini.graph.Seal();
  EXPECT_TRUE(Validate(mini.graph).Has("G0309"));
}

TEST(GraphValidatorTest, G0310UnsealedIsWarning) {
  MiniGraph mini;
  mini.graph.MarkDirty();
  DiagnosticSink sink = Validate(mini.graph);
  ASSERT_TRUE(sink.Has("G0310")) << sink.RenderText();
  EXPECT_EQ(sink.Find("G0310")->severity, Severity::kWarning);
  EXPECT_FALSE(sink.HasErrors()) << sink.RenderText();
}

TEST(GraphValidatorTest, G0310StaleSealIsError) {
  MiniGraph mini;
  // Mutate parents, then force the sealed() flag back on without
  // rebuilding: the children adjacency is stale while the graph claims
  // it is fresh.
  AppendParent(mini.graph, mini.plus, mini.t1);
  mini.graph.MarkSealed();
  DiagnosticSink sink = Validate(mini.graph);
  ASSERT_TRUE(sink.Has("G0310")) << sink.RenderText();
  EXPECT_EQ(sink.Find("G0310")->severity, Severity::kError);
}

TEST(GraphValidatorTest, CheckGraphInvariantsFoldsToInternalError) {
  MiniGraph mini;
  mini.graph.SetParents(mini.plus, {});
  mini.graph.Seal();
  Status status = CheckGraphInvariants(mini.graph);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("G0304"), std::string::npos)
      << status.message();
}

/// --------------------- WorkflowGen property test ----------------------
/// Real graphs from both benchmark families validate cleanly; every
/// seeded mutation is rejected.

ProvenanceGraph DealershipGraph() {
  DealershipConfig config;
  config.num_cars = 40;
  config.num_executions = 2;
  config.accept_probability = 0;
  auto wf = DealershipWorkflow::Create(config);
  EXPECT_TRUE(wf.ok()) << wf.status().ToString();
  ProvenanceGraph graph;
  auto outputs = (*wf)->ExecuteOnce(1, &graph);
  EXPECT_TRUE(outputs.ok()) << outputs.status().ToString();
  graph.Seal();
  return graph;
}

ProvenanceGraph ArcticGraph() {
  ArcticConfig config;
  config.topology = ArcticTopology::kSerial;
  config.num_stations = 3;
  config.history_years = 1;
  auto wf = ArcticWorkflow::Create(config);
  EXPECT_TRUE(wf.ok()) << wf.status().ToString();
  ProvenanceGraph graph;
  auto outputs = (*wf)->ExecuteOnce(&graph);
  EXPECT_TRUE(outputs.ok()) << outputs.status().ToString();
  graph.Seal();
  return graph;
}

NodeId FirstNode(const ProvenanceGraph& graph, NodeLabel label,
                 size_t min_parents = 0) {
  NodeId found = kInvalidNode;
  graph.ForEachAliveNode([&](NodeId id) {
    if (found != kInvalidNode) return;
    NodeView n = graph.node(id);
    if (n.label() == label && n.parents().size() >= min_parents) found = id;
  });
  return found;
}

TEST(WorkflowGenPropertyTest, UnmutatedGraphsValidate) {
  ProvenanceGraph dealership = DealershipGraph();
  DiagnosticSink sink = Validate(dealership);
  EXPECT_FALSE(sink.HasErrors()) << sink.RenderText();
  EXPECT_GT(dealership.num_alive(), 0u);

  ProvenanceGraph arctic = ArcticGraph();
  sink = Validate(arctic);
  EXPECT_FALSE(sink.HasErrors()) << sink.RenderText();
  EXPECT_GT(arctic.num_alive(), 0u);
}

TEST(WorkflowGenPropertyTest, DroppedParentsAreRejected) {
  ProvenanceGraph graph = DealershipGraph();
  NodeId victim = FirstNode(graph, NodeLabel::kTimes, 1);
  ASSERT_NE(victim, kInvalidNode);
  graph.SetParents(victim, {});
  graph.Seal();
  DiagnosticSink sink = Validate(graph);
  EXPECT_TRUE(sink.HasErrors()) << sink.RenderText();
  EXPECT_TRUE(sink.Has("G0304")) << sink.RenderText();
}

TEST(WorkflowGenPropertyTest, BrokenTensorArityIsRejected) {
  ProvenanceGraph graph = ArcticGraph();
  NodeId tensor = FirstNode(graph, NodeLabel::kTensor);
  ASSERT_NE(tensor, kInvalidNode);
  NodeId token = FirstNode(graph, NodeLabel::kToken);
  ASSERT_NE(token, kInvalidNode);
  AppendParent(graph, tensor, token);
  graph.Seal();
  DiagnosticSink sink = Validate(graph);
  EXPECT_TRUE(sink.HasErrors()) << sink.RenderText();
  EXPECT_TRUE(sink.Has("G0305")) << sink.RenderText();
}

TEST(WorkflowGenPropertyTest, UnsealedGraphIsFlagged) {
  ProvenanceGraph graph = DealershipGraph();
  graph.MarkDirty();
  DiagnosticSink sink = Validate(graph);
  EXPECT_GE(sink.CountAtLeast(Severity::kWarning), 1u) << sink.RenderText();
  EXPECT_TRUE(sink.Has("G0310")) << sink.RenderText();
}

TEST(WorkflowGenPropertyTest, DeadParentUnderJointNodeIsRejected) {
  ProvenanceGraph graph = ArcticGraph();
  NodeId times = FirstNode(graph, NodeLabel::kTimes, 2);
  ASSERT_NE(times, kInvalidNode);
  NodeId parent = graph.ParentsOf(times)[0];
  graph.SetAlive(parent, false);
  graph.Seal();
  DiagnosticSink sink = Validate(graph);
  EXPECT_TRUE(sink.HasErrors()) << sink.RenderText();
}

TEST(WorkflowGenPropertyTest, AbortedInvocationCorruptionIsRejected) {
  ProvenanceGraph graph = DealershipGraph();
  ASSERT_GT(graph.invocations().size(), 0u);
  // Clear the record without killing its nodes: simulates a rollback that
  // lost the race with the shard writer.
  graph.AbortInvocation(0);
  graph.Seal();
  DiagnosticSink sink = Validate(graph);
  EXPECT_TRUE(sink.HasErrors()) << sink.RenderText();
  EXPECT_TRUE(sink.Has("G0307")) << sink.RenderText();
}

/// The executor's debug-build hook reuses CheckGraphInvariants; cover the
/// integration surface explicitly so release-test runs (NDEBUG) still
/// exercise it.
TEST(WorkflowGenPropertyTest, ExecutorGraphsPassTheExecutorSelfCheck) {
  ProvenanceGraph dealership = DealershipGraph();
  EXPECT_TRUE(CheckGraphInvariants(dealership).ok());
  ProvenanceGraph arctic = ArcticGraph();
  EXPECT_TRUE(CheckGraphInvariants(arctic).ok());
}

}  // namespace
}  // namespace lipstick::analysis
