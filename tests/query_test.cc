#include <gtest/gtest.h>

#include <sstream>

#include "common/str_util.h"
#include "provenance/dot.h"
#include "provenance/opm.h"
#include "provenance/query.h"
#include "test_util.h"
#include "workflowgen/dealership.h"

namespace lipstick {
namespace {

using testing::Snap;

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto w = graph_.writer();
    inv_ = w.BeginInvocation("dealer", "dealer1", 0);
    x_ = w.Token("request");
    in_ = w.ModuleInput(inv_, x_);
    car_ = w.Token("car C2", NodeRole::kStateBase);
    s_ = w.ModuleState(inv_, car_);
    join_ = w.Times({in_, s_});
    group_ = w.Delta({join_});
    agg_ = w.Aggregate("COUNT", {join_}, Value::Int(1));
    out_ = w.ModuleOutput(inv_, group_);
    graph_.Seal();
  }

  ProvenanceGraph graph_;
  uint32_t inv_ = 0;
  NodeId x_, in_, car_, s_, join_, group_, agg_, out_;
};

TEST_F(QueryTest, FindNodesByLabel) {
  auto tokens = FindNodes(Snap(graph_), ByLabel(NodeLabel::kToken));
  EXPECT_EQ(tokens, (std::vector<NodeId>{x_, car_}));
  auto deltas = FindNodes(Snap(graph_), ByLabel(NodeLabel::kDelta));
  EXPECT_EQ(deltas, std::vector<NodeId>{group_});
}

TEST_F(QueryTest, FindNodesByRoleAndPayload) {
  auto state = FindNodes(Snap(graph_), ByRole(NodeRole::kModuleState));
  EXPECT_EQ(state, std::vector<NodeId>{s_});
  auto c2 = FindNodes(Snap(graph_), ByPayload("C2"));
  EXPECT_EQ(c2, std::vector<NodeId>{car_});
}

TEST_F(QueryTest, FindNodesByModule) {
  auto dealer_nodes = FindNodes(Snap(graph_), ByModule(graph_, "dealer"));
  EXPECT_FALSE(dealer_nodes.empty());
  auto none = FindNodes(Snap(graph_), ByModule(graph_, "aggregate"));
  EXPECT_TRUE(none.empty());
}

TEST_F(QueryTest, PredicateCombinators) {
  auto both = FindNodes(
      Snap(graph_), And(ByLabel(NodeLabel::kToken), ByPayload("request")));
  EXPECT_EQ(both, std::vector<NodeId>{x_});
  auto either = FindNodes(Snap(graph_), Or(ByLabel(NodeLabel::kDelta),
                                           ByLabel(NodeLabel::kAggregate)));
  EXPECT_EQ(either.size(), 2u);
  auto not_tokens = FindNodes(Snap(graph_), Not(ByLabel(NodeLabel::kToken)));
  EXPECT_EQ(not_tokens.size(), graph_.num_alive() - 2);
}

TEST_F(QueryTest, PathQueries) {
  EXPECT_TRUE(*PathExists(Snap(graph_), x_, out_));
  EXPECT_TRUE(*PathExists(Snap(graph_), car_, agg_));
  EXPECT_FALSE(*PathExists(Snap(graph_), out_, x_));  // direction matters
  EXPECT_FALSE(*PathExists(Snap(graph_), agg_, out_));

  auto path = *ShortestDerivationPath(Snap(graph_), x_, out_);
  // x -> in -> join -> group -> out: five nodes, four edges.
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), x_);
  EXPECT_EQ(path.back(), out_);
  EXPECT_TRUE(ShortestDerivationPath(Snap(graph_), out_, x_)->empty());
  EXPECT_EQ(*ShortestDerivationPath(Snap(graph_), x_, x_),
            std::vector<NodeId>{x_});
}

TEST_F(QueryTest, DependsOnSet) {
  // The join needs both the request and the state tuple; either alone
  // kills it (· semantics), and so does the pair.
  EXPECT_TRUE(*DependsOnSet(Snap(graph_), join_, {x_}));
  EXPECT_TRUE(*DependsOnSet(Snap(graph_), join_, {car_}));
  EXPECT_TRUE(*DependsOnSet(Snap(graph_), join_, {x_, car_}));
  // The invocation node depends on nothing.
  NodeId m = graph_.invocations()[inv_].m_node;
  EXPECT_FALSE(*DependsOnSet(Snap(graph_), m, {x_, car_}));
}

TEST_F(QueryTest, GraphStats) {
  GraphStats stats = *ComputeGraphStats(Snap(graph_));
  EXPECT_EQ(stats.nodes, graph_.num_alive());
  EXPECT_EQ(stats.edges, graph_.num_edges());
  EXPECT_EQ(stats.tokens, 2u);
  EXPECT_EQ(stats.invocations, 1u);
  EXPECT_GE(stats.max_fan_in, 2u);   // · nodes have two parents
  EXPECT_GE(stats.max_fan_out, 2u);  // join feeds group and agg
  // Longest chain: token -> i/s -> join -> group -> out = 4 edges.
  EXPECT_EQ(stats.depth, 4u);
}

TEST_F(QueryTest, DotOutputIsWellFormed) {
  std::ostringstream os;
  LIPSTICK_ASSERT_OK(WriteDot(GraphView::MakeIdentity(Snap(graph_)), os));
  std::string dot = os.str();
  EXPECT_NE(dot.find("digraph provenance"), std::string::npos);
  EXPECT_NE(dot.find("cluster_inv0"), std::string::npos);
  EXPECT_NE(dot.find("house"), std::string::npos);  // invocation node
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Every alive node appears.
  for (NodeId id : graph_.AllNodeIds()) {
    if (!graph_.Contains(id)) continue;
    EXPECT_NE(dot.find(StrCat("n", id, " [")), std::string::npos);
  }
}

TEST_F(QueryTest, DotSubsetRestriction) {
  GraphSnapshot snap = Snap(graph_);
  GraphView view = GraphView::MakeIdentity(snap);
  LIPSTICK_ASSERT_OK(view.ApplySubgraph({x_, in_}, false, false));
  std::ostringstream os;
  LIPSTICK_ASSERT_OK(WriteDot(view, os));
  std::string dot = os.str();
  EXPECT_NE(dot.find(StrCat("n", x_, " [")), std::string::npos);
  EXPECT_NE(dot.find(StrCat("n", x_, " -> n", in_)), std::string::npos);
  EXPECT_EQ(dot.find(StrCat("n", out_, " [")), std::string::npos);
}

TEST_F(QueryTest, OpmExportIsWellFormed) {
  std::ostringstream os;
  LIPSTICK_ASSERT_OK(WriteOpmXml(Snap(graph_), os));
  std::string xml = os.str();
  EXPECT_NE(xml.find("<opmGraph"), std::string::npos);
  EXPECT_NE(xml.find("<process id=\"p0\">"), std::string::npos);
  // The input and output tuples are artifacts linked to the process.
  EXPECT_NE(xml.find(StrCat("<artifact id=\"a", in_)), std::string::npos);
  EXPECT_NE(xml.find(StrCat("<used><effect ref=\"p0\"/><cause ref=\"a", in_)),
            std::string::npos);
  EXPECT_NE(xml.find(StrCat("<wasGeneratedBy><effect ref=\"a", out_)),
            std::string::npos);
  // Fine-grained internals (the join, the aggregate) are NOT exported —
  // the information loss the paper's model repairs.
  EXPECT_EQ(xml.find(StrCat("a", join_, "\"")), std::string::npos);
}

TEST(OpmWorkflowTest, CrossModuleDependenciesExported) {
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 120;
  cfg.num_executions = 1;
  cfg.seed = 5;
  auto wf = workflowgen::DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  ProvenanceGraph graph;
  LIPSTICK_ASSERT_OK((*wf)->Run(&graph).status());
  graph.Seal();
  std::ostringstream os;
  LIPSTICK_ASSERT_OK(WriteOpmXml(Snap(graph), os));
  std::string xml = os.str();
  // Data flowing dealer -> aggregator shows up as derivations and
  // triggered-by relations between processes.
  EXPECT_NE(xml.find("<wasDerivedFrom>"), std::string::npos);
  EXPECT_NE(xml.find("<wasTriggeredBy>"), std::string::npos);
  // Every invocation became a process.
  size_t count = 0;
  for (size_t pos = 0; (pos = xml.find("<process id=", pos)) !=
                       std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, graph.invocations().size());
}

TEST(QueryWorkflowTest, ProQLStyleAnalysisOnDealershipRun) {
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 240;
  cfg.num_executions = 3;
  cfg.seed = 11;
  cfg.accept_probability = 0;
  auto wf = workflowgen::DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  ProvenanceGraph graph;
  LIPSTICK_ASSERT_OK((*wf)->Run(&graph).status());
  graph.Seal();

  // "All COUNT aggregations inside dealer modules."
  auto counts = FindNodes(
      Snap(graph), And(ByLabel(NodeLabel::kAggregate), ByPayload("COUNT")));
  EXPECT_FALSE(counts.empty());
  for (NodeId id : counts) {
    uint32_t inv = graph.node(id).invocation();
    ASSERT_NE(inv, kNoInvocation);
    EXPECT_EQ(graph.str(graph.invocations()[inv].module_name), "dealer");
  }
  // Every black box in this workflow is calcbid.
  auto bbs = FindNodes(Snap(graph), ByLabel(NodeLabel::kBlackBox));
  for (NodeId id : bbs) EXPECT_EQ(graph.node(id).payload(), "calcbid");
  // There is a derivation path from some workflow input to some module
  // output of the aggregate module.
  auto inputs = FindNodes(Snap(graph), ByRole(NodeRole::kWorkflowInput));
  auto agg_outs = FindNodes(Snap(graph), And(ByRole(NodeRole::kModuleOutput),
                                             ByModule(graph, "aggregate")));
  ASSERT_FALSE(inputs.empty());
  ASSERT_FALSE(agg_outs.empty());
  bool found = false;
  for (NodeId in : inputs) {
    if (*PathExists(Snap(graph), in, agg_outs.front())) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(QueryWorkflowTest, StatsScaleWithExecutions) {
  GraphStats small, large;
  for (auto* out : {&small, &large}) {
    workflowgen::DealershipConfig cfg;
    cfg.num_cars = 120;
    cfg.num_executions = out == &small ? 1 : 4;
    cfg.seed = 2;
    cfg.accept_probability = 0;
    auto wf = workflowgen::DealershipWorkflow::Create(cfg);
    LIPSTICK_ASSERT_OK(wf.status());
    ProvenanceGraph graph;
    LIPSTICK_ASSERT_OK((*wf)->Run(&graph).status());
    graph.Seal();
    *out = *ComputeGraphStats(Snap(graph));
  }
  EXPECT_GT(large.nodes, small.nodes);
  EXPECT_GT(large.invocations, small.invocations);
  EXPECT_GE(large.depth, small.depth);  // later bids derive from history
}

}  // namespace
}  // namespace lipstick
