// Parameterized property suites: invariants that must hold on the
// provenance graph of *any* tracked workflow run, checked across a sweep
// of seeds, workloads, and topologies.

#include <gtest/gtest.h>

#include <sstream>

#include "provenance/deletion.h"
#include "provenance/provio.h"
#include "provenance/query.h"
#include "provenance/semiring.h"
#include "provenance/subgraph.h"
#include "provenance/zoom.h"
#include "test_util.h"
#include "workflowgen/arctic.h"
#include "workflowgen/dealership.h"

namespace lipstick {
namespace {

using testing::Snap;

/// ------------------- dealership graph properties -----------------------

class DealershipPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    workflowgen::DealershipConfig cfg;
    cfg.num_cars = 160;
    cfg.num_executions = 3;
    cfg.seed = GetParam();
    auto wf = workflowgen::DealershipWorkflow::Create(cfg);
    LIPSTICK_ASSERT_OK(wf.status());
    LIPSTICK_ASSERT_OK((*wf)->Run(&graph_).status());
    graph_.Seal();
  }

  ProvenanceGraph graph_;
};

TEST_P(DealershipPropertyTest, GraphIsAcyclicWithValidParents) {
  // Every parent reference resolves, and following parents never revisits
  // a node (derivation graphs are DAGs by construction).
  // (The memoized DFS would not terminate on a cycle.)
  GraphEvaluator<CountingSemiring> eval(Snap(graph_));
  for (NodeId id : graph_.AllNodeIds()) {
    if (!graph_.Contains(id)) continue;
    for (NodeId p : graph_.ParentsOf(id)) {
      EXPECT_TRUE(graph_.Contains(p)) << "dangling parent of " << id;
    }
    EXPECT_GE(eval.Eval(id), 1u)
        << "alive node " << id << " has zero derivations";
  }
}

TEST_P(DealershipPropertyTest, DeletionMatchesCountingSemiring) {
  // Definition 4.2 == zeroing the token in (N, +, ·, δ): checked for a
  // sample of tokens (workflow inputs and used state bases).
  std::vector<NodeId> tokens;
  for (NodeId id : graph_.AllNodeIds()) {
    if (!graph_.Contains(id)) continue;
    NodeView n = graph_.node(id);
    if (n.label() != NodeLabel::kToken) continue;
    if (n.role() == NodeRole::kWorkflowInput ||
        !graph_.ChildrenOf(id).empty()) {
      tokens.push_back(id);
    }
  }
  size_t step = tokens.size() > 12 ? tokens.size() / 12 : 1;
  for (size_t i = 0; i < tokens.size(); i += step) {
    NodeId t = tokens[i];
    auto deleted = *ComputeDeletionSet(Snap(graph_), {t});
    GraphEvaluator<CountingSemiring> eval(Snap(graph_), {{t, 0}});
    for (NodeId n : graph_.AllNodeIds()) {
      if (!graph_.Contains(n)) continue;
      EXPECT_EQ(deleted.count(n) > 0, eval.Eval(n) == 0)
          << "token " << graph_.node(t).payload() << ", node " << n;
    }
  }
}

TEST_P(DealershipPropertyTest, SerializationRoundTrips) {
  std::ostringstream os;
  LIPSTICK_ASSERT_OK(SaveGraph(graph_, os));
  std::istringstream is(os.str());
  Result<ProvenanceGraph> loaded = LoadGraph(is);
  LIPSTICK_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->num_nodes(), graph_.num_nodes());
  EXPECT_EQ(loaded->invocations().size(), graph_.invocations().size());
  std::ostringstream os2;
  LIPSTICK_ASSERT_OK(SaveGraph(*loaded, os2));
  EXPECT_EQ(os.str(), os2.str());
}

TEST_P(DealershipPropertyTest, ZoomRoundTripPreservesAliveCount) {
  size_t before = graph_.num_alive();
  GraphSnapshot snap = Snap(graph_);
  Zoomer zoomer(snap);
  LIPSTICK_ASSERT_OK(zoomer.ZoomOutAll());
  size_t coarse = zoomer.view().num_visible();
  EXPECT_LT(coarse, before);
  EXPECT_EQ(zoomer.Materialize()->num_alive(), coarse);
  std::set<std::string> modules;
  for (const InvocationInfo& inv : graph_.invocations()) {
    modules.insert(std::string(graph_.str(inv.module_name)));
  }
  LIPSTICK_ASSERT_OK(zoomer.ZoomIn(modules));
  EXPECT_EQ(zoomer.view().num_visible(), before);
}

TEST_P(DealershipPropertyTest, ZoomCoarseningConnectivity) {
  // Record, in the fine-grained graph, which (workflow-input, module-
  // output) pairs of the same execution are connected and which later-
  // execution outputs are reachable only through module state.
  auto inputs = FindNodes(Snap(graph_), ByRole(NodeRole::kWorkflowInput));
  ASSERT_FALSE(inputs.empty());
  NodeId first_input = inputs.front();  // execution 0
  std::vector<NodeId> state_mediated;   // outputs of later executions
  for (const InvocationInfo& inv : graph_.invocations()) {
    if (inv.execution == 0) continue;
    for (NodeId out : inv.output_nodes) {
      if (graph_.Contains(out) && *PathExists(Snap(graph_), first_input, out)) {
        state_mediated.push_back(out);
        if (state_mediated.size() >= 5) break;
      }
    }
  }

  GraphSnapshot snap = Snap(graph_);
  Zoomer zoomer(snap);
  LIPSTICK_ASSERT_OK(zoomer.ZoomOutAll());
  Result<ProvenanceGraph> materialized = zoomer.Materialize();
  LIPSTICK_ASSERT_OK(materialized.status());
  const ProvenanceGraph& coarse = *materialized;

  // (1) Within each invocation, the coarse view connects every input to
  // every output through the collapsed module node (the black-box
  // over-approximation).
  for (const InvocationInfo& inv : coarse.invocations()) {
    for (NodeId in : inv.input_nodes) {
      if (!coarse.Contains(in)) continue;
      for (NodeId out : inv.output_nodes) {
        if (!coarse.Contains(out)) continue;
        EXPECT_TRUE(*PathExists(Snap(coarse), in, out))
            << "coarse module lost its own input->output edge";
      }
    }
  }
  // (2) The paper's motivating limitation, verified: dependencies that
  // flow through module *state* across executions disappear from the
  // coarse-grained view — this is precisely what fine-grained provenance
  // recovers.
  for (NodeId out : state_mediated) {
    EXPECT_FALSE(*PathExists(Snap(coarse), first_input, out))
        << "state-mediated dependency should be invisible when coarse";
  }
}

TEST_P(DealershipPropertyTest, SubgraphContainsAncestryClosure) {
  // For any node: subgraph(n) ⊇ ancestors(n) ∪ {n}, and every node in the
  // subgraph is connected to n through the ancestor/descendant relation
  // or is a parent of a descendant.
  auto outputs = FindNodes(Snap(graph_), ByRole(NodeRole::kModuleOutput));
  ASSERT_FALSE(outputs.empty());
  NodeId n = outputs[outputs.size() / 2];
  auto sub = *SubgraphQuery(Snap(graph_), n);
  auto anc = Ancestors(Snap(graph_), n);
  auto desc = *Descendants(Snap(graph_), n);
  EXPECT_TRUE(sub.count(n));
  for (NodeId a : anc) EXPECT_TRUE(sub.count(a));
  for (NodeId d : desc) EXPECT_TRUE(sub.count(d));
  for (NodeId s : sub) {
    bool justified = s == n || anc.count(s) || desc.count(s);
    if (!justified) {
      // Must be a parent of some descendant (sibling).
      bool is_sibling = false;
      for (NodeId d : desc) {
        for (NodeId p : graph_.ParentsOf(d)) {
          if (p == s) is_sibling = true;
        }
      }
      EXPECT_TRUE(is_sibling) << "unjustified subgraph member " << s;
    }
  }
}

TEST_P(DealershipPropertyTest, TrackingIsDeterministic) {
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 160;
  cfg.num_executions = 3;
  cfg.seed = GetParam();
  auto wf = workflowgen::DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  ProvenanceGraph again;
  LIPSTICK_ASSERT_OK((*wf)->Run(&again).status());
  std::ostringstream a, b;
  LIPSTICK_ASSERT_OK(SaveGraph(graph_, a));
  LIPSTICK_ASSERT_OK(SaveGraph(again, b));
  EXPECT_EQ(a.str(), b.str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DealershipPropertyTest,
                         ::testing::Values(1, 7, 23, 51, 98));

/// --------------------- arctic sweep properties -------------------------

using ArcticParam =
    std::tuple<workflowgen::ArcticTopology, workflowgen::Selectivity>;

class ArcticPropertyTest : public ::testing::TestWithParam<ArcticParam> {};

TEST_P(ArcticPropertyTest, GlobalMinMatchesDirectComputation) {
  auto [topology, selectivity] = GetParam();
  workflowgen::ArcticConfig cfg;
  cfg.topology = topology;
  cfg.num_stations = 6;
  cfg.fan_out = 3;
  cfg.selectivity = selectivity;
  cfg.history_years = 3;
  cfg.seed = 1234;
  auto wf = workflowgen::ArcticWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  ProvenanceGraph graph;
  auto result = (*wf)->RunSeries(1, &graph);
  LIPSTICK_ASSERT_OK(result.status());

  // Direct recomputation over the same synthetic climate: history months
  // 1998-2000 plus the 2001-01 measurement, filtered by selectivity
  // (query: year=2001, month=1 -> season covers months 1-3).
  double expected = 1e18;
  auto matches = [&](int year, int month) {
    switch (selectivity) {
      case workflowgen::Selectivity::kAll:
        return true;
      case workflowgen::Selectivity::kYear:
        return year == 2001;
      case workflowgen::Selectivity::kMonth:
        return month == 1;
      case workflowgen::Selectivity::kSeason:
        return (month - 1) / 3 == 0;
    }
    return false;
  };
  for (int s = 1; s <= cfg.num_stations; ++s) {
    for (int year = 1998; year <= 2000; ++year) {
      for (int month = 1; month <= 12; ++month) {
        if (!matches(year, month)) continue;
        expected = std::min(
            expected, workflowgen::ArcticWorkflow::SyntheticTemperature(
                          s, year, month, cfg.seed));
      }
    }
    if (matches(2001, 1)) {
      expected = std::min(
          expected, workflowgen::ArcticWorkflow::SyntheticTemperature(
                        s, 2001, 1, cfg.seed));
    }
  }
  EXPECT_NEAR(*result, expected, 1e-9);

  // The winning observation is in the global minimum's ancestry.
  graph.Seal();
  NodeId global_out = kInvalidNode;
  for (const InvocationInfo& inv : graph.invocations()) {
    if (graph.str(inv.module_name) == "arctic_out" &&
        !inv.output_nodes.empty()) {
      global_out = inv.output_nodes.front();
    }
  }
  ASSERT_NE(global_out, kInvalidNode);
  auto anc = Ancestors(Snap(graph), global_out);
  bool winner_found = false;
  for (NodeId id : anc) {
    NodeView n = graph.node(id);
    if (n.label() == NodeLabel::kConstValue && n.value().is_double() &&
        std::abs(n.value().double_value() - expected) < 1e-9) {
      winner_found = true;
    }
  }
  EXPECT_TRUE(winner_found)
      << "the minimum's value node must appear in its derivation";
}

INSTANTIATE_TEST_SUITE_P(
    TopologySelectivity, ArcticPropertyTest,
    ::testing::Combine(
        ::testing::Values(workflowgen::ArcticTopology::kSerial,
                          workflowgen::ArcticTopology::kParallel,
                          workflowgen::ArcticTopology::kDense),
        ::testing::Values(workflowgen::Selectivity::kAll,
                          workflowgen::Selectivity::kSeason,
                          workflowgen::Selectivity::kMonth,
                          workflowgen::Selectivity::kYear)));

/// ------------------ counting past 2^64 (Def. 4.2) ----------------------

TEST(CountingSemiringTest, SaturationKeepsZeroExact) {
  // A hundred executions derive counts past 2^64. Wrapping + and · once
  // evaluated 9,320 of this graph's 83,004 live nodes to 0 although the
  // Boolean semiring derives every one of them; saturated counts are 0
  // exactly where the Boolean value is false.
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 400;
  cfg.num_executions = 100;
  cfg.seed = 4;
  cfg.accept_probability = 0;
  cfg.num_workers = 1;
  auto wf = workflowgen::DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  ProvenanceGraph graph;
  LIPSTICK_ASSERT_OK((*wf)->Run(&graph).status());
  graph.Seal();
  GraphEvaluator<CountingSemiring> counting(Snap(graph));
  GraphEvaluator<BooleanSemiring> boolean(Snap(graph));
  size_t live = 0, saturated = 0, disagreements = 0;
  graph.ForEachAliveNode([&](NodeId id) {
    const uint64_t count = counting.Eval(id);
    ++live;
    saturated += count == UINT64_MAX ? 1 : 0;
    disagreements += (count == 0) == boolean.Eval(id) ? 1 : 0;
  });
  EXPECT_GT(live, 80000u);
  EXPECT_GT(saturated, 0u);  // the graph does count past 2^64
  EXPECT_EQ(disagreements, 0u);
}

TEST(CountingSemiringTest, SaturatingArithmetic) {
  using S = CountingSemiring;
  EXPECT_EQ(S::Plus(UINT64_MAX - 1, 1), UINT64_MAX);
  EXPECT_EQ(S::Plus(UINT64_MAX, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(S::Times(uint64_t{1} << 32, uint64_t{1} << 32), UINT64_MAX);
  EXPECT_EQ(S::Times(UINT64_MAX, 0), 0u);
  EXPECT_EQ(S::Times(0, UINT64_MAX), 0u);
  EXPECT_EQ(S::Times(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(S::Plus(2, 3), 5u);
  EXPECT_EQ(S::Times(6, 7), 42u);
}

/// -------------------- eager/lazy ablation property ---------------------

TEST(StateNodeAblationTest, EagerAndLazyAgreeOnQueries) {
  // Eager and lazy state-node construction must answer existence-
  // dependency queries identically; eager only adds unused "s" wrappers.
  ProvenanceGraph graphs[2];
  NodeId best_bid[2] = {kInvalidNode, kInvalidNode};
  size_t nodes[2];
  for (int eager = 0; eager < 2; ++eager) {
    workflowgen::DealershipConfig cfg;
    cfg.num_cars = 120;
    cfg.num_executions = 2;
    cfg.seed = 9;
    cfg.accept_probability = 0;
    auto wf = workflowgen::DealershipWorkflow::Create(cfg);
    LIPSTICK_ASSERT_OK(wf.status());
    (*wf)->executor().set_eager_state_nodes(eager == 1);
    ProvenanceGraph& g = graphs[eager];
    auto outputs = (*wf)->ExecuteOnce(1, &g);
    LIPSTICK_ASSERT_OK(outputs.status());
    const Relation& best = outputs->at("agg").at("BestBid");
    ASSERT_FALSE(best.bag.empty());
    best_bid[eager] = best.bag.at(0).annot;
    g.Seal();
    nodes[eager] = g.num_alive();
  }
  EXPECT_GT(nodes[1], nodes[0]);  // eager strictly larger
  // Both graphs: the bid depends on its request, never on an Accord car.
  for (int eager = 0; eager < 2; ++eager) {
    const ProvenanceGraph& g = graphs[eager];
    auto inputs = FindNodes(Snap(g), ByRole(NodeRole::kWorkflowInput));
    bool dep_any_input = false;
    for (NodeId in : inputs) {
      dep_any_input = dep_any_input || *DependsOn(Snap(g), best_bid[eager], in);
    }
    EXPECT_TRUE(dep_any_input);
  }
}

}  // namespace
}  // namespace lipstick
