#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "pig/interpreter.h"
#include "pig/parser.h"
#include "provenance/deletion.h"
#include "provenance/graph.h"
#include "provenance/semiring.h"
#include "provenance/subgraph.h"
#include "provenance/view.h"
#include "provenance/zoom.h"
#include "test_util.h"
#include "workflowgen/arctic.h"
#include "workflowgen/dealership.h"

namespace lipstick {
namespace {

using testing::Snap;

using ::lipstick::testing::I;
using ::lipstick::testing::MakeRelation;
using ::lipstick::testing::MakeSchema;
using ::lipstick::testing::RunPig;
using ::lipstick::testing::S;
using ::lipstick::testing::T;

/// Binds a relation whose tuples are annotated with fresh tokens; returns
/// the token node per tuple.
std::vector<NodeId> BindTracked(pig::Environment* env, ShardWriter* w,
                                const std::string& name, SchemaPtr schema,
                                std::vector<Tuple> tuples) {
  Relation rel(name, std::move(schema));
  std::vector<NodeId> tokens;
  for (size_t i = 0; i < tuples.size(); ++i) {
    NodeId tok = w->Token(name + "[" + std::to_string(i) + "]");
    tokens.push_back(tok);
    rel.bag.Add(std::move(tuples[i]), tok);
  }
  env->Bind(name, std::move(rel));
  return tokens;
}

TEST(OperatorProvenanceTest, ForEachProjectionMakesPlusNodes) {
  pig::Environment env;
  ProvenanceGraph g;
  auto w = g.writer();
  auto tokens = BindTracked(&env, &w, "A",
                            MakeSchema({{"x", FieldType::Int()}}),
                            {T({I(1)}), T({I(2)})});
  auto rel = RunPig("B = FOREACH A GENERATE x;", &env, "B", nullptr, &w);
  LIPSTICK_ASSERT_OK(rel.status());
  for (size_t i = 0; i < rel->bag.size(); ++i) {
    NodeView n = g.node(rel->bag.at(i).annot);
    EXPECT_EQ(n.label(), NodeLabel::kPlus);
    EXPECT_EQ(testing::ToVec(n.parents()), std::vector<NodeId>{tokens[i]});
  }
}

TEST(OperatorProvenanceTest, JoinMakesTimesNodes) {
  pig::Environment env;
  ProvenanceGraph g;
  auto w = g.writer();
  auto la = BindTracked(&env, &w, "A",
                        MakeSchema({{"x", FieldType::Int()}}), {T({I(1)})});
  auto lb = BindTracked(&env, &w, "B",
                        MakeSchema({{"y", FieldType::Int()}}), {T({I(1)})});
  auto rel = RunPig("J = JOIN A BY x, B BY y;", &env, "J", nullptr, &w);
  LIPSTICK_ASSERT_OK(rel.status());
  ASSERT_EQ(rel->bag.size(), 1u);
  NodeView n = g.node(rel->bag.at(0).annot);
  EXPECT_EQ(n.label(), NodeLabel::kTimes);
  EXPECT_EQ(testing::ToVec(n.parents()), (std::vector<NodeId>{la[0], lb[0]}));
}

TEST(OperatorProvenanceTest, GroupMakesDeltaOverMembers) {
  pig::Environment env;
  ProvenanceGraph g;
  auto w = g.writer();
  auto tokens = BindTracked(
      &env, &w, "A", MakeSchema({{"m", FieldType::String()}}),
      {T({S("a")}), T({S("b")}), T({S("a")})});
  auto rel = RunPig("G = GROUP A BY m;", &env, "G", nullptr, &w);
  LIPSTICK_ASSERT_OK(rel.status());
  ASSERT_EQ(rel->bag.size(), 2u);
  for (const AnnotatedTuple& t : rel->bag) {
    NodeView n = g.node(t.annot);
    EXPECT_EQ(n.label(), NodeLabel::kDelta);
    if (t.tuple.at(0).string_value() == "a") {
      EXPECT_EQ(testing::ToVec(n.parents()),
                (std::vector<NodeId>{tokens[0], tokens[2]}));
    } else {
      EXPECT_EQ(testing::ToVec(n.parents()),
                std::vector<NodeId>{tokens[1]});
    }
    // Nested tuples keep their original provenance.
    for (const AnnotatedTuple& inner : *t.tuple.at(1).bag()) {
      EXPECT_TRUE(std::count(tokens.begin(), tokens.end(), inner.annot));
    }
  }
}

TEST(OperatorProvenanceTest, DistinctMakesDeltaAndFilterPassesThrough) {
  pig::Environment env;
  ProvenanceGraph g;
  auto w = g.writer();
  auto tokens = BindTracked(&env, &w, "A",
                            MakeSchema({{"x", FieldType::Int()}}),
                            {T({I(1)}), T({I(1)}), T({I(2)})});
  auto dist = RunPig("D = DISTINCT A;", &env, "D", nullptr, &w);
  LIPSTICK_ASSERT_OK(dist.status());
  for (const AnnotatedTuple& t : dist->bag) {
    EXPECT_EQ(g.node(t.annot).label(), NodeLabel::kDelta);
  }
  auto filt = RunPig("F = FILTER A BY x == 1;", &env, "F", nullptr, &w);
  ASSERT_EQ(filt->bag.size(), 2u);
  EXPECT_EQ(filt->bag.at(0).annot, tokens[0]);  // unchanged annotation
  EXPECT_EQ(filt->bag.at(1).annot, tokens[1]);
}

TEST(OperatorProvenanceTest, AggregationBuildsTensorStructure) {
  pig::Environment env;
  ProvenanceGraph g;
  auto w = g.writer();
  BindTracked(&env, &w, "A",
              MakeSchema({{"m", FieldType::String()},
                          {"v", FieldType::Int()}}),
              {T({S("a"), I(10)}), T({S("a"), I(20)})});
  auto rel = RunPig(
      "G = GROUP A BY m;\n"
      "R = FOREACH G GENERATE group, SUM(A.v) AS s, COUNT(A) AS n;",
      &env, "R", nullptr, &w);
  LIPSTICK_ASSERT_OK(rel.status());
  ASSERT_EQ(rel->bag.size(), 1u);
  // The output tuple is a + over (group δ, SUM agg, COUNT agg).
  NodeView out = g.node(rel->bag.at(0).annot);
  EXPECT_EQ(out.label(), NodeLabel::kPlus);
  int aggs = 0, deltas = 0;
  for (NodeId p : out.parents()) {
    if (g.node(p).label() == NodeLabel::kAggregate) ++aggs;
    if (g.node(p).label() == NodeLabel::kDelta) ++deltas;
  }
  EXPECT_EQ(aggs, 2);
  EXPECT_EQ(deltas, 1);
  // SUM feeds through ⊗ pairs of (value v-node, tuple p-node); COUNT uses
  // the simplified direct-edge construction; results are stored values.
  for (NodeId p : out.parents()) {
    NodeView n = g.node(p);
    if (n.label() != NodeLabel::kAggregate) continue;
    if (n.payload() == "SUM") {
      EXPECT_EQ(n.value().int_value(), 30);
      ASSERT_EQ(n.parents().size(), 2u);
      for (NodeId tp : n.parents()) {
        EXPECT_EQ(g.node(tp).label(), NodeLabel::kTensor);
        EXPECT_EQ(g.node(g.node(tp).parents()[0]).label(),
                  NodeLabel::kConstValue);
      }
    } else {
      EXPECT_EQ(n.payload(), "COUNT");
      EXPECT_EQ(n.value().int_value(), 2);
      for (NodeId tp : n.parents()) {
        EXPECT_EQ(g.node(tp).label(), NodeLabel::kToken);
      }
    }
  }
}

TEST(OperatorProvenanceTest, BlackBoxNodeForUdf) {
  pig::Environment env;
  ProvenanceGraph g;
  auto w = g.writer();
  auto tokens = BindTracked(&env, &w, "A",
                            MakeSchema({{"x", FieldType::Int()}}),
                            {T({I(5)})});
  pig::UdfRegistry udfs;
  LIPSTICK_ASSERT_OK(udfs.Register(
      "Triple",
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Int(args[0].int_value() * 3);
      },
      FieldType::Int()));
  auto rel =
      RunPig("B = FOREACH A GENERATE Triple(x) AS t;", &env, "B", &udfs, &w);
  LIPSTICK_ASSERT_OK(rel.status());
  NodeView out = g.node(rel->bag.at(0).annot);
  bool has_bb = false;
  for (NodeId p : out.parents()) {
    if (g.node(p).label() == NodeLabel::kBlackBox) {
      has_bb = true;
      EXPECT_EQ(g.node(p).payload(), "triple");
      EXPECT_EQ(testing::ToVec(g.node(p).parents()),
                std::vector<NodeId>{tokens[0]});
    }
  }
  EXPECT_TRUE(has_bb);
}

/// --------------------------- deletion ----------------------------------

/// Builds the paper's Example 2.3 bid computation with tracking; the
/// returned ids follow Figure 2(c)'s cast: request token, car tokens.
struct DealerFixture {
  pig::Environment env;
  ProvenanceGraph graph;
  NodeId request, car_c1, car_c2, car_c3;
  NodeId bid_node;  // provenance of the produced bid tuple

  static constexpr const char* kQuery = R"PIG(
ReqModel = FOREACH Requests GENERATE Model;
Inventory0 = JOIN Cars BY Model, ReqModel BY Model;
Inventory = FOREACH Inventory0 GENERATE Cars::CarId AS CarId,
                                        Cars::Model AS Model;
CarsByModel = GROUP Inventory BY Model;
NumCarsByModel = FOREACH CarsByModel
    GENERATE group AS Model, COUNT(Inventory) AS NumAvail;
AllInfo = COGROUP Requests BY Model, NumCarsByModel BY Model;
Bids = FOREACH AllInfo GENERATE FLATTEN(CalcBid2(Requests, NumCarsByModel));
)PIG";

  Status Build() {
    auto w = graph.writer();
    auto cars = BindTracked(&env, &w, "Cars",
                            MakeSchema({{"CarId", FieldType::String()},
                                        {"Model", FieldType::String()}}),
                            {T({S("C1"), S("Accord")}),
                             T({S("C2"), S("Civic")}),
                             T({S("C3"), S("Civic")})});
    car_c1 = cars[0];
    car_c2 = cars[1];
    car_c3 = cars[2];
    auto reqs = BindTracked(&env, &w, "Requests",
                            MakeSchema({{"UserId", FieldType::String()},
                                        {"BidId", FieldType::String()},
                                        {"Model", FieldType::String()}}),
                            {T({S("P1"), S("B1"), S("Civic")})});
    request = reqs[0];
    pig::UdfRegistry udfs;
    SchemaPtr bid_schema = MakeSchema({{"Amount", FieldType::Double()}});
    LIPSTICK_RETURN_IF_ERROR(udfs.Register(
        "CalcBid2",
        pig::UdfEntry{
            [](const std::vector<Value>& args) -> Result<Value> {
              auto out = std::make_shared<Bag>();
              if (!args[1].bag()->empty()) {
                double avail = args[1].bag()->at(0).tuple.at(1).AsDouble();
                out->Add(Tuple({Value::Double(20000.0 - 100 * avail)}));
              }
              return Value::OfBag(out);
            },
            [bid_schema](const std::vector<FieldType>&) {
              return Result<FieldType>(FieldType::Bag(bid_schema));
            }}));
    Result<Relation> bids = RunPig(kQuery, &env, "Bids", &udfs, &w);
    LIPSTICK_RETURN_IF_ERROR(bids.status());
    if (bids->bag.size() != 1) return Status::Internal("expected one bid");
    bid_node = bids->bag.at(0).annot;
    graph.Seal();
    return Status::OK();
  }
};

TEST(DeletionTest, PaperExample43DeletingOneCarKeepsBid) {
  DealerFixture f;
  LIPSTICK_ASSERT_OK(f.Build());
  // Example 4.3/4.5: the bid still exists if car C2 is removed — the COUNT
  // loses an input but the derivation survives.
  auto deleted = *ComputeDeletionSet(Snap(f.graph), {f.car_c2});
  EXPECT_FALSE(deleted.count(f.bid_node));
  EXPECT_TRUE(deleted.count(f.car_c2));
  EXPECT_FALSE(deleted.count(f.car_c3));
  EXPECT_FALSE(*DependsOn(Snap(f.graph), f.bid_node, f.car_c2));
}

TEST(DeletionTest, PaperExample44DeletingRequestKillsEverything) {
  DealerFixture f;
  LIPSTICK_ASSERT_OK(f.Build());
  // Example 4.4: deleting the bid request erases the whole derivation
  // except nodes standing for state tuples (the cars).
  auto deleted = *ComputeDeletionSet(Snap(f.graph), {f.request});
  EXPECT_TRUE(deleted.count(f.bid_node));
  EXPECT_FALSE(deleted.count(f.car_c1));
  EXPECT_FALSE(deleted.count(f.car_c2));
  EXPECT_TRUE(*DependsOn(Snap(f.graph), f.bid_node, f.request));
}

TEST(DeletionTest, DeletingBothCivicsKillsCountButNotBlackBox) {
  DealerFixture f;
  LIPSTICK_ASSERT_OK(f.Build());
  auto deleted = *ComputeDeletionSet(Snap(f.graph), {f.car_c2, f.car_c3});
  // The whole inventory derivation for the model is gone...
  size_t dead_aggs = 0;
  for (NodeId id : f.graph.AllNodeIds()) {
    if (f.graph.Contains(id) &&
        f.graph.node(id).label() == NodeLabel::kAggregate &&
        deleted.count(id)) {
      ++dead_aggs;
    }
  }
  EXPECT_GE(dead_aggs, 1u) << "the COUNT over the inventory must die";
  // ...but per Definition 4.2 a black box survives while any of its inputs
  // (here: the request) remains, so the bid tuple itself survives.
  EXPECT_FALSE(deleted.count(f.bid_node));
}

TEST(DeletionTest, MaterializationRemovesNodes) {
  DealerFixture f;
  LIPSTICK_ASSERT_OK(f.Build());
  GraphSnapshot snap = Snap(f.graph);
  GraphView view = GraphView::MakeIdentity(snap);
  size_t removed = 0;
  LIPSTICK_ASSERT_OK(view.ApplyDeleteProp({f.car_c2}, &removed));
  EXPECT_GT(removed, 1u);
  Result<ProvenanceGraph> pruned = view.Materialize();
  LIPSTICK_ASSERT_OK(pruned.status());
  EXPECT_EQ(pruned->num_alive(), f.graph.num_alive() - removed);
  EXPECT_FALSE(pruned->Contains(f.car_c2));
  EXPECT_TRUE(pruned->Contains(f.bid_node));
}

TEST(DeletionTest, AgreesWithCountingSemiringZeroing) {
  // Property (Definition 4.2 vs the semiring semantics): a node is deleted
  // when token t is removed iff its counting-semiring value is zero under
  // t := 0. Checked for every token in the dealer fixture.
  DealerFixture f;
  LIPSTICK_ASSERT_OK(f.Build());
  std::vector<NodeId> tokens{f.request, f.car_c1, f.car_c2, f.car_c3};
  for (NodeId t : tokens) {
    auto deleted = *ComputeDeletionSet(Snap(f.graph), {t});
    GraphEvaluator<CountingSemiring> eval(Snap(f.graph), {{t, 0}});
    for (NodeId n : f.graph.AllNodeIds()) {
      if (!f.graph.Contains(n)) continue;
      bool in_set = deleted.count(n) > 0;
      bool eval_zero = eval.Eval(n) == 0;
      EXPECT_EQ(in_set, eval_zero)
          << "node " << n << " ("
          << NodeLabelToString(f.graph.node(n).label())
          << ") disagreement for token " << f.graph.node(t).payload();
    }
  }
}

TEST(DeletionTest, SeedMustExist) {
  DealerFixture f;
  LIPSTICK_ASSERT_OK(f.Build());
  EXPECT_TRUE(ComputeDeletionSet(Snap(f.graph), {kInvalidNode})->empty());
  EXPECT_FALSE(*DependsOn(Snap(f.graph), f.bid_node, kInvalidNode));
}

/// --------------------------- subgraph ----------------------------------

TEST(SubgraphTest, AncestorsAndDescendants) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId x = w.Token("x");
  NodeId y = w.Token("y");
  NodeId p = w.Times({x, y});
  NodeId q = w.Plus({p});
  NodeId other = w.Token("z");
  g.Seal();
  auto anc = Ancestors(Snap(g), q);
  EXPECT_EQ(anc, (std::unordered_set<NodeId>{p, x, y}));
  auto desc = *Descendants(Snap(g), x);
  EXPECT_EQ(desc, (std::unordered_set<NodeId>{p, q}));
  EXPECT_TRUE(Descendants(Snap(g), other)->empty());
}

TEST(SubgraphTest, IncludesSiblingsOfDescendants) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId x = w.Token("x");
  NodeId y = w.Token("y");  // sibling: co-parent of the join below
  NodeId join = w.Times({x, y});
  g.Seal();
  auto sub = *SubgraphQuery(Snap(g), x);
  // y is not an ancestor or descendant of x, but it is needed to re-derive
  // the join, so the subgraph query includes it.
  EXPECT_TRUE(sub.count(y));
  EXPECT_TRUE(sub.count(join));
  EXPECT_TRUE(sub.count(x));
}

TEST(SubgraphTest, DealerBidSubgraphCoversDerivation) {
  DealerFixture f;
  LIPSTICK_ASSERT_OK(f.Build());
  auto sub = *SubgraphQuery(Snap(f.graph), f.request);
  EXPECT_TRUE(sub.count(f.bid_node));
  // The Accord car C1 joins nothing, so it stays out of the subgraph.
  EXPECT_FALSE(sub.count(f.car_c1));
  EXPECT_TRUE(sub.count(f.car_c2));  // sibling through the join/group
  EXPECT_TRUE(SubgraphQuery(Snap(f.graph), kInvalidNode)->empty());
}

/// ----------------------------- zoom ------------------------------------

/// Canonical signature of the alive part of a graph (for exact-inverse
/// checks that ignore dead placeholder nodes).
std::string AliveSignature(const ProvenanceGraph& g) {
  std::ostringstream os;
  for (NodeId id : g.AllNodeIds()) {
    if (!g.Contains(id)) continue;
    NodeView n = g.node(id);
    os << id << '|' << static_cast<int>(n.label()) << '|'
       << static_cast<int>(n.role()) << '|' << n.payload() << '|';
    std::vector<NodeId> parents;
    for (NodeId p : n.parents()) {
      if (g.Contains(p)) parents.push_back(p);
    }
    std::sort(parents.begin(), parents.end());
    for (NodeId p : parents) os << p << ',';
    os << '\n';
  }
  return os.str();
}

class ZoomTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workflowgen::DealershipConfig cfg;
    cfg.num_cars = 200;
    cfg.num_executions = 3;
    cfg.seed = 11;
    auto wf = workflowgen::DealershipWorkflow::Create(cfg);
    LIPSTICK_ASSERT_OK(wf.status());
    auto stats = (*wf)->Run(&graph_);
    LIPSTICK_ASSERT_OK(stats.status());
    graph_.Seal();
  }

  ProvenanceGraph graph_;
};

TEST_F(ZoomTest, ZoomOutRemovesIntermediatesAndState) {
  GraphSnapshot snap = Snap(graph_);
  Zoomer zoomer(snap);
  LIPSTICK_ASSERT_OK(zoomer.ZoomOut({"dealer"}));
  EXPECT_TRUE(zoomer.IsZoomedOut("dealer"));
  Result<ProvenanceGraph> zoomed = zoomer.Materialize();
  LIPSTICK_ASSERT_OK(zoomed.status());
  EXPECT_LT(zoomed->num_alive(), graph_.num_alive());
  EXPECT_EQ(zoomed->num_alive(), zoomer.view().num_visible());
  // No intermediate or state node of any dealer invocation survives.
  for (NodeId id : zoomed->AllNodeIds()) {
    if (!zoomed->Contains(id)) continue;
    NodeView n = zoomed->node(id);
    if (n.invocation() == kNoInvocation) continue;
    if (zoomed->str(zoomed->invocations()[n.invocation()].module_name) !=
        "dealer") {
      continue;
    }
    EXPECT_NE(n.role(), NodeRole::kIntermediate) << "id " << id;
    EXPECT_NE(n.role(), NodeRole::kModuleState) << "id " << id;
  }
  // Each dealer invocation now has a zoom node wired inputs -> M -> outputs.
  size_t zoom_nodes = 0;
  for (NodeId id : zoomed->AllNodeIds()) {
    if (zoomed->Contains(id) &&
        zoomed->node(id).label() == NodeLabel::kZoomedModule) {
      ++zoom_nodes;
    }
  }
  size_t dealer_invocations = 0;
  for (const InvocationInfo& inv : graph_.invocations()) {
    if (graph_.str(inv.module_name) == "dealer") ++dealer_invocations;
  }
  EXPECT_EQ(zoom_nodes, dealer_invocations);
}

TEST_F(ZoomTest, ZoomInIsExactInverse) {
  std::string original = AliveSignature(graph_);
  GraphSnapshot snap = Snap(graph_);
  Zoomer zoomer(snap);
  LIPSTICK_ASSERT_OK(zoomer.ZoomOut({"dealer", "aggregate"}));
  EXPECT_NE(AliveSignature(*zoomer.Materialize()), original);
  LIPSTICK_ASSERT_OK(zoomer.ZoomIn({"dealer", "aggregate"}));
  EXPECT_EQ(AliveSignature(*zoomer.Materialize()), original);
}

TEST_F(ZoomTest, ZoomOutAllYieldsCoarseGrainedGraph) {
  GraphSnapshot snap = Snap(graph_);
  Zoomer zoomer(snap);
  LIPSTICK_ASSERT_OK(zoomer.ZoomOutAll());
  // Coarse-grained view: only workflow inputs, invocation nodes, module
  // input/output wrappers, and collapsed module nodes remain.
  Result<ProvenanceGraph> materialized = zoomer.Materialize();
  LIPSTICK_ASSERT_OK(materialized.status());
  for (NodeId id : materialized->AllNodeIds()) {
    if (!materialized->Contains(id)) continue;
    NodeView n = materialized->node(id);
    bool coarse = n.role() == NodeRole::kWorkflowInput ||
                  n.role() == NodeRole::kInvocation ||
                  n.role() == NodeRole::kModuleInput ||
                  n.role() == NodeRole::kModuleOutput ||
                  n.role() == NodeRole::kZoom;
    EXPECT_TRUE(coarse) << "unexpected node " << id << " with role "
                        << NodeRoleToString(n.role());
  }
}

TEST_F(ZoomTest, ZoomInWithoutZoomOutFails) {
  GraphSnapshot snap = Snap(graph_);
  Zoomer zoomer(snap);
  EXPECT_FALSE(zoomer.ZoomIn({"dealer"}).ok());
  EXPECT_FALSE(zoomer.ZoomOut({"nonexistent_module"}).ok());
}

TEST_F(ZoomTest, RepeatedZoomOutIsIdempotent) {
  GraphSnapshot snap = Snap(graph_);
  Zoomer zoomer(snap);
  LIPSTICK_ASSERT_OK(zoomer.ZoomOut({"dealer"}));
  size_t visible = zoomer.view().num_visible();
  size_t synthetic = zoomer.view().num_synthetic();
  LIPSTICK_ASSERT_OK(zoomer.ZoomOut({"dealer"}));  // already zoomed: no-op
  EXPECT_EQ(zoomer.view().num_visible(), visible);
  EXPECT_EQ(zoomer.view().num_synthetic(), synthetic);
}

TEST_F(ZoomTest, TagBasedIntermediatesMatchDefinition41) {
  // Definition 4.1 identifies intermediate nodes by paths from input/state
  // nodes that avoid output nodes. The executor instead tags nodes with
  // their invocation. The path-based set must be covered by the tag-based
  // removal set (which additionally removes state wrappers and bases).
  auto by_definition = *IntermediateNodesByDefinition(Snap(graph_), "dealer");
  std::unordered_set<NodeId> by_tags;
  std::unordered_set<uint32_t> dealer_invs;
  for (uint32_t i = 0; i < graph_.invocations().size(); ++i) {
    if (graph_.str(graph_.invocations()[i].module_name) == "dealer") {
      dealer_invs.insert(i);
      for (NodeId s : graph_.invocations()[i].state_nodes) by_tags.insert(s);
    }
  }
  for (NodeId id : graph_.AllNodeIds()) {
    if (!graph_.Contains(id)) continue;
    NodeView n = graph_.node(id);
    if (n.role() == NodeRole::kIntermediate &&
        n.invocation() != kNoInvocation &&
        dealer_invs.count(n.invocation())) {
      by_tags.insert(id);
    }
  }
  for (NodeId id : by_definition) {
    EXPECT_TRUE(by_tags.count(id))
        << "definition-4.1 node " << id << " ("
        << NodeLabelToString(graph_.node(id).label()) << "/"
        << NodeRoleToString(graph_.node(id).role())
        << ") missing from tag-based removal set";
  }
  // And conversely, every tagged intermediate (not state/base) is reachable
  // per Definition 4.1.
  for (NodeId id : by_tags) {
    if (graph_.node(id).role() != NodeRole::kIntermediate) continue;
    EXPECT_TRUE(by_definition.count(id))
        << "tagged intermediate " << id << " not identified by "
        << "Definition 4.1";
  }
}

TEST(ZoomArcticTest, ZoomRoundTripOnArcticGraph) {
  workflowgen::ArcticConfig cfg;
  cfg.topology = workflowgen::ArcticTopology::kSerial;
  cfg.num_stations = 4;
  cfg.history_years = 5;
  cfg.selectivity = workflowgen::Selectivity::kMonth;
  auto wf = workflowgen::ArcticWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  ProvenanceGraph graph;
  LIPSTICK_ASSERT_OK((*wf)->RunSeries(3, &graph).status());
  graph.Seal();
  std::string original = AliveSignature(graph);
  GraphSnapshot snap = Snap(graph);
  Zoomer zoomer(snap);
  LIPSTICK_ASSERT_OK(zoomer.ZoomOut({"station"}));
  EXPECT_NE(AliveSignature(*zoomer.Materialize()), original);
  LIPSTICK_ASSERT_OK(zoomer.ZoomIn({"station"}));
  EXPECT_EQ(AliveSignature(*zoomer.Materialize()), original);
}

}  // namespace
}  // namespace lipstick
