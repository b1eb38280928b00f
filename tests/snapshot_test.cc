// Tests for the unified read path: GraphSnapshot, the shared traversal
// engine, lazy GraphViews, and their equivalence with the eager mutating
// operators — including byte-identity of materialized views under provio
// and a multi-threaded stress run (exercised under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "provenance/deletion.h"
#include "provenance/dot.h"
#include "provenance/exec.h"
#include "provenance/graph.h"
#include "provenance/plan.h"
#include "provenance/provio.h"
#include "provenance/query.h"
#include "provenance/snapshot.h"
#include "provenance/subgraph.h"
#include "provenance/traverse.h"
#include "provenance/view.h"
#include "provenance/zoom.h"
#include "reference_terminals.h"
#include "test_util.h"
#include "workflowgen/arctic.h"
#include "workflowgen/dealership.h"

namespace lipstick {
namespace {

std::string SaveBytes(const ProvenanceGraph& graph) {
  std::ostringstream os;
  EXPECT_TRUE(SaveGraph(graph, os).ok());
  return os.str();
}

/// Graphviz rendering of a whole graph, through its identity view.
std::string DotBytes(const ProvenanceGraph& graph) {
  std::ostringstream os;
  EXPECT_TRUE(
      WriteDot(GraphView::MakeIdentity(testing::Snap(graph)), os).ok());
  return os.str();
}

/// Clones a graph through the provio round trip (node ids, string-pool
/// order, and bytes are all stable across Save/Load).
ProvenanceGraph CloneSealed(const ProvenanceGraph& graph) {
  std::istringstream is(SaveBytes(graph));
  Result<ProvenanceGraph> copy = LoadGraph(is);
  EXPECT_TRUE(copy.ok()) << copy.status().ToString();
  copy->Seal();
  return std::move(*copy);
}

ProvenanceGraph BuildDealershipGraph(int num_workers = 1) {
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 200;
  cfg.num_executions = 3;
  cfg.seed = 11;
  cfg.num_workers = num_workers;
  auto wf = workflowgen::DealershipWorkflow::Create(cfg);
  EXPECT_TRUE(wf.ok());
  ProvenanceGraph graph;
  EXPECT_TRUE((*wf)->Run(&graph).ok());
  graph.Seal();
  return graph;
}

ProvenanceGraph BuildArcticGraph() {
  workflowgen::ArcticConfig cfg;
  cfg.topology = workflowgen::ArcticTopology::kSerial;
  cfg.num_stations = 4;
  cfg.history_years = 5;
  auto wf = workflowgen::ArcticWorkflow::Create(cfg);
  EXPECT_TRUE(wf.ok());
  ProvenanceGraph graph;
  EXPECT_TRUE((*wf)->RunSeries(3, &graph).ok());
  graph.Seal();
  return graph;
}

/// The identity view with one ZoomOut stage applied.
Result<GraphView> ZoomedView(const GraphSnapshot& snap,
                             const std::set<std::string>& modules) {
  GraphView view = GraphView::MakeIdentity(snap);
  LIPSTICK_RETURN_IF_ERROR(
      view.ApplyZoomOut({modules.begin(), modules.end()}));
  return view;
}

// ---------------------------------------------------------------------
// GraphSnapshot basics.
// ---------------------------------------------------------------------

TEST(SnapshotTest, CaptureRequiresSealedGraph) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId a = w.Token("a");
  (void)a;
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  EXPECT_FALSE(snap.ok());
  g.Seal();
  snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  EXPECT_TRUE(snap->sealed());
  EXPECT_EQ(snap->num_nodes(), g.num_nodes());
}

TEST(SnapshotTest, CaptureForParentsWorksUnsealed) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId a = w.Token("a");
  NodeId p = w.Plus({a});
  GraphSnapshot snap = GraphSnapshot::CaptureForParents(g);
  EXPECT_FALSE(snap.sealed());
  EXPECT_TRUE(snap.Contains(a));
  ASSERT_EQ(snap.ParentsOf(p).size(), 1u);
  EXPECT_EQ(snap.ParentsOf(p)[0], a);
}

TEST(SnapshotTest, VisitedBitmapPoolReusesAndClears) {
  ProvenanceGraph g = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  NodeId some = *g.AllNodeIds().begin();
  const VisitedSet* first = nullptr;
  {
    VisitedLease lease = snap->AcquireVisited();
    first = &*lease;
    EXPECT_FALSE(lease->Test(some));
    lease->Set(some);
    EXPECT_TRUE(lease->Test(some));
  }
  // Returned to the pool cleared; the next acquire reuses the allocation.
  VisitedLease again = snap->AcquireVisited();
  EXPECT_EQ(&*again, first);
  EXPECT_FALSE(again->Test(some));
}

// ---------------------------------------------------------------------
// Traversal engine.
// ---------------------------------------------------------------------

TEST(TraverseTest, ParallelForCoversRangeOnce) {
  std::vector<std::atomic<int>> hits(10007);
  ParallelFor(hits.size(), 4, [&](size_t begin, size_t end, int) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TraverseTest, IdentityViewOperatorsMatchReferenceTerminals) {
  for (const ProvenanceGraph& g :
       {BuildDealershipGraph(), BuildArcticGraph()}) {
    Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
    LIPSTICK_ASSERT_OK(snap.status());
    GraphStats stats = *ComputeGraphStats(*snap);
    GraphStats ref = testing::ReferenceGraphStats(*snap);
    EXPECT_EQ(stats.nodes, ref.nodes);
    EXPECT_EQ(stats.edges, ref.edges);
    EXPECT_EQ(stats.tokens, ref.tokens);
    EXPECT_EQ(stats.invocations, ref.invocations);
    EXPECT_EQ(stats.depth, ref.depth);
    EXPECT_EQ(stats.max_fan_in, ref.max_fan_in);
    EXPECT_EQ(stats.max_fan_out, ref.max_fan_out);
    EXPECT_EQ(stats.labels, ref.labels);
    std::vector<NodeId> tokens = FindNodes(*snap, ByLabel(NodeLabel::kToken));
    ASSERT_GE(tokens.size(), 2u);
    // Deletion propagation, single and joint seeds, against Definition 4.2
    // recounted from scratch on every lost edge.
    std::vector<NodeId> pair = {tokens.front(), tokens.back()};
    auto deleted = *ComputeDeletionSet(*snap, pair);
    EXPECT_EQ(deleted, testing::ReferenceDeletionSet(*snap, pair));
    for (NodeId t : tokens) {
      EXPECT_EQ(*DependsOnSet(*snap, t, pair), deleted.count(t) > 0);
      EXPECT_EQ(*ComputeDeletionSet(*snap, {t}),
                testing::ReferenceDeletionSet(*snap, {t}));
    }
  }
}

// ---------------------------------------------------------------------
// The one-pass stats terminal vs the multi-pass reference.
// ---------------------------------------------------------------------

/// ComputeGraphStats on `view`, and the number of passes it made over the
/// view's visible nodes (the armed `query.stats_passes` counter).
std::pair<GraphStats, uint64_t> StatsAndPasses(const GraphView& view) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.ResetValues();
  metrics.Enable();
  Result<GraphStats> stats = ComputeGraphStats(view);
  metrics.Disable();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  uint64_t passes = 0;
  for (const auto& [name, value] : metrics.Snap().counters) {
    if (name == "query.stats_passes") passes = value;
  }
  metrics.ResetValues();
  return {stats.ok() ? *stats : GraphStats{}, passes};
}

/// The view a pipeline's stages compose to on `snap` (the identity view,
/// after a failed expectation, when the pipeline does not build).
GraphView PlanView(const GraphSnapshot& snap, const std::string& query) {
  Result<Plan> plan = ParsePlan(query, {});
  EXPECT_TRUE(plan.ok()) << query << ": " << plan.status().ToString();
  if (!plan.ok()) return GraphView::MakeIdentity(snap);
  Result<GraphView> view = BuildPlanView(snap, *plan);
  EXPECT_TRUE(view.ok()) << query << ": " << view.status().ToString();
  if (!view.ok()) return GraphView::MakeIdentity(snap);
  return std::move(*view);
}

/// ComputeGraphStats(view) == ReferenceStats(Materialize(view)), field by
/// field. Returns the one-pass version's pass count.
uint64_t ExpectStatsMatchReference(const GraphView& view,
                                   const std::string& what) {
  auto [stats, passes] = StatsAndPasses(view);
  Result<ProvenanceGraph> graph = view.Materialize();
  EXPECT_TRUE(graph.ok()) << what << ": " << graph.status().ToString();
  if (!graph.ok()) return passes;
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(*graph);
  EXPECT_TRUE(snap.ok()) << what << ": " << snap.status().ToString();
  if (!snap.ok()) return passes;
  Result<GraphStats> ref = testing::ReferenceStats(*snap);
  EXPECT_TRUE(ref.ok()) << what << ": " << ref.status().ToString();
  if (!ref.ok()) return passes;
  EXPECT_EQ(stats.nodes, ref->nodes) << what;
  EXPECT_EQ(stats.edges, ref->edges) << what;
  EXPECT_EQ(stats.tokens, ref->tokens) << what;
  EXPECT_EQ(stats.invocations, ref->invocations) << what;
  EXPECT_EQ(stats.max_fan_in, ref->max_fan_in) << what;
  EXPECT_EQ(stats.max_fan_out, ref->max_fan_out) << what;
  EXPECT_EQ(stats.depth, ref->depth) << what;
  EXPECT_EQ(stats.labels, ref->labels) << what;
  return passes;
}

/// Names of the modules with a live invocation.
std::set<std::string> ModuleNames(const GraphSnapshot& snap) {
  std::set<std::string> modules;
  for (const InvocationInfo& inv : snap.invocations()) {
    if (!inv.aborted()) modules.insert(std::string(snap.str(inv.module_name)));
  }
  return modules;
}

/// Pipelines over every kind of view the stats terminal reads: identity,
/// each module's zoom and a zoom of all modules, subgraph, delete and
/// restrict, and the composed shapes of plan_test's matrix — with a
/// synthetic zoom node as seed and root, and the widest fan-in node.
std::vector<std::string> StatsViewMatrix(const GraphSnapshot& snap) {
  const std::set<std::string> modules = ModuleNames(snap);
  const std::string first = *modules.begin();
  const std::string all = Join({modules.begin(), modules.end()}, ",");
  // A synthetic zoom node of `zoomout first` and its input nodes, an
  // output of that module, a token, and the widest fan-in node.
  const NodeId zoom = MakeNodeId(0, snap.ShardSize(0));
  std::vector<std::string> inputs;
  NodeId out = kInvalidNode;
  for (const InvocationInfo& inv : snap.invocations()) {
    if (inv.aborted() || snap.str(inv.module_name) != first) continue;
    for (NodeId in : inv.input_nodes) {
      if (snap.Contains(in)) inputs.push_back(StrCat(in));
    }
    for (NodeId o : inv.output_nodes) {
      if (snap.Contains(o) && out == kInvalidNode) out = o;
    }
    break;
  }
  EXPECT_NE(out, kInvalidNode);
  const NodeId token = FindNodes(snap, ByLabel(NodeLabel::kToken)).front();
  NodeId wide = kInvalidNode;
  size_t widest = 0;
  snap.ForEachAliveNode([&](NodeId id) {
    if (snap.ParentsOf(id).size() > widest) {
      widest = snap.ParentsOf(id).size();
      wide = id;
    }
  });
  std::vector<std::string> queries = {"stats",
                                      StrCat("zoomout ", all, " | stats")};
  for (const std::string& m : modules) {
    queries.push_back(StrCat("zoomout ", m, " | stats"));
  }
  for (const std::string& q : {
           StrCat("subgraph ", out, " | stats"),
           StrCat("subgraph ", out, " up | stats"),
           StrCat("subgraph ", token, " down | stats"),
           StrCat("delete ", token, " | stats"),
           StrCat("delete ", wide, " | stats"),
           StrCat("delete ", snap.ParentsOf(wide).front(), " | stats"),
           std::string("restrict --label token | stats"),
           StrCat("zoomout ", first, " | subgraph ", out, " | stats"),
           StrCat("zoomout ", first, " | subgraph ", zoom, " | stats"),
           StrCat("zoomout ", first, " | subgraph ", zoom, " down | stats"),
           StrCat("zoomout ", first, " | delete ", zoom, " | stats"),
           StrCat("zoomout ", first, " | delete ", Join(inputs, ","),
                  " | stats"),
           StrCat("zoomout ", first, " | restrict --label zoom | stats"),
           StrCat("zoomout ", all, " | delete ", token, " | stats"),
           StrCat("zoomout ", all, " | subgraph ", out, " | stats"),
       }) {
    queries.push_back(q);
  }
  return queries;
}

TEST(StatsTest, OnePassMatchesTheReferenceOnEveryView) {
  for (int workers : {1, 4}) {
    ProvenanceGraph g = BuildDealershipGraph(workers);
    Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
    LIPSTICK_ASSERT_OK(snap.status());
    for (const std::string& q : StatsViewMatrix(*snap)) {
      ExpectStatsMatchReference(PlanView(*snap, q),
                                StrCat("dealership x", workers, ": ", q));
    }
  }
  ProvenanceGraph arctic = BuildArcticGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(arctic);
  LIPSTICK_ASSERT_OK(snap.status());
  for (const std::string& q : StatsViewMatrix(*snap)) {
    ExpectStatsMatchReference(PlanView(*snap, q), StrCat("arctic: ", q));
  }
}

TEST(StatsTest, OneWorkerGraphTakesOnePass) {
  ProvenanceGraph g = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  ASSERT_EQ(snap->num_shards(), 1u);
  EXPECT_EQ(StatsAndPasses(GraphView::MakeIdentity(*snap)).second, 1u);
  const std::set<std::string> modules = ModuleNames(*snap);
  ASSERT_GE(modules.size(), 4u);
  for (const std::string& m : modules) {
    Result<GraphView> view = ZoomedView(*snap, {m});
    LIPSTICK_ASSERT_OK(view.status());
    EXPECT_EQ(StatsAndPasses(*view).second, 1u) << "zoomout " << m;
  }
}

TEST(StatsTest, ParentInAHigherShardTakesTheFallbackRounds) {
  // A chain t -> x -> y -> z whose edges alternate shards: x and z in
  // shard 0 have their parents in shard 1, after them in id order.
  ProvenanceGraph g;
  ShardWriter w0 = g.writer();
  ShardWriter w1 = g.AddShard();
  NodeId t = w1.Token("t");
  NodeId x = w0.Plus({t});
  NodeId y = w1.Plus({x});
  w0.Plus({y, y});
  g.Seal();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  GraphView view = GraphView::MakeIdentity(*snap);
  uint64_t passes = ExpectStatsMatchReference(view, "two shards");
  EXPECT_GT(passes, 1u);
  GraphStats stats = StatsAndPasses(view).first;
  EXPECT_EQ(stats.nodes, 4u);
  EXPECT_EQ(stats.edges, 4u);
  EXPECT_EQ(stats.tokens, 1u);
  EXPECT_EQ(stats.max_fan_in, 2u);
  EXPECT_EQ(stats.max_fan_out, 2u);  // y's repeated edge into z
  EXPECT_EQ(stats.depth, 3u);
}

TEST(StatsTest, ZoomInputAfterItsOutputTakesTheFallbackRounds) {
  // An invocation whose input node sits in a later shard than its output,
  // so the zoom node's first use (the rewired output) precedes its input.
  ProvenanceGraph g;
  ShardWriter w0 = g.writer();
  ShardWriter w1 = g.AddShard();
  NodeId t = w0.Token("t");
  uint32_t inv = w0.BeginInvocation("mod", "mod1", 0);
  NodeId out = w0.ModuleOutput(inv, w0.Plus({t}));
  w0.Plus({out});
  w1.ModuleInput(inv, t);
  g.Seal();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  Result<GraphView> view = ZoomedView(*snap, {"mod"});
  LIPSTICK_ASSERT_OK(view.status());
  EXPECT_GT(ExpectStatsMatchReference(*view, "zoom input after output"), 1u);
  // t -> input -> zoom node -> output -> its child.
  EXPECT_EQ(StatsAndPasses(*view).first.depth, 4u);
}

// ---------------------------------------------------------------------
// Lazy views vs eager operators: byte-identity.
// ---------------------------------------------------------------------

TEST(ViewTest, ZoomOutStageMaterializesByteIdenticalToEagerZoom) {
  ProvenanceGraph original = BuildDealershipGraph();
  for (const std::set<std::string>& modules :
       {std::set<std::string>{"dealer"},
        std::set<std::string>{"dealer", "aggregate"}}) {
    // Eager: mutate a clone with the reference ZoomOut and save it.
    ProvenanceGraph eager = CloneSealed(original);
    LIPSTICK_ASSERT_OK(testing::ReferenceZoomOut(&eager, modules));
    std::string eager_bytes = SaveBytes(eager);

    // Lazy: plan a view over an untouched clone and materialize.
    ProvenanceGraph base = CloneSealed(original);
    Result<GraphSnapshot> snap = GraphSnapshot::Capture(base);
    LIPSTICK_ASSERT_OK(snap.status());
    Result<GraphView> view = ZoomedView(*snap, modules);
    LIPSTICK_ASSERT_OK(view.status());
    Result<ProvenanceGraph> materialized = view->Materialize();
    LIPSTICK_ASSERT_OK(materialized.status());
    EXPECT_EQ(SaveBytes(*materialized), eager_bytes)
        << "zoom view bytes diverge for " << modules.size() << " module(s)";
    // The base graph itself is untouched by the lazy path.
    EXPECT_EQ(SaveBytes(base), SaveBytes(original));
    // Node-count bookkeeping agrees with the eager result.
    EXPECT_EQ(view->num_visible(), eager.num_alive());
  }
}

TEST(ViewTest, ZoomOutStageDotMatchesEagerDot) {
  ProvenanceGraph original = BuildDealershipGraph();
  ProvenanceGraph eager = CloneSealed(original);
  LIPSTICK_ASSERT_OK(testing::ReferenceZoomOut(&eager, {"dealer"}));
  std::string eager_dot = DotBytes(eager);

  Result<GraphSnapshot> snap = GraphSnapshot::Capture(original);
  LIPSTICK_ASSERT_OK(snap.status());
  Result<GraphView> view = ZoomedView(*snap, {"dealer"});
  LIPSTICK_ASSERT_OK(view.status());
  std::ostringstream view_dot;
  LIPSTICK_ASSERT_OK(WriteDot(*view, view_dot));
  EXPECT_EQ(view_dot.str(), eager_dot);

  // And rendering the materialized view is identical to rendering the view.
  Result<ProvenanceGraph> materialized = view->Materialize();
  LIPSTICK_ASSERT_OK(materialized.status());
  EXPECT_EQ(view_dot.str(), DotBytes(*materialized));
}

TEST(ViewTest, SubgraphStageMatchesEagerRestriction) {
  ProvenanceGraph original = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(original);
  LIPSTICK_ASSERT_OK(snap.status());
  std::vector<NodeId> tokens = FindNodes(*snap, ByLabel(NodeLabel::kToken));
  ASSERT_FALSE(tokens.empty());
  NodeId node = tokens.front();

  auto members = *SubgraphQuery(*snap, node);
  GraphView view = GraphView::MakeIdentity(*snap);
  LIPSTICK_ASSERT_OK(view.ApplySubgraph({node}, true, true));
  EXPECT_EQ(view.num_visible(), members.size());
  size_t visible = 0;
  view.ForEachVisibleNode([&](NodeId id, const GraphView::SyntheticNode*) {
    EXPECT_TRUE(members.count(id)) << id;
    ++visible;
  });
  EXPECT_EQ(visible, members.size());

  // Eager restriction: kill every non-member on a clone and save.
  ProvenanceGraph eager = CloneSealed(original);
  for (NodeId id : eager.AllNodeIds()) {
    if (!members.count(id)) eager.SetAlive(id, false);
  }
  eager.Seal();
  Result<ProvenanceGraph> materialized = view.Materialize();
  LIPSTICK_ASSERT_OK(materialized.status());
  EXPECT_EQ(SaveBytes(*materialized), SaveBytes(eager));

  // Dot of the view == dot of the eagerly restricted graph.
  std::ostringstream view_dot;
  LIPSTICK_ASSERT_OK(WriteDot(view, view_dot));
  EXPECT_EQ(view_dot.str(), DotBytes(eager));
}

TEST(ViewTest, ZoomOutOfUnknownModuleFails) {
  ProvenanceGraph g = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  EXPECT_FALSE(ZoomedView(*snap, {"nonexistent_module"}).ok());
}

// ---------------------------------------------------------------------
// ZoomOut planning over the invocation-run index vs the full-scan
// reference planner.
// ---------------------------------------------------------------------

/// Every invocation's runs cover exactly the nodes tagged with it, each
/// run is maximal within its shard, and a snapshot's runs are in id order.
void ExpectRunsMatchTags(const GraphSnapshot& snap, const std::string& what) {
  const size_t num_invocations = snap.invocations().size();
  std::vector<uint64_t> tagged(num_invocations, 0);
  snap.ForEachNode([&](NodeId id) {
    uint32_t inv = snap.node(id).invocation();
    if (inv < num_invocations) ++tagged[inv];
  });
  std::vector<uint64_t> covered(num_invocations, 0);
  for (uint32_t inv = 0; inv < num_invocations; ++inv) {
    NodeId prev_last = kInvalidNode;
    for (const NodeRun& run : snap.InvocationRuns(inv)) {
      ASSERT_GT(run.length, 0u) << what;
      const NodeId last = run.first + run.length - 1;
      const uint32_t shard = NodeShard(run.first);
      ASSERT_EQ(NodeShard(last), shard) << what;
      ASSERT_LT(NodeIndex(last), snap.ShardSize(shard)) << what;
      EXPECT_LT(prev_last, run.first) << what << ": invocation " << inv;
      prev_last = last;
      for (NodeId id = run.first; id <= last; ++id) {
        ASSERT_EQ(snap.node(id).invocation(), inv) << what << ": " << id;
      }
      if (NodeIndex(run.first) > 0) {
        EXPECT_NE(snap.node(run.first - 1).invocation(), inv) << what;
      }
      if (NodeIndex(last) + 1 < snap.ShardSize(shard)) {
        EXPECT_NE(snap.node(last + 1).invocation(), inv) << what;
      }
      covered[inv] += run.length;
    }
  }
  EXPECT_EQ(covered, tagged) << what;
  EXPECT_TRUE(snap.InvocationRuns(num_invocations).empty()) << what;
  EXPECT_TRUE(snap.InvocationRuns(kNoInvocation).empty()) << what;
}

/// Plans `modules` as one zoom stage after `prefix` (a pipeline of view
/// stages, or empty) with internal::PlanZoomOut and with the reference
/// planner, from the same hide mask, and checks that both remove the same
/// nodes and collapse the same invocations, and that the result covers
/// every module's intermediates by Definition 4.1.
void ExpectPlannerMatchesReference(
    const GraphSnapshot& snap, const std::string& prefix,
    const std::set<std::string>& modules,
    const std::map<std::string, std::unordered_set<NodeId>>& by_definition,
    const std::string& what) {
  GraphView view =
      prefix.empty() ? GraphView::MakeIdentity(snap) : PlanView(snap, prefix);
  VisitedLease got = snap.AcquireVisited();
  VisitedLease want = snap.AcquireVisited();
  snap.ForEachNode([&](NodeId id) {
    if (!view.Visible(id)) {
      got->Set(id);
      want->Set(id);
    }
  });
  for (const std::string& module : modules) {
    Result<internal::ZoomPlan> plan =
        internal::PlanZoomOut(snap, module, *got);
    Result<testing::ReferenceZoomPlan> ref =
        testing::ReferencePlanZoomOut(snap, module, *want);
    ASSERT_EQ(plan.ok(), ref.ok()) << what;
    if (!plan.ok()) continue;
    EXPECT_EQ(plan->num_removed, ref->removed.size()) << what;
    ASSERT_EQ(plan->invocations.size(), ref->invocations.size()) << what;
    for (size_t i = 0; i < plan->invocations.size(); ++i) {
      const internal::ZoomInvocationPlan& a = plan->invocations[i];
      const internal::ZoomInvocationPlan& b = ref->invocations[i];
      EXPECT_EQ(a.invocation, b.invocation) << what;
      EXPECT_EQ(a.m_node, b.m_node) << what;
      EXPECT_EQ(a.zoom_parents, b.zoom_parents) << what;
      EXPECT_EQ(a.outputs, b.outputs) << what;
      EXPECT_TRUE(snap.Contains(a.m_node) && view.Visible(a.m_node)) << what;
    }
  }
  size_t mismatches = 0;
  snap.ForEachNode([&](NodeId id) {
    mismatches += got->Test(id) != want->Test(id) ? 1 : 0;
  });
  EXPECT_EQ(mismatches, 0u) << what;
  // The planner finds intermediates by their tag, so a node whose tag
  // names no invocation stays; a zoom node of an earlier zoom stands for
  // its whole invocation and stays too.
  for (const std::string& module : modules) {
    for (NodeId id : by_definition.at(module)) {
      NodeView n = snap.node(id);
      if (n.role() == NodeRole::kZoom ||
          n.invocation() >= snap.invocations().size()) {
        continue;
      }
      EXPECT_TRUE(got->Test(id)) << what << ": " << module << " keeps " << id;
    }
  }
}

/// The planner differential over one graph: every module, every pair of
/// modules in one stage, each of them alone and after a subgraph, a
/// restrict and a delete stage.
void ExpectZoomPlansMatchReference(const ProvenanceGraph& graph,
                                   const std::string& what) {
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(graph);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ExpectRunsMatchTags(*snap, what);
  const std::set<std::string> modules = ModuleNames(*snap);
  ASSERT_GE(modules.size(), 2u) << what;
  std::map<std::string, std::unordered_set<NodeId>> by_definition;
  for (const std::string& m : modules) {
    Result<std::unordered_set<NodeId>> nodes =
        IntermediateNodesByDefinition(*snap, m);
    ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
    by_definition[m] = std::move(*nodes);
  }
  NodeId out = kInvalidNode;
  for (const InvocationInfo& inv : snap->invocations()) {
    if (!inv.aborted() && !inv.output_nodes.empty() &&
        snap->Contains(inv.output_nodes.front())) {
      out = inv.output_nodes.front();
      break;
    }
  }
  ASSERT_NE(out, kInvalidNode) << what;
  const NodeId token = FindNodes(*snap, ByLabel(NodeLabel::kToken)).front();
  std::vector<std::set<std::string>> groups;
  for (auto a = modules.begin(); a != modules.end(); ++a) {
    groups.push_back({*a});
    for (auto b = std::next(a); b != modules.end(); ++b) {
      groups.push_back({*a, *b});
    }
  }
  for (const std::string& prefix :
       {std::string(), StrCat("subgraph ", out, " up"),
        std::string("restrict --label token"), StrCat("delete ", token)}) {
    for (const std::set<std::string>& group : groups) {
      ExpectPlannerMatchesReference(
          *snap, prefix, group, by_definition,
          StrCat(what, ": ", prefix, " | zoomout ",
                 Join({group.begin(), group.end()}, ",")));
    }
  }
}

TEST(ZoomPlanTest, RunsPlannerMatchesTheFullScanReference) {
  ProvenanceGraph one = BuildDealershipGraph(1);
  ExpectZoomPlansMatchReference(one, "dealership x1");
  ExpectZoomPlansMatchReference(BuildDealershipGraph(4), "dealership x4");
  ExpectZoomPlansMatchReference(BuildArcticGraph(), "arctic");
  ExpectZoomPlansMatchReference(CloneSealed(one), "saved and loaded");
  // A materialized zoom view: its zoom nodes, tagged with their
  // invocations, sit at the end of shard 0 and add runs there.
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(one);
  LIPSTICK_ASSERT_OK(snap.status());
  Result<GraphView> zoomed = ZoomedView(*snap, {"dealer"});
  LIPSTICK_ASSERT_OK(zoomed.status());
  Result<ProvenanceGraph> materialized = zoomed->Materialize();
  LIPSTICK_ASSERT_OK(materialized.status());
  ExpectZoomPlansMatchReference(*materialized, "materialized zoom view");
  // A tag that names no invocation (validator G0307) splits a run and
  // falls in none.
  ProvenanceGraph bad = CloneSealed(one);
  NodeId victim = kInvalidNode;
  for (const NodeRun& run : snap->InvocationRuns(0)) {
    if (run.length >= 3) victim = run.first + 1;
  }
  ASSERT_NE(victim, kInvalidNode);
  bad.SetInvocationTag(victim, static_cast<uint32_t>(
                                   bad.invocations().size() + 5));
  ExpectZoomPlansMatchReference(bad, "untracked tag");
  // A state-base token that a node outside every invocation derives from
  // stays when its module is zoomed out.
  ProvenanceGraph used = CloneSealed(one);
  NodeId base = kInvalidNode;
  used.ForEachAliveNode([&](NodeId id) {
    if (base == kInvalidNode &&
        used.node(id).role() == NodeRole::kStateBase &&
        used.node(id).invocation() < used.invocations().size()) {
      base = id;
    }
  });
  ASSERT_NE(base, kInvalidNode);
  used.writer().Plus({base});
  used.Seal();
  ExpectZoomPlansMatchReference(used, "a base used outside its module");
}

TEST(ZoomPlanTest, PlanningScansOnlyTheZoomedInvocationsRuns) {
  // query.zoom_nodes_scanned counts the nodes the planner's two walks
  // visit: twice the nodes tagged with the module's live invocations.
  ProvenanceGraph g = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  for (const std::string module : {"aggregate", "dealer"}) {
    uint64_t tagged = 0;
    snap->ForEachNode([&](NodeId id) {
      uint32_t inv = snap->node(id).invocation();
      if (inv < snap->invocations().size() &&
          !snap->invocations()[inv].aborted() &&
          snap->str(snap->invocations()[inv].module_name) == module) {
        ++tagged;
      }
    });
    ASSERT_GT(tagged, 0u) << module;
    ASSERT_LT(tagged, snap->num_nodes()) << module;
    metrics.ResetValues();
    metrics.Enable();
    Result<GraphView> view = ZoomedView(*snap, {module});
    metrics.Disable();
    LIPSTICK_ASSERT_OK(view.status());
    uint64_t scanned = 0;
    for (const auto& [name, value] : metrics.Snap().counters) {
      if (name == "query.zoom_nodes_scanned") scanned = value;
    }
    metrics.ResetValues();
    EXPECT_EQ(scanned, 2 * tagged) << module;
  }
}

// ---------------------------------------------------------------------
// Zoomer: zoom levels as views over one snapshot, byte-identical to the
// eager reference and to the original graph after zooming back in.
// ---------------------------------------------------------------------

void ExpectZoomRoundTrip(const ProvenanceGraph& original,
                         const std::set<std::string>& modules) {
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(original);
  ASSERT_TRUE(snap.ok());
  Zoomer zoomer(*snap);
  LIPSTICK_ASSERT_OK(zoomer.ZoomOut(modules));
  EXPECT_NE(SaveBytes(*zoomer.Materialize()), SaveBytes(original));
  LIPSTICK_ASSERT_OK(zoomer.ZoomIn(modules));
  EXPECT_EQ(SaveBytes(*zoomer.Materialize()), SaveBytes(original));
  LIPSTICK_ASSERT_OK(zoomer.ZoomOutAll());
  std::set<std::string> all;
  for (const InvocationInfo& inv : original.invocations()) {
    all.insert(std::string(original.str(inv.module_name)));
  }
  LIPSTICK_ASSERT_OK(zoomer.ZoomIn(all));
  EXPECT_EQ(SaveBytes(*zoomer.Materialize()), SaveBytes(original));
}

TEST(ZoomerTest, ZoomInOfZoomOutMaterializesTheOriginalBytes) {
  ExpectZoomRoundTrip(BuildDealershipGraph(), {"dealer", "aggregate"});
  ExpectZoomRoundTrip(BuildArcticGraph(), {"station"});
}

TEST(ZoomerTest, EveryZoomLevelMatchesTheEagerReference) {
  ProvenanceGraph original = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(original);
  LIPSTICK_ASSERT_OK(snap.status());
  Zoomer zoomer(*snap);
  // The zoomer's view against the eager reference applying the groups
  // that remain zoomed out, in the order they were zoomed out.
  auto expect_level = [&](const std::vector<std::set<std::string>>& groups) {
    ProvenanceGraph eager = CloneSealed(original);
    for (const std::set<std::string>& group : groups) {
      LIPSTICK_ASSERT_OK(testing::ReferenceZoomOut(&eager, group));
    }
    EXPECT_EQ(SaveBytes(*zoomer.Materialize()), SaveBytes(eager));
    EXPECT_EQ(zoomer.view().num_visible(), eager.num_alive());
  };
  LIPSTICK_ASSERT_OK(zoomer.ZoomOut({"dealer"}));
  expect_level({{"dealer"}});
  // dealer is already zoomed out; only aggregate joins, as a new group.
  LIPSTICK_ASSERT_OK(zoomer.ZoomOut({"aggregate", "dealer"}));
  expect_level({{"dealer"}, {"aggregate"}});
  LIPSTICK_ASSERT_OK(zoomer.ZoomIn({"dealer"}));
  EXPECT_FALSE(zoomer.IsZoomedOut("dealer"));
  EXPECT_TRUE(zoomer.IsZoomedOut("aggregate"));
  expect_level({{"aggregate"}});
  LIPSTICK_ASSERT_OK(zoomer.ZoomOut({"dealer"}));
  expect_level({{"aggregate"}, {"dealer"}});
  LIPSTICK_ASSERT_OK(zoomer.ZoomIn({"aggregate", "dealer"}));
  expect_level({});
}

TEST(ZoomerTest, FailedZoomOutLeavesTheZoomerUnchanged) {
  ProvenanceGraph original = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(original);
  LIPSTICK_ASSERT_OK(snap.status());
  Zoomer zoomer(*snap);
  LIPSTICK_ASSERT_OK(zoomer.ZoomOut({"dealer"}));
  std::string before = SaveBytes(*zoomer.Materialize());
  // "aggregate" sorts first, so the group collapses it before failing on
  // the unknown module.
  EXPECT_EQ(zoomer.ZoomOut({"aggregate", "nonexistent_module"}).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(zoomer.IsZoomedOut("aggregate"));
  EXPECT_EQ(SaveBytes(*zoomer.Materialize()), before);
  EXPECT_EQ(zoomer.ZoomIn({"aggregate"}).code(),
            StatusCode::kInvalidArgument);
  LIPSTICK_ASSERT_OK(zoomer.ZoomIn({"dealer"}));
  EXPECT_EQ(SaveBytes(*zoomer.Materialize()), SaveBytes(original));
}

// ---------------------------------------------------------------------
// Concurrency stress: N reader threads over one snapshot must agree with
// the single-threaded baseline. Runs under TSan in CI.
// ---------------------------------------------------------------------

TEST(SnapshotStressTest, ConcurrentMixedReadersMatchBaseline) {
  ProvenanceGraph g = BuildDealershipGraph();
  Result<GraphSnapshot> snap_or = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap_or.status());
  const GraphSnapshot& snap = *snap_or;

  std::vector<NodeId> tokens = FindNodes(snap, ByLabel(NodeLabel::kToken));
  ASSERT_GE(tokens.size(), 2u);
  NodeId probe = tokens.front();
  NodeId other = tokens.back();

  // Single-threaded baselines.
  const std::string baseline_zoom_bytes = [&] {
    Result<GraphView> view = ZoomedView(snap, {"dealer"});
    EXPECT_TRUE(view.ok());
    return SaveBytes(*view->Materialize());
  }();
  const auto baseline_members = *SubgraphQuery(snap, probe);
  const auto baseline_depends = *DependsOn(snap, other, probe);
  const auto baseline_stats = *ComputeGraphStats(snap);

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        switch ((t + round) % 4) {
          case 0: {
            Result<GraphView> view = ZoomedView(snap, {"dealer"});
            if (!view.ok() ||
                SaveBytes(*view->Materialize()) != baseline_zoom_bytes) {
              mismatches.fetch_add(1);
            }
            break;
          }
          case 1: {
            auto members = SubgraphQuery(snap, probe);
            if (!members.ok() || *members != baseline_members) {
              mismatches.fetch_add(1);
            }
            break;
          }
          case 2: {
            auto dep = DependsOn(snap, other, probe);
            if (!dep.ok() || *dep != baseline_depends) {
              mismatches.fetch_add(1);
            }
            break;
          }
          case 3: {
            auto stats = ComputeGraphStats(snap);
            if (!stats.ok() || stats->edges != baseline_stats.edges ||
                stats->depth != baseline_stats.depth) {
              mismatches.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace lipstick
