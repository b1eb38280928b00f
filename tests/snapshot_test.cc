// Tests for the unified read path: GraphSnapshot, the shared traversal
// engine, lazy GraphViews, and their equivalence with the eager mutating
// operators — including byte-identity of materialized views under provio
// and a multi-threaded stress run (exercised under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "provenance/deletion.h"
#include "provenance/dot.h"
#include "provenance/graph.h"
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

ProvenanceGraph BuildDealershipGraph() {
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 200;
  cfg.num_executions = 3;
  cfg.seed = 11;
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
                             const std::set<std::string>& modules,
                             int threads) {
  GraphView view = GraphView::MakeIdentity(snap);
  LIPSTICK_RETURN_IF_ERROR(
      view.ApplyZoomOut({modules.begin(), modules.end()}, threads));
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
    Result<GraphView> view = ZoomedView(*snap, modules, 4);
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
  Result<GraphView> view = ZoomedView(*snap, {"dealer"}, 2);
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
  EXPECT_FALSE(ZoomedView(*snap, {"nonexistent_module"}, 1).ok());
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
    Result<GraphView> view = ZoomedView(snap, {"dealer"}, 1);
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
            Result<GraphView> view = ZoomedView(snap, {"dealer"}, 2);
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
