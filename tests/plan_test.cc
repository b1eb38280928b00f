// Plan algebra tests: parser + canonicalization, optimizer rewrites, the
// plan-equivalence suite (the fused executor must render byte-identically
// to materializing a standalone graph between every stage, including dot
// and provio exports), and the composed-view prefix cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/cancel.h"
#include "common/str_util.h"
#include "provenance/dot.h"
#include "provenance/exec.h"
#include "provenance/optimizer.h"
#include "provenance/plan.h"
#include "provenance/provio.h"
#include "provenance/query.h"
#include "provenance/snapshot.h"
#include "provenance/view.h"
#include "reference_terminals.h"
#include "service/client.h"
#include "service/ops.h"
#include "service/registry.h"
#include "service/server.h"
#include "test_util.h"
#include "workflowgen/dealership.h"

namespace lipstick {
namespace {

// ---------------------------------------------------------------------
// Parser + canonicalization
// ---------------------------------------------------------------------

Plan MustParse(const std::string& op,
               const std::vector<std::string>& args = {}) {
  Result<Plan> plan = ParsePlan(op, args);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? *plan : Plan{};
}

std::string ParseError(const std::string& op,
                       const std::vector<std::string>& args = {}) {
  Result<Plan> plan = ParsePlan(op, args);
  EXPECT_FALSE(plan.ok()) << "parsed: " << plan->Canonical();
  return plan.ok() ? "" : std::string(plan.status().message());
}

TEST(PlanParseTest, SingleOpsCanonicalize) {
  EXPECT_EQ(MustParse("stats").Canonical(), "stats");
  EXPECT_EQ(MustParse("zoomout", {"b", "a"}).Canonical(), "zoomout(a,b)");
  EXPECT_EQ(MustParse("subgraph", {"42"}).Canonical(), "subgraph(42)");
  EXPECT_EQ(MustParse("expr", {"7"}).Canonical(), "expr(7)");
  EXPECT_EQ(MustParse("depends", {"7", "9"}).Canonical(), "depends(7,9)");
}

TEST(PlanParseTest, EquivalentRequestsShareOneCanonicalString) {
  // Module order and comma-vs-whitespace spelling don't matter.
  EXPECT_EQ(MustParse("zoomout", {"b", "a"}).Canonical(),
            MustParse("zoomout", {"a,b"}).Canonical());
  // Conjunction order in find/restrict doesn't matter.
  EXPECT_EQ(
      MustParse("find", {"--payload", "x", "--label", "token"}).Canonical(),
      MustParse("find", {"--label", "token", "--payload", "x"}).Canonical());
}

TEST(PlanParseTest, FindTrailingOddFlagIgnored) {
  // The legacy parser consumed flags in pairs and silently dropped a
  // trailing odd flag; the plan parser reproduces that.
  EXPECT_EQ(MustParse("find", {"--label", "token", "--payload"}).Canonical(),
            "find(label=token)");
}

TEST(PlanParseTest, PipelineSplitsOnPipes) {
  Plan plan = MustParse("zoomout m1,m2 | subgraph 42 | stats");
  ASSERT_EQ(plan.ops.size(), 3u);
  EXPECT_EQ(plan.ops[0].kind, PlanOpKind::kZoomOut);
  EXPECT_EQ(plan.ops[1].kind, PlanOpKind::kSubgraph);
  EXPECT_EQ(plan.ops[2].kind, PlanOpKind::kStats);
  EXPECT_EQ(plan.Canonical(), "zoomout(m1,m2)|subgraph(42)|stats");
  EXPECT_EQ(plan.NumViewOps(), 2u);
  EXPECT_TRUE(plan.HasTerminal());
  // Glued pipes split the same way, and args tokens join the op string.
  EXPECT_EQ(MustParse("zoomout a|stats").Canonical(),
            MustParse("zoomout", {"a", "|", "stats"}).Canonical());
}

TEST(PlanParseTest, SubgraphDirectionAndDeleteStage) {
  EXPECT_EQ(MustParse("subgraph", {"9,7", "up"}).Canonical(),
            "subgraph(7,9;up)");
  // delete is a view stage everywhere, alone or in a pipeline.
  EXPECT_EQ(MustParse("delete 42 | stats").Canonical(), "delete(42)|stats");
  EXPECT_EQ(MustParse("delete", {"42"}).Canonical(), "delete(42)");
}

TEST(PlanParseTest, ErrorsMatchLegacyStrings) {
  EXPECT_EQ(ParseError("badop"), "unknown query operation 'badop'");
  EXPECT_EQ(ParseError("expr", {"notanid"}), "bad node id 'notanid'");
  EXPECT_EQ(ParseError("zoomout"), "zoomout needs at least one module");
  EXPECT_EQ(ParseError("subgraph", {"1", "2"}), "subgraph needs one node id");
  EXPECT_EQ(ParseError("find", {"--label", "nope"}), "unknown label 'nope'");
  EXPECT_EQ(ParseError("find", {"--role", "state"}), "unknown role 'state'");
}

TEST(PlanParseTest, PipelineShapeErrors) {
  EXPECT_EQ(ParseError("zoomout a | | stats"), "empty pipeline stage");
  EXPECT_EQ(ParseError("stats | zoomout a"),
            "terminal operation 'stats' must be last in pipeline");
  EXPECT_EQ(ParseError(""), "unknown query operation ''");
}

// ---------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------

bool HasRewrite(const OptimizedPlan& opt, const std::string& rule) {
  for (const PlanRewrite& rw : opt.rewrites) {
    if (rw.rule == rule) return true;
  }
  return false;
}

TEST(OptimizerTest, EmptyRestrictDroppedUnlessFinal) {
  OptimizedPlan opt = OptimizePlan(MustParse("restrict | stats"));
  EXPECT_EQ(opt.plan.Canonical(), "stats");
  EXPECT_TRUE(HasRewrite(opt, "noop_elimination"));
  // As the final op it renders the "restricted to N nodes" summary, so it
  // must survive.
  OptimizedPlan last = OptimizePlan(MustParse("restrict"));
  EXPECT_EQ(last.plan.Canonical(), "restrict()");
}

TEST(OptimizerTest, AdjacentRestrictsFuse) {
  OptimizedPlan opt = OptimizePlan(
      MustParse("restrict --label token | restrict --payload x | stats"));
  EXPECT_EQ(opt.plan.Canonical(), "restrict(label=token,payload=x)|stats");
  EXPECT_TRUE(HasRewrite(opt, "restrict_fusion"));
}

TEST(OptimizerTest, FusionPushdownAndPrefixesReported) {
  OptimizedPlan opt =
      OptimizePlan(MustParse("zoomout a | subgraph 42 | find --label token"));
  EXPECT_TRUE(HasRewrite(opt, "mask_fusion"));
  EXPECT_TRUE(HasRewrite(opt, "predicate_pushdown"));
  EXPECT_TRUE(HasRewrite(opt, "cache_split"));
  ASSERT_EQ(opt.view_prefixes.size(), 2u);
  EXPECT_EQ(opt.view_prefixes[0], "zoomout(a)");
  EXPECT_EQ(opt.view_prefixes[1], "zoomout(a)|subgraph(42)");
}

TEST(OptimizerTest, TerminalOnlyPlanHasNoPrefixes) {
  OptimizedPlan opt = OptimizePlan(MustParse("stats"));
  EXPECT_TRUE(opt.view_prefixes.empty());
  EXPECT_TRUE(opt.rewrites.empty());
}

// ---------------------------------------------------------------------
// Plan equivalence: fused executor vs materialize-between-stages
// ---------------------------------------------------------------------

class PlanEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workflowgen::DealershipConfig cfg;
    cfg.num_cars = 240;
    cfg.num_executions = 3;
    cfg.seed = 11;
    cfg.accept_probability = 0;
    auto wf = workflowgen::DealershipWorkflow::Create(cfg);
    ASSERT_TRUE(wf.ok()) << wf.status().ToString();
    graph_ = new ProvenanceGraph();
    ASSERT_TRUE((*wf)->Run(graph_).ok());
    graph_->Seal();
    auto snap = GraphSnapshot::Capture(*graph_);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    snap_ = new GraphSnapshot(std::move(*snap));
    auto tokens = FindNodes(*snap_, ByLabel(NodeLabel::kToken));
    ASSERT_FALSE(tokens.empty());
    token_ = tokens.front();
    auto outs = FindNodes(*snap_, And(ByRole(NodeRole::kModuleOutput),
                                      ByModule(*graph_, "aggregate")));
    ASSERT_FALSE(outs.empty());
    agg_out_ = outs.front();
    // `zoomout dealer` appends one synthetic node per dealer invocation
    // right after shard 0's nodes; the first stands for the first live
    // invocation, whose inputs are its parents.
    zoom_ = MakeNodeId(0, snap_->ShardSize(0));
    for (const InvocationInfo& inv : snap_->invocations()) {
      if (inv.aborted() || snap_->str(inv.module_name) != "dealer") continue;
      for (NodeId in : inv.input_nodes) {
        if (snap_->Contains(in)) zoom_inputs_.push_back(in);
      }
      break;
    }
    ASSERT_FALSE(zoom_inputs_.empty());
    size_t widest = 0;
    snap_->ForEachAliveNode([&](NodeId id) {
      size_t fan_in = 0;
      for (NodeId p : snap_->ParentsOf(id)) fan_in += snap_->Contains(p);
      if (fan_in > widest) {
        widest = fan_in;
        wide_ = id;
      }
    });
    ASSERT_GE(widest, 8u);
  }

  static void TearDownTestSuite() {
    delete snap_;
    snap_ = nullptr;
    delete graph_;
    graph_ = nullptr;
  }

  static std::string Fused(const std::string& query) {
    Result<Plan> plan = ParsePlan(query, {});
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    Result<std::string> out = ExecutePlan(*snap_, OptimizePlan(*plan));
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : "";
  }

  static std::string Naive(const std::string& query) {
    Result<Plan> plan = ParsePlan(query, {});
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    Result<std::string> out = ExecutePlanNaive(*snap_, *plan);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : "";
  }

  /// The reference terminal run on the materialized composed view.
  static std::string Reference(const Plan& plan) {
    Result<GraphView> view = BuildPlanView(*snap_, plan);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    if (!view.ok()) return "";
    Result<ProvenanceGraph> graph = view->Materialize();
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    if (!graph.ok()) return "";
    Result<GraphSnapshot> snap = GraphSnapshot::Capture(*graph);
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    if (!snap.ok()) return "";
    return testing::ReferenceRenderTerminal(*snap, plan.ops.back());
  }

  /// Fused == naive, and, for plans ending in a terminal, fused == the
  /// reference terminal on the materialized view.
  static void ExpectEquivalent(const std::string& query) {
    std::string fused = Fused(query);
    EXPECT_FALSE(fused.empty()) << "query: " << query;
    EXPECT_EQ(fused, Naive(query)) << "query: " << query;
    Result<Plan> plan = ParsePlan(query, {});
    if (plan.ok() && plan->HasTerminal()) {
      EXPECT_EQ(fused, Reference(*plan)) << "query: " << query;
    }
  }

  static ProvenanceGraph* graph_;
  static GraphSnapshot* snap_;
  static NodeId token_;
  static NodeId agg_out_;
  static NodeId zoom_;                      // first dealer zoom node
  static std::vector<NodeId> zoom_inputs_;  // its parents
  static NodeId wide_;                      // the widest fan-in node
};

ProvenanceGraph* PlanEquivalenceTest::graph_ = nullptr;
GraphSnapshot* PlanEquivalenceTest::snap_ = nullptr;
NodeId PlanEquivalenceTest::token_ = kInvalidNode;
NodeId PlanEquivalenceTest::agg_out_ = kInvalidNode;
NodeId PlanEquivalenceTest::zoom_ = kInvalidNode;
std::vector<NodeId> PlanEquivalenceTest::zoom_inputs_;
NodeId PlanEquivalenceTest::wide_ = kInvalidNode;

TEST_F(PlanEquivalenceTest, PipelineMatrixRendersIdentically) {
  const std::vector<std::string> queries = {
      "zoomout dealer | stats",
      "zoomout dealer | find --label token",
      "zoomout dealer,aggregate | stats",
      StrCat("zoomout dealer | subgraph ", agg_out_, " | stats"),
      StrCat("subgraph ", agg_out_, " | find --label token"),
      StrCat("subgraph ", token_, " down | stats"),
      StrCat("subgraph ", agg_out_, " up | stats"),
      "restrict --label token | stats",
      "zoomout dealer | restrict --label token | find --payload Honda",
      StrCat("delete ", token_, " | stats"),
      StrCat("delete ", token_, " | find --label token"),
      StrCat("zoomout dealer | expr ", agg_out_),
      StrCat("zoomout dealer | depends ", agg_out_, " ", token_),
      StrCat("depends ", agg_out_, " ", agg_out_),
  };
  for (const std::string& q : queries) ExpectEquivalent(q);
}

TEST_F(PlanEquivalenceTest, SyntheticAndWideNodeMatrixRendersIdentically) {
  std::vector<std::string> inputs;
  for (NodeId in : zoom_inputs_) inputs.push_back(StrCat(in));
  const std::string zoom_inputs = Join(inputs, ",");
  const NodeId wide_parent = snap_->ParentsOf(wide_).front();
  std::vector<std::string> all_parents;
  for (NodeId p : snap_->ParentsOf(wide_)) all_parents.push_back(StrCat(p));
  const std::vector<std::string> queries = {
      // A synthetic zoom node as deletion seed, as what deletion reaches,
      // and on both sides of a dependency query.
      StrCat("zoomout dealer | delete ", zoom_, " | stats"),
      StrCat("zoomout dealer | delete ", zoom_, " | find --label m"),
      StrCat("zoomout dealer | delete ", zoom_inputs, " | find --label zoom"),
      StrCat("zoomout dealer | delete ", zoom_inputs, " | stats"),
      StrCat("zoomout dealer | depends ", zoom_, " ", zoom_inputs_.front()),
      StrCat("zoomout dealer | depends ", agg_out_, " ", zoom_),
      StrCat("zoomout dealer | expr ", zoom_),
      // Subgraphs rooted at a synthetic zoom node, every direction.
      StrCat("zoomout dealer | subgraph ", zoom_, " | stats"),
      StrCat("zoomout dealer | subgraph ", zoom_, " up | find --label zoom"),
      StrCat("zoomout dealer | subgraph ", zoom_, " down | stats"),
      StrCat("zoomout dealer | subgraph ", zoom_),
      // Deletion seeded on, and flowing into, the widest fan-in node.
      StrCat("delete ", wide_, " | stats"),
      StrCat("delete ", wide_parent, " | stats"),
      StrCat("delete ", Join(all_parents, ","), " | stats"),
      StrCat("depends ", wide_, " ", wide_parent),
      StrCat("depends ", agg_out_, " ", wide_),
      StrCat("zoomout dealer | delete ", wide_, " | find --label token"),
  };
  for (const std::string& q : queries) ExpectEquivalent(q);
}

TEST_F(PlanEquivalenceTest, ViewFinalPipelinesRenderSummaries) {
  // A chain ending in a view op renders that op's legacy summary line.
  const std::vector<std::string> queries = {
      "zoomout dealer",
      StrCat("zoomout dealer | subgraph ", agg_out_),
      "zoomout dealer | restrict --label token",
      StrCat("subgraph ", agg_out_, " | delete ", token_),
  };
  for (const std::string& q : queries) {
    ExpectEquivalent(q);
    EXPECT_NE(Fused(q).find("nodes"), std::string::npos) << Fused(q);
  }
}

TEST_F(PlanEquivalenceTest, LongSummaryLinesRenderInFull) {
  // Thirty roots make a summary line far past 255 bytes; it must keep
  // every id, its node count and its newline, locally and as served.
  std::vector<NodeId> tokens = FindNodes(*snap_, ByLabel(NodeLabel::kToken));
  ASSERT_GE(tokens.size(), 30u);
  tokens.resize(30);
  std::vector<std::string> ids;
  for (NodeId id : tokens) ids.push_back(StrCat(id));
  const std::string roots = Join(ids, ",");
  Result<Plan> plan = ParsePlan("subgraph", {roots});
  LIPSTICK_ASSERT_OK(plan.status());
  Result<GraphView> view = BuildPlanView(*snap_, *plan);
  LIPSTICK_ASSERT_OK(view.status());
  std::vector<NodeId> sorted = tokens;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::string> sorted_ids;
  for (NodeId id : sorted) sorted_ids.push_back(StrCat(id));
  const std::string want = StrCat("subgraph of ", Join(sorted_ids, ","),
                                  ": ", view->num_visible(), " nodes\n");
  ASSERT_GT(want.size(), 255u);
  EXPECT_EQ(Fused(StrCat("subgraph ", roots)), want);
  EXPECT_EQ(Naive(StrCat("subgraph ", roots)), want);
  Result<std::string> served =
      service::ExecuteReadQuery(*snap_, "subgraph", {roots}, 1);
  LIPSTICK_ASSERT_OK(served.status());
  EXPECT_EQ(*served, want);
}

TEST_F(PlanEquivalenceTest, SingleOpsMatchReferenceTerminals) {
  // Plans without view ops run their terminal on the identity view; both
  // kinds must agree with the naive executor and the reference terminals.
  const std::vector<std::string> queries = {
      "stats",
      "find --label token",
      StrCat("expr ", agg_out_),
      StrCat("depends ", agg_out_, " ", token_),
      StrCat("subgraph ", agg_out_),
      "zoomout dealer",
  };
  for (const std::string& q : queries) ExpectEquivalent(q);
}

TEST_F(PlanEquivalenceTest, ErrorsPropagateThroughBothExecutors) {
  Result<Plan> plan = ParsePlan("zoomout nosuchmodule | stats", {});
  ASSERT_TRUE(plan.ok());
  Result<std::string> fused = ExecutePlan(*snap_, OptimizePlan(*plan));
  Result<std::string> naive = ExecutePlanNaive(*snap_, *plan);
  ASSERT_FALSE(fused.ok());
  ASSERT_FALSE(naive.ok());
  EXPECT_EQ(fused.status().code(), naive.status().code());
  EXPECT_EQ(std::string(fused.status().message()),
            std::string(naive.status().message()));
}

TEST_F(PlanEquivalenceTest, DotAndProvioExportsMatchNaiveMaterialization) {
  Result<Plan> plan = ParsePlan(
      StrCat("zoomout dealer | subgraph ", agg_out_), {});
  ASSERT_TRUE(plan.ok());

  // Fused: one composed view, rendered / materialized once.
  Result<GraphView> view = BuildPlanView(*snap_, *plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Naive: materialize a standalone graph after every stage.
  Result<ProvenanceGraph> stage1 = [&]() -> Result<ProvenanceGraph> {
    Plan first;
    first.ops.push_back(plan->ops[0]);
    LIPSTICK_ASSIGN_OR_RETURN(GraphView v, BuildPlanView(*snap_, first));
    return v.Materialize();
  }();
  ASSERT_TRUE(stage1.ok()) << stage1.status().ToString();
  stage1->Seal();
  Result<GraphSnapshot> snap1 = GraphSnapshot::Capture(*stage1);
  ASSERT_TRUE(snap1.ok());
  Result<ProvenanceGraph> naive_final = [&]() -> Result<ProvenanceGraph> {
    Plan second;
    second.ops.push_back(plan->ops[1]);
    LIPSTICK_ASSIGN_OR_RETURN(GraphView v, BuildPlanView(*snap1, second));
    return v.Materialize();
  }();
  ASSERT_TRUE(naive_final.ok()) << naive_final.status().ToString();
  naive_final->Seal();

  // Dot: rendering the composed view directly == rendering the
  // stage-by-stage materialized graph.
  std::ostringstream fused_dot, naive_dot;
  LIPSTICK_ASSERT_OK(WriteDot(*view, fused_dot));
  LIPSTICK_ASSERT_OK(WriteDot(
      GraphView::MakeIdentity(testing::Snap(*naive_final)), naive_dot));
  EXPECT_EQ(fused_dot.str(), naive_dot.str());

  // Provio: materializing the composed view == the naive chain.
  Result<ProvenanceGraph> fused_mat = view->Materialize();
  ASSERT_TRUE(fused_mat.ok());
  fused_mat->Seal();
  std::ostringstream fused_pg, naive_pg;
  LIPSTICK_ASSERT_OK(SaveGraph(*fused_mat, fused_pg));
  LIPSTICK_ASSERT_OK(SaveGraph(*naive_final, naive_pg));
  EXPECT_EQ(fused_pg.str(), naive_pg.str());
}

TEST_F(PlanEquivalenceTest, CancelledTraversalsFailAndCacheNothing) {
  const std::vector<std::string> queries = {
      StrCat("subgraph ", agg_out_),
      StrCat("depends ", agg_out_, " ", token_),
      StrCat("zoomout dealer | subgraph ", agg_out_, " | stats"),
      StrCat("delete ", token_, " | stats"),
  };
  for (const std::string& q : queries) {
    Result<Plan> plan = ParsePlan(q, {});
    ASSERT_TRUE(plan.ok());
    OptimizedPlan opt = OptimizePlan(*plan);
    PlanViewCache cache(8);
    ExecOptions opts;
    opts.cache = &cache;
    opts.scope = "test";
    {
      CancelToken token;
      token.Cancel(Status::Aborted("client went away"));
      CancelScope scope(&token);
      Result<std::string> out = ExecutePlan(*snap_, opt, opts);
      ASSERT_FALSE(out.ok()) << "query: " << q;
      EXPECT_EQ(out.status().code(), StatusCode::kAborted) << "query: " << q;
    }
    EXPECT_EQ(cache.entries(), 0u) << "query: " << q;
    // The same request, uncancelled against the same cache, is whole.
    Result<std::string> again = ExecutePlan(*snap_, opt, opts);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(*again, Fused(q)) << "query: " << q;
  }
}

// ---------------------------------------------------------------------
// A zoom over a view that hides an invocation's m-node
// ---------------------------------------------------------------------

TEST(ZoomAfterHiddenInvocationTest, AddsNoOrphanZoomNodes) {
  // `subgraph <first request output> up` keeps that output and its 4
  // ancestors, no dealer m-node among them. Zooming dealer out over it
  // must not add a zoom node for each of the 40 hidden dealer invocations;
  // every surface agrees.
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 2000;
  cfg.num_executions = 5;
  cfg.seed = 1;
  cfg.accept_probability = 0;
  auto wf = workflowgen::DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  ProvenanceGraph graph;
  LIPSTICK_ASSERT_OK((*wf)->Run(&graph).status());
  NodeId out = kInvalidNode;
  for (const InvocationInfo& inv : graph.invocations()) {
    if (!inv.aborted() && graph.str(inv.module_name) == "request" &&
        !inv.output_nodes.empty()) {
      out = inv.output_nodes.front();
      break;
    }
  }
  ASSERT_NE(out, kInvalidNode);
  service::GraphRegistry registry;
  LIPSTICK_ASSERT_OK(registry.AddGraph("g", std::move(graph)));
  Result<std::shared_ptr<const service::LoadedGraph>> loaded =
      registry.Get("g");
  LIPSTICK_ASSERT_OK(loaded.status());
  const GraphSnapshot& snap = (*loaded)->snapshot;
  service::Server server(&registry, service::ServerOptions{});
  LIPSTICK_ASSERT_OK(server.Start());
  Result<service::ServiceClient> client =
      service::ServiceClient::ConnectHostPort("127.0.0.1", server.port());
  LIPSTICK_ASSERT_OK(client.status());

  const std::string hidden = StrCat("subgraph ", out, " up");
  const std::vector<std::pair<std::string, std::string>> cases = {
      {StrCat(hidden, " | stats"), "nodes:        5\n"},
      {StrCat(hidden, " | zoomout dealer | stats"), "nodes:        5\n"},
      {StrCat(hidden, " | zoomout dealer"),
       "zoomed out of 1 module(s); 5 nodes remain\n"},
  };
  for (const auto& [q, want] : cases) {
    Result<Plan> plan = ParsePlan(q, {});
    LIPSTICK_ASSERT_OK(plan.status());
    Result<std::string> fused = ExecutePlan(snap, OptimizePlan(*plan));
    Result<std::string> naive = ExecutePlanNaive(snap, *plan);
    Result<std::string> local = service::ExecuteReadQuery(snap, q, {}, 1);
    Result<std::string> served = client->Query(q, {});
    LIPSTICK_ASSERT_OK(fused.status());
    LIPSTICK_ASSERT_OK(naive.status());
    LIPSTICK_ASSERT_OK(local.status());
    LIPSTICK_ASSERT_OK(served.status());
    EXPECT_EQ(fused->substr(0, want.size()), want) << q;
    EXPECT_EQ(*naive, *fused) << q;
    EXPECT_EQ(*local, *fused) << q;
    EXPECT_EQ(*served, *fused) << q;
  }
  server.Shutdown();
}

// ---------------------------------------------------------------------
// PlanViewCache: composed-view prefix reuse
// ---------------------------------------------------------------------

TEST_F(PlanEquivalenceTest, CachedExecutionMatchesUncached) {
  PlanViewCache cache(8);
  ExecOptions opts;
  opts.cache = &cache;
  opts.scope = "test";

  const std::string q1 = "zoomout dealer | stats";
  const std::string q2 =
      StrCat("zoomout dealer | subgraph ", agg_out_, " | stats");

  Result<Plan> p1 = ParsePlan(q1, {});
  Result<Plan> p2 = ParsePlan(q2, {});
  ASSERT_TRUE(p1.ok() && p2.ok());

  // Cold: miss, publishes the "zoomout(dealer)" prefix.
  Result<std::string> r1 = ExecutePlan(*snap_, OptimizePlan(*p1), opts);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_GE(cache.entries(), 1u);

  // q2 shares the zoomout prefix: hit, and output still byte-identical to
  // the uncached run.
  Result<std::string> r2 = ExecutePlan(*snap_, OptimizePlan(*p2), opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(*r2, Fused(q2));

  // Re-running q2 hits its own longest prefix.
  Result<std::string> r3 = ExecutePlan(*snap_, OptimizePlan(*p2), opts);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(*r3, *r2);

  // Re-running q1 also hits; outputs stay stable.
  Result<std::string> r4 = ExecutePlan(*snap_, OptimizePlan(*p1), opts);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(*r4, *r1);
}

TEST_F(PlanEquivalenceTest, CacheCapacityZeroDisables) {
  PlanViewCache cache(0);
  ExecOptions opts;
  opts.cache = &cache;
  opts.scope = "test";
  Result<Plan> plan = ParsePlan("zoomout dealer | stats", {});
  ASSERT_TRUE(plan.ok());
  for (int i = 0; i < 2; ++i) {
    Result<std::string> out = ExecutePlan(*snap_, OptimizePlan(*plan), opts);
    ASSERT_TRUE(out.ok());
  }
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST_F(PlanEquivalenceTest, CacheEvictsLeastRecentlyUsed) {
  PlanViewCache cache(1);
  ExecOptions opts;
  opts.cache = &cache;
  opts.scope = "test";
  Result<Plan> pa = ParsePlan("zoomout dealer | stats", {});
  Result<Plan> pb = ParsePlan("zoomout aggregate | stats", {});
  ASSERT_TRUE(pa.ok() && pb.ok());
  ASSERT_TRUE(ExecutePlan(*snap_, OptimizePlan(*pa), opts).ok());
  ASSERT_TRUE(ExecutePlan(*snap_, OptimizePlan(*pb), opts).ok());
  EXPECT_EQ(cache.entries(), 1u);
  // pa's prefix was evicted by pb's: running pa again misses.
  uint64_t misses_before = cache.misses();
  ASSERT_TRUE(ExecutePlan(*snap_, OptimizePlan(*pa), opts).ok());
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST_F(PlanEquivalenceTest, CacheScopesAreIsolated) {
  PlanViewCache cache(8);
  Result<Plan> plan = ParsePlan("zoomout dealer | stats", {});
  ASSERT_TRUE(plan.ok());
  ExecOptions a;
  a.cache = &cache;
  a.scope = "graph-a";
  ExecOptions b;
  b.cache = &cache;
  b.scope = "graph-b";
  ASSERT_TRUE(ExecutePlan(*snap_, OptimizePlan(*plan), a).ok());
  // Same prefix under a different scope must not hit.
  ASSERT_TRUE(ExecutePlan(*snap_, OptimizePlan(*plan), b).ok());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

}  // namespace
}  // namespace lipstick
