#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "provenance/graph.h"
#include "provenance/provio.h"
#include "provenance/query.h"
#include "provenance/semiring.h"
#include "provenance/string_pool.h"
#include "test_util.h"

namespace lipstick {
namespace {

using testing::Snap;

TEST(GraphTest, NodeIdPacking) {
  NodeId id = MakeNodeId(3, 12345);
  EXPECT_EQ(NodeShard(id), 3u);
  EXPECT_EQ(NodeIndex(id), 12345u);
  EXPECT_NE(MakeNodeId(0, 0), kInvalidNode);  // shard 0 index 0 is valid
}

TEST(GraphTest, BasicConstruction) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId x = w.Token("x");
  NodeId y = w.Token("y");
  NodeId sum = w.Plus({x, y});
  NodeId prod = w.Times({x, y});
  NodeId delta = w.Delta({sum});
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.node(sum).label(), NodeLabel::kPlus);
  EXPECT_EQ(g.node(prod).label(), NodeLabel::kTimes);
  EXPECT_EQ(g.node(delta).parents().size(), 1u);
  EXPECT_EQ(g.node(x).payload(), "x");
  EXPECT_TRUE(g.Contains(x));
  EXPECT_FALSE(g.Contains(kInvalidNode));
  EXPECT_FALSE(g.Contains(MakeNodeId(7, 0)));  // unknown shard
}

TEST(GraphTest, SealBuildsChildren) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId x = w.Token("x");
  NodeId a = w.Plus({x});
  NodeId b = w.Times({x, a});
  g.Seal();
  ASSERT_TRUE(g.sealed());
  std::span<const NodeId> children = g.ChildrenOf(x);
  EXPECT_EQ(children.size(), 2u);
  EXPECT_EQ(testing::ToVec(g.ChildrenOf(a)), std::vector<NodeId>{b});
  EXPECT_TRUE(g.ChildrenOf(b).empty());
}

TEST(GraphTest, DeadNodesAreExcluded) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId x = w.Token("x");
  NodeId a = w.Plus({x});
  g.SetAlive(a, false);
  g.Seal();
  EXPECT_EQ(g.num_alive(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.ChildrenOf(x).empty());
}

TEST(GraphTest, ShardsAllocateIndependently) {
  ProvenanceGraph g;
  auto w0 = g.writer();
  auto w1 = g.AddShard();
  NodeId a = w0.Token("a");
  NodeId b = w1.Token("b");
  NodeId joint = w1.Times({a, b});
  EXPECT_EQ(NodeShard(a), 0u);
  EXPECT_EQ(NodeShard(b), 1u);
  g.Seal();
  EXPECT_EQ(testing::ToVec(g.ChildrenOf(a)), std::vector<NodeId>{joint});
}

TEST(GraphTest, InvocationRegistration) {
  ProvenanceGraph g;
  auto w = g.writer();
  uint32_t inv = w.BeginInvocation("dealer", "dealer1", 0);
  NodeId tok = w.WorkflowInput("I0");
  NodeId in = w.ModuleInput(inv, tok);
  NodeId out = w.ModuleOutput(inv, in);
  NodeId st = w.ModuleState(inv, tok);
  const InvocationInfo& info = g.invocations()[inv];
  EXPECT_EQ(g.str(info.module_name), "dealer");
  EXPECT_EQ(g.str(info.instance_name), "dealer1");
  EXPECT_EQ(info.input_nodes, std::vector<NodeId>{in});
  EXPECT_EQ(info.output_nodes, std::vector<NodeId>{out});
  EXPECT_EQ(info.state_nodes, std::vector<NodeId>{st});
  // i/o/s nodes are · of (tuple, m).
  EXPECT_EQ(g.node(in).label(), NodeLabel::kTimes);
  EXPECT_EQ(g.node(in).role(), NodeRole::kModuleInput);
  ASSERT_EQ(g.node(in).parents().size(), 2u);
  EXPECT_EQ(g.node(in).parents()[1], info.m_node);
}

TEST(GraphTest, LazyStateScopeWrapsOnFirstUse) {
  ProvenanceGraph g;
  auto w = g.writer();
  uint32_t inv = w.BeginInvocation("m", "m", 0);
  NodeId base1 = w.Token("s1", NodeRole::kStateBase);
  NodeId base2 = w.Token("s2", NodeRole::kStateBase);
  // A temporary: the writer keeps its own copy of the scope's ids.
  w.BeginStateScope(inv, std::vector<NodeId>{base1, base2});
  size_t before = g.num_nodes();
  NodeId wrapped = w.ResolveParent(base1);
  EXPECT_NE(wrapped, base1);
  EXPECT_EQ(g.node(wrapped).role(), NodeRole::kModuleState);
  // Second use returns the cached wrapper; base2 is never wrapped.
  EXPECT_EQ(w.ResolveParent(base1), wrapped);
  EXPECT_EQ(g.num_nodes(), before + 1);
  // Non-eligible nodes pass through.
  NodeId other = w.Token("t");
  EXPECT_EQ(w.ResolveParent(other), other);
  EXPECT_EQ(w.ResolveParent(kInvalidNode), kInvalidNode);
  w.EndStateScope();
  EXPECT_EQ(w.ResolveParent(base2), base2);  // scope closed
}

TEST(GraphTest, StateScopeLeavesNoStaleMark) {
  ProvenanceGraph g;
  auto w = g.writer();
  uint32_t inv1 = w.BeginInvocation("m", "m", 0);
  uint32_t inv2 = w.BeginInvocation("m", "m", 1);
  NodeId base1 = w.Token("s1", NodeRole::kStateBase);
  NodeId base2 = w.Token("s2", NodeRole::kStateBase);
  w.BeginStateScope(inv1, std::vector<NodeId>{base1});
  w.EndStateScope();
  // The writer is reused: neither an ended scope nor the next one may
  // wrap a tuple the next scope does not list.
  size_t before = g.num_nodes();
  EXPECT_EQ(w.ResolveParent(base1), base1);
  w.BeginStateScope(inv2, std::vector<NodeId>{base2});
  EXPECT_EQ(w.ResolveParent(base1), base1);
  EXPECT_EQ(g.num_nodes(), before);
  EXPECT_NE(w.ResolveParent(base2), base2);
  w.EndStateScope();
}

TEST(GraphTest, StateScopeMarksOtherShardsOnly) {
  ProvenanceGraph g;
  auto w = g.writer();
  ShardWriter other = g.AddShard();
  uint32_t inv = w.BeginInvocation("m", "m", 0);
  // A state tuple another writer created, in another shard.
  NodeId remote = other.Token("s", NodeRole::kStateBase);
  NodeId local = w.Token("t", NodeRole::kStateBase);
  w.BeginStateScope(inv, std::vector<NodeId>{remote, local});
  NodeId wrapped = w.ResolveParent(remote);
  EXPECT_NE(wrapped, remote);
  EXPECT_EQ(g.node(wrapped).parents()[0], remote);
  EXPECT_EQ(NodeShard(wrapped), w.shard());
  // Nodes appended inside the scope, next to a marked one, are not state.
  NodeId fresh = w.Token("u");
  NodeId fresh_remote = other.Token("v");
  EXPECT_EQ(w.ResolveParent(fresh), fresh);
  EXPECT_EQ(w.ResolveParent(fresh_remote), fresh_remote);
  EXPECT_NE(w.ResolveParent(local), local);
  w.EndStateScope();
}

TEST(GraphTest, StateScopeWrapsInResolveOrder) {
  // Eager mode resolves every state tuple in state-tuple order; the "s"
  // nodes follow that order, not the id order the scope keeps.
  ProvenanceGraph g;
  auto w = g.writer();
  uint32_t inv = w.BeginInvocation("m", "m", 0);
  std::vector<NodeId> tuples;
  for (int i = 0; i < 100; ++i) {
    tuples.push_back(w.Token(StrCat("s", i), NodeRole::kStateBase));
  }
  std::reverse(tuples.begin(), tuples.end());
  w.BeginStateScope(inv, tuples);
  for (NodeId t : tuples) w.ResolveParent(t);
  for (NodeId t : tuples) w.ResolveParent(t);  // cached: no new nodes
  w.EndStateScope();
  const std::vector<NodeId>& s_nodes = g.invocations()[inv].state_nodes;
  ASSERT_EQ(s_nodes.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(g.node(s_nodes[i]).parents()[0], tuples[i]);
  }
}

TEST(GraphTest, StateScopeCacheClearedBetweenInvocations) {
  // Regression: ShardWriter's state-wrap cache must not leak across
  // invocations that share the writer — a stale entry would alias the
  // reads of execution 2 onto execution 1's "s" node.
  ProvenanceGraph g;
  auto w = g.writer();
  uint32_t inv1 = w.BeginInvocation("m", "m", 0);
  uint32_t inv2 = w.BeginInvocation("m", "m", 1);
  NodeId base = w.Token("s", NodeRole::kStateBase);
  std::vector<NodeId> eligible{base};

  w.BeginStateScope(inv1, eligible);
  NodeId s1 = w.ResolveParent(base);
  w.EndStateScope();

  w.BeginStateScope(inv2, eligible);
  NodeId s2 = w.ResolveParent(base);
  w.EndStateScope();

  EXPECT_NE(s1, s2);
  EXPECT_EQ(g.node(s1).invocation(), inv1);
  EXPECT_EQ(g.node(s2).invocation(), inv2);
  EXPECT_EQ(g.invocations()[inv1].state_nodes, std::vector<NodeId>{s1});
  EXPECT_EQ(g.invocations()[inv2].state_nodes, std::vector<NodeId>{s2});
}

TEST(GraphTest, SavepointRollbackPreservesArenaBackedParents) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId a = w.Token("a");
  NodeId b = w.Token("b");
  NodeId c = w.Token("c");
  NodeId wide = w.Plus({a, b, c});  // 3 parents: spills to the edge arena
  auto sp = g.TakeSavepoint();

  uint32_t inv = w.BeginInvocation("mod", "mod1", 9);
  NodeId in = w.ModuleInput(inv, a);
  NodeId wide2 = w.Times({a, b, c, in});  // arena traffic post-savepoint
  w.Token("post-savepoint payload");
  EXPECT_EQ(g.num_nodes(), 8u);

  g.RollbackTo(sp);
  // Pre-savepoint nodes keep their (arena-backed) parents...
  EXPECT_TRUE(g.Contains(wide));
  EXPECT_EQ(testing::ToVec(g.node(wide).parents()),
            (std::vector<NodeId>{a, b, c}));
  // ...post-savepoint nodes are dead and the invocation record is gone.
  EXPECT_FALSE(g.Contains(in));
  EXPECT_FALSE(g.Contains(wide2));
  EXPECT_EQ(g.invocations().size(), 0u);
  // The interner is append-only by design; writing resumes cleanly.
  NodeId d = w.Token("resumed");
  EXPECT_EQ(g.node(d).payload(), "resumed");
  g.Seal();
  EXPECT_EQ(testing::ToVec(g.ChildrenOf(a)), std::vector<NodeId>{wide});
}

TEST(GraphTest, StatsCountLabels) {
  ProvenanceGraph g;
  auto w = g.writer();
  w.Token("x");
  w.Token("y");
  w.Plus({});
  g.Seal();
  GraphStats stats = *ComputeGraphStats(Snap(g));
  EXPECT_EQ(stats.labels[static_cast<size_t>(NodeLabel::kToken)], 2u);
  EXPECT_EQ(stats.labels[static_cast<size_t>(NodeLabel::kPlus)], 1u);
  EXPECT_EQ(stats.labels[static_cast<size_t>(NodeLabel::kTimes)], 0u);
}

/// ----------------------------- semiring --------------------------------

TEST(PolynomialTest, Arithmetic) {
  Polynomial x = Polynomial::Var("x");
  Polynomial y = Polynomial::Var("y");
  Polynomial p = x.Plus(y).Times(x);  // x^2 + xy
  EXPECT_EQ(p.ToString(), "x*y + x^2");
  EXPECT_EQ(p.Plus(p).ToString(), "2*x*y + 2*x^2");
  EXPECT_TRUE(Polynomial::Zero().IsZero());
  EXPECT_EQ(Polynomial::One().Times(x), x);
  EXPECT_EQ(Polynomial::Zero().Plus(x), x);
}

TEST(PolynomialTest, Evaluation) {
  Polynomial x = Polynomial::Var("x");
  Polynomial y = Polynomial::Var("y");
  Polynomial p = x.Times(x).Plus(y);  // x^2 + y
  EXPECT_EQ(p.Eval({{"x", 3}, {"y", 4}}), 13u);
  EXPECT_EQ(p.Eval({}), 2u);          // absent tokens default to 1
  EXPECT_EQ(p.Eval({{"x", 0}}), 1u);  // y defaults to 1
}

TEST(GraphEvaluatorTest, CountingSemantics) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId x = w.Token("x");
  NodeId y = w.Token("y");
  NodeId sum = w.Plus({x, y});
  NodeId prod = w.Times({x, y});
  NodeId delta = w.Delta({sum});

  GraphEvaluator<CountingSemiring> eval(Snap(g), {{x, 2}, {y, 3}});
  EXPECT_EQ(eval.Eval(sum), 5u);
  EXPECT_EQ(eval.Eval(prod), 6u);
  EXPECT_EQ(eval.Eval(delta), 1u);  // duplicate elimination

  GraphEvaluator<CountingSemiring> zeroed(Snap(g), {{x, 0}, {y, 0}});
  EXPECT_EQ(zeroed.Eval(delta), 0u);
}

TEST(GraphEvaluatorTest, BooleanSemantics) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId x = w.Token("x");
  NodeId y = w.Token("y");
  NodeId prod = w.Times({x, y});
  GraphEvaluator<BooleanSemiring> eval(Snap(g), {{x, false}});
  EXPECT_FALSE(eval.Eval(prod));  // joint derivation needs both
  GraphEvaluator<BooleanSemiring> eval2(Snap(g), {{y, true}});
  EXPECT_TRUE(eval2.Eval(prod));
}

TEST(GraphEvaluatorTest, TrustPropagation) {
  // bid = delta(joint(request, car2) + joint(request, car3)): its trust is
  // the best alternative, each limited by its least trusted input.
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId request = w.Token("request");
  NodeId car2 = w.Token("car2");
  NodeId car3 = w.Token("car3");
  NodeId j2 = w.Times({request, car2});
  NodeId j3 = w.Times({request, car3});
  NodeId bid = w.Delta({j2, j3});
  GraphEvaluator<TrustSemiring> eval(
      Snap(g), {{request, 0.9}, {car2, 0.5}, {car3, 0.8}});
  EXPECT_DOUBLE_EQ(eval.Eval(j2), 0.5);
  EXPECT_DOUBLE_EQ(eval.Eval(j3), 0.8);
  EXPECT_DOUBLE_EQ(eval.Eval(bid), 0.8);  // best witness wins
}

TEST(GraphEvaluatorTest, SecurityClearance) {
  using S = SecuritySemiring;
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId pub = w.Token("public_record");
  NodeId secret = w.Token("informant_tip");
  NodeId joint = w.Times({pub, secret});
  NodeId either = w.Plus({pub, secret});
  GraphEvaluator<S> eval(Snap(g), {{secret, S::kSecret}});
  // Joint derivation needs the most restrictive clearance; an alternative
  // derivation through the public record stays public.
  EXPECT_EQ(eval.Eval(joint), S::kSecret);
  EXPECT_EQ(eval.Eval(either), S::kPublic);
}

TEST(GraphEvaluatorTest, WhyProvenance) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId x = w.Token("x");
  NodeId y = w.Token("y");
  NodeId sum = w.Plus({x, y});
  GraphEvaluator<WhySemiring> eval(
      Snap(g), {{x, {{"x"}}}, {y, {{"y"}}}});
  WhySemiring::ValueType why = eval.Eval(sum);
  // Two alternative witnesses: {x} and {y}.
  EXPECT_EQ(why.size(), 2u);
}

TEST(GraphEvaluatorTest, StructuralNodes) {
  ProvenanceGraph g;
  auto w = g.writer();
  uint32_t inv = w.BeginInvocation("m", "m", 0);
  NodeId m = g.invocations()[inv].m_node;
  NodeId x = w.Token("x");
  NodeId in = w.ModuleInput(inv, x);
  NodeId bb = w.BlackBox("f", {in});
  GraphEvaluator<CountingSemiring> eval(Snap(g), {{x, 0}});
  EXPECT_EQ(eval.Eval(m), 1u);   // invocations never data-dependent
  EXPECT_EQ(eval.Eval(in), 0u);  // · with a zero factor
  EXPECT_EQ(eval.Eval(bb), 0u);  // all inputs gone
}

TEST(ExpressionStringTest, RendersOperators) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId x = w.Token("x");
  NodeId y = w.Token("y");
  NodeId d = w.Delta({x, y});
  NodeId t = w.Times({d, x});
  EXPECT_EQ(ProvExpressionString(Snap(g), t), "(delta(x + y) * x)");
  EXPECT_EQ(ProvExpressionString(Snap(g), kInvalidNode), "0");
  // Depth limiting.
  EXPECT_EQ(ProvExpressionString(Snap(g), t, 1), "(... * ...)");
}

/// --------------------------- serialization -----------------------------

TEST(ProvIoTest, RoundTripPreservesEverything) {
  ProvenanceGraph g;
  auto w0 = g.writer();
  auto w1 = g.AddShard();
  uint32_t inv = w0.BeginInvocation("dealer", "dealer1", 3);
  NodeId x = w0.Token("state tuple [0]", NodeRole::kStateBase);
  NodeId in = w0.ModuleInput(inv, x);
  NodeId agg = w1.Aggregate("COUNT", {in}, Value::Int(7));
  NodeId cv = w1.ConstValue(Value::Double(2.5));
  NodeId tens = w1.Tensor(cv, in);
  NodeId bb = w0.BlackBox("calcbid", {tens, agg});
  g.SetAlive(bb, false);  // dead nodes round-trip too

  std::ostringstream os;
  LIPSTICK_ASSERT_OK(SaveGraph(g, os));
  std::istringstream is(os.str());
  Result<ProvenanceGraph> loaded = LoadGraph(is);
  LIPSTICK_ASSERT_OK(loaded.status());

  EXPECT_EQ(loaded->num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded->num_alive(), g.num_alive());
  EXPECT_EQ(loaded->node(x).payload(), "state tuple [0]");
  EXPECT_EQ(loaded->node(x).role(), NodeRole::kStateBase);
  EXPECT_EQ(loaded->node(agg).payload(), "COUNT");
  EXPECT_EQ(loaded->node(agg).value().int_value(), 7);
  EXPECT_DOUBLE_EQ(loaded->node(cv).value().double_value(), 2.5);
  EXPECT_EQ(testing::ToVec(loaded->node(tens).parents()),
            testing::ToVec(g.node(tens).parents()));
  EXPECT_FALSE(loaded->Contains(bb));
  ASSERT_EQ(loaded->invocations().size(), 1u);
  EXPECT_EQ(loaded->str(loaded->invocations()[0].module_name), "dealer");
  EXPECT_EQ(loaded->invocations()[0].execution, 3u);
  EXPECT_EQ(loaded->invocations()[0].input_nodes,
            g.invocations()[0].input_nodes);

  // A second round trip is byte-identical (canonical form).
  std::ostringstream os2;
  LIPSTICK_ASSERT_OK(SaveGraph(*loaded, os2));
  EXPECT_EQ(os.str(), os2.str());
}

TEST(ProvIoTest, RoundTripAbortedInvocationsAndDeadNodes) {
  ProvenanceGraph g;
  auto w = g.writer();
  uint32_t ok_inv = w.BeginInvocation("keep", "keep1", 1);
  NodeId x = w.Token("x");
  w.ModuleInput(ok_inv, x);

  uint32_t doomed = w.BeginInvocation("doomed", "doomed1", 2);
  w.ModuleInput(doomed, x);
  g.AbortInvocation(doomed);

  auto sp = g.TakeSavepoint();
  NodeId wide = w.Plus({x, x, x});  // arena-backed, then rolled back
  g.RollbackTo(sp);

  std::ostringstream os;
  LIPSTICK_ASSERT_OK(SaveGraph(g, os));
  std::istringstream is(os.str());
  Result<ProvenanceGraph> loaded = LoadGraph(is);
  LIPSTICK_ASSERT_OK(loaded.status());

  EXPECT_EQ(loaded->num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded->num_alive(), g.num_alive());
  EXPECT_TRUE(loaded->InGraph(wide));    // the row survives...
  EXPECT_FALSE(loaded->Contains(wide));  // ...but stays dead
  ASSERT_EQ(loaded->invocations().size(), 2u);
  EXPECT_FALSE(loaded->invocations()[ok_inv].aborted());
  EXPECT_TRUE(loaded->invocations()[doomed].aborted());
  EXPECT_EQ(loaded->str(loaded->invocations()[doomed].module_name),
            "doomed");
  loaded->Seal();
  EXPECT_FALSE(loaded->ChildrenOf(x).empty());

  // Canonical form: a second save is byte-identical, interner ids and all.
  std::ostringstream os2;
  LIPSTICK_ASSERT_OK(SaveGraph(*loaded, os2));
  EXPECT_EQ(os.str(), os2.str());
}

TEST(ProvIoTest, RejectsCorruptInput) {
  std::istringstream bad_header("NOTAGRAPH\n");
  EXPECT_EQ(LoadGraph(bad_header).status().code(), StatusCode::kParseError);

  ProvenanceGraph g;
  g.writer().Token("x");
  std::ostringstream os;
  LIPSTICK_ASSERT_OK(SaveGraph(g, os));
  const std::string saved = os.str();
  // A torn tail and a flipped byte both fail their frame's length or CRC.
  std::istringstream torn(saved.substr(0, saved.size() - 1));
  Result<ProvenanceGraph> loaded = LoadGraph(torn);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("torn"), std::string::npos);
  std::string flipped = saved;
  flipped[saved.size() / 2] ^= 0x20;
  std::istringstream corrupt(flipped);
  EXPECT_EQ(LoadGraph(corrupt).status().code(), StatusCode::kParseError);
}

TEST(ProvIoTest, FileRoundTrip) {
  ProvenanceGraph g;
  auto w = g.writer();
  w.Token("payload with spaces\nand newline");
  std::string path = ::testing::TempDir() + "/lipstick_graph_test.txt";
  LIPSTICK_ASSERT_OK(SaveGraphToFile(g, path));
  Result<ProvenanceGraph> loaded = LoadGraphFromFile(path);
  LIPSTICK_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->node(MakeNodeId(0, 0)).payload(),
            "payload with spaces\nand newline");
  EXPECT_FALSE(LoadGraphFromFile("/nonexistent/path").ok());
}

// ---------------------------------------------------------------------
// StringPool: the interner behind every payload and name.
// ---------------------------------------------------------------------

TEST(StringPoolTest, InternsManyStringsAcrossGrowths) {
  StringPool pool;
  EXPECT_EQ(pool.Find("x"), kStrNotFound);  // empty index
  constexpr size_t kStrings = 100000;
  std::vector<std::string_view> views;
  for (size_t i = 0; i < kStrings; ++i) {
    std::string s = StrCat("dealer", i % 7, ".Cars[", i, "]");
    StrId id = pool.Intern(s);
    ASSERT_EQ(id, i + 1) << s;  // ids are dense, in first-intern order
    EXPECT_EQ(pool.Intern(s), id);
    if (i < 64) views.push_back(pool.Get(id));
  }
  EXPECT_EQ(pool.size(), kStrings + 1);
  for (size_t i = 0; i < kStrings; i += 997) {
    std::string s = StrCat("dealer", i % 7, ".Cars[", i, "]");
    EXPECT_EQ(pool.Find(s), i + 1) << s;
    EXPECT_EQ(pool.Get(static_cast<StrId>(i + 1)), s);
  }
  EXPECT_EQ(pool.Find("dealer0.Cars[100000]"), kStrNotFound);
  EXPECT_EQ(pool.Find("dealer0.Cars["), kStrNotFound);
  EXPECT_EQ(pool.Find(""), kEmptyStr);
  EXPECT_EQ(pool.Intern(""), kEmptyStr);
  EXPECT_EQ(pool.Get(kEmptyStr), "");

  // Views taken before the index grew still point at the same bytes, and
  // so do they after the pool moves.
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(pool.Get(static_cast<StrId>(i + 1)).data(), views[i].data());
  }
  StringPool moved = std::move(pool);
  for (size_t i = 0; i < views.size(); ++i) {
    std::string_view now = moved.Get(static_cast<StrId>(i + 1));
    EXPECT_EQ(now.data(), views[i].data());
    EXPECT_EQ(now, views[i]);
    EXPECT_EQ(moved.Find(views[i]), i + 1);
  }
  EXPECT_EQ(moved.Intern("after the move"), kStrings + 1);
}

TEST(StringPoolTest, OversizedStringsGetTheirOwnChunk) {
  StringPool pool;
  StrId small = pool.Intern("small");
  std::string big(70 * 1024, 'x');
  big[12345] = 'y';
  StrId id = pool.Intern(big);
  EXPECT_EQ(pool.Get(id), big);
  EXPECT_EQ(pool.Find(big), id);
  std::string other = big;
  other[12345] = 'z';
  EXPECT_EQ(pool.Find(other), kStrNotFound);
  EXPECT_EQ(pool.Get(small), "small");
  EXPECT_EQ(pool.Intern("small"), small);
}

TEST(StringPoolTest, ConcurrentInternsAgreeOnIds) {
  // Four threads intern overlapping ranges: every distinct string gets one
  // id, whichever thread interned it first.
  StringPool pool;
  constexpr int kThreads = 4;
  constexpr size_t kPerThread = 6000;
  constexpr size_t kStride = 3000;
  std::vector<std::vector<StrId>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        ids[t].push_back(pool.Intern(StrCat("k", t * kStride + i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const size_t distinct = (kThreads - 1) * kStride + kPerThread;
  EXPECT_EQ(pool.size(), distinct + 1);
  std::vector<StrId> by_key(distinct, kStrNotFound);
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      size_t key = t * kStride + i;
      if (by_key[key] == kStrNotFound) by_key[key] = ids[t][i];
      EXPECT_EQ(ids[t][i], by_key[key]) << "k" << key;
      EXPECT_EQ(pool.Get(ids[t][i]), StrCat("k", key));
    }
  }
}

TEST(StringPoolTest, SameLengthNamesKeepTheirIdsAcrossRehashAndReserve) {
  // 50,000 names of one length that differ in their last digits only:
  // the hash comparison, not the length, tells them apart.
  constexpr int kNames = 50000;
  auto name = [](int i) { return StrCat("dealer1.Cars[", 10000 + i, "]"); };
  StringPool pool;
  for (int i = 0; i < kNames; ++i) {
    if (i == 20000) pool.Reserve(25000);  // one rehash for the batch
    ASSERT_EQ(pool.Intern(name(i)), static_cast<StrId>(i + 1)) << i;
  }
  for (int i = 0; i < kNames; ++i) {
    const std::string s = name(i);
    ASSERT_EQ(pool.Intern(s), static_cast<StrId>(i + 1)) << s;
    ASSERT_EQ(pool.Find(s), static_cast<StrId>(i + 1)) << s;
    ASSERT_EQ(pool.Get(static_cast<StrId>(i + 1)), s);
  }
  EXPECT_EQ(pool.Find("dealer1.Cars[99999]"), kStrNotFound);
  EXPECT_EQ(pool.size(), kNames + 1u);
}

TEST(StringPoolTest, CollidingHashesKeepTheirIds) {
  // Strings whose hashes share their low 12 bits start every probe at
  // the same slot of any index up to 4,096 slots: they must still get,
  // and be found under, ids of their own.
  const std::hash<std::string_view> hash;
  const size_t want = hash("c0") & 0xfff;
  std::vector<std::string> colliding;
  for (int i = 0; colliding.size() < 300; ++i) {
    std::string s = StrCat("c", i);
    if ((hash(s) & 0xfff) == want) colliding.push_back(std::move(s));
  }
  StringPool pool;
  for (size_t k = 0; k < colliding.size(); ++k) {
    if (k == 100) pool.Reserve(150);
    ASSERT_EQ(pool.Intern(colliding[k]), static_cast<StrId>(k + 1));
  }
  for (size_t k = 0; k < colliding.size(); ++k) {
    EXPECT_EQ(pool.Find(colliding[k]), static_cast<StrId>(k + 1));
    EXPECT_EQ(pool.Intern(colliding[k]), static_cast<StrId>(k + 1));
  }
  EXPECT_EQ(pool.Find(StrCat("c", -1)), kStrNotFound);
}

TEST(StringPoolTest, PoolBuiltInBulkEqualsOneBuiltStringByString) {
  // Reserve for each batch, and join each name from two parts: the same
  // ids and the same bytes as interning the joined names one by one.
  StringPool one, bulk;
  int next = 0;
  for (int batch : {1, 3, 12, 100, 1000, 2500, 7, 9000}) {
    bulk.Reserve(batch);
    for (int k = 0; k < batch; ++k, ++next) {
      const std::string prefix = StrCat("dealer", next % 3, ".Cars[");
      const std::string suffix = StrCat(next, "]");
      const StrId id = one.Intern(prefix + suffix);
      ASSERT_EQ(bulk.Intern(prefix, suffix), id) << next;
    }
    ASSERT_EQ(bulk.MemoryBytes(), one.MemoryBytes()) << "after " << next;
  }
  for (StrId id = 1; id < one.size(); ++id) {
    ASSERT_EQ(bulk.Get(id), one.Get(id));
  }
  // A two-part name already interned keeps its id and stores nothing.
  const size_t bytes = bulk.MemoryBytes();
  EXPECT_EQ(bulk.Intern("dealer1.Cars[", "1]"), one.Find("dealer1.Cars[1]"));
  EXPECT_EQ(bulk.Intern("", "dealer2.Cars[2]"), one.Find("dealer2.Cars[2]"));
  EXPECT_EQ(bulk.Intern("", ""), kEmptyStr);
  EXPECT_EQ(bulk.MemoryBytes(), bytes);
  EXPECT_EQ(bulk.size(), one.size());
  // A two-part name longer than a chunk.
  const std::string big(70 * 1024, 'b');
  const StrId id = bulk.Intern(big, "!");
  EXPECT_EQ(bulk.Get(id), big + "!");
  EXPECT_EQ(bulk.Find(big + "!"), id);
}

TEST(StringPoolTest, MemoryBytesCountsArenaSpansAndSlots) {
  EXPECT_EQ(StringPool::IndexSlotsFor(0), 0u);
  EXPECT_EQ(StringPool::IndexSlotsFor(1), 16u);
  EXPECT_EQ(StringPool::IndexSlotsFor(12), 16u);
  EXPECT_EQ(StringPool::IndexSlotsFor(13), 32u);
  EXPECT_EQ(StringPool::IndexSlotsFor(10031), 16384u);
  for (size_t n = 1; n < 5000; ++n) {
    size_t slots = StringPool::IndexSlotsFor(n);
    ASSERT_TRUE(std::has_single_bit(slots)) << n;
    ASSERT_LE(4 * n, 3 * slots) << n;                     // at most 3/4 full
    ASSERT_TRUE(slots == 16 || 4 * n > 3 * slots / 2) << n;  // smallest
  }
  constexpr size_t kSpanBytes = 16;  // StringPool::Span: ptr + u32
  StringPool pool;
  EXPECT_EQ(pool.MemoryBytes(), kSpanBytes);  // the empty string's span
  // 2,000 short strings fit one 64 KiB chunk; spans grow by doubling.
  for (size_t n = 1; n <= 2000; ++n) {
    pool.Intern(StrCat("s", n));
    ASSERT_EQ(pool.MemoryBytes(),
              64 * 1024 + std::bit_ceil(n + 1) * kSpanBytes +
                  StringPool::IndexSlotsFor(n) * sizeof(StrId))
        << n;
  }
  pool.ShrinkToFit();
  EXPECT_EQ(pool.MemoryBytes(), 64 * 1024 + 2001 * kSpanBytes +
                                    StringPool::IndexSlotsFor(2000) *
                                        sizeof(StrId));
}

}  // namespace
}  // namespace lipstick
