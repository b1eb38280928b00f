#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "provenance/deletion.h"
#include "provenance/subgraph.h"
#include "test_util.h"
#include "workflowgen/arctic.h"
#include "workflowgen/dealership.h"

namespace lipstick::workflowgen {
namespace {

using testing::Snap;

TEST(DealershipTest, WorkflowValidates) {
  DealershipConfig cfg;
  cfg.num_cars = 40;
  auto wf = DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  LIPSTICK_EXPECT_OK((*wf)->workflow().Validate(&(*wf)->udfs()));
  // 2 input nodes + 4+4 dealers + agg + and + xor + car = 14 nodes.
  EXPECT_EQ((*wf)->workflow().nodes().size(), 14u);
  EXPECT_EQ((*wf)->workflow().InputNodes().size(), 2u);
}

TEST(DealershipTest, BidsAreProducedAndAggregated) {
  DealershipConfig cfg;
  cfg.num_cars = 400;
  cfg.num_executions = 1;
  cfg.seed = 5;
  auto wf = DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  auto outputs = (*wf)->ExecuteOnce(1, nullptr);
  LIPSTICK_ASSERT_OK(outputs.status());
  const Relation& best = outputs->at("agg").at("BestBid");
  ASSERT_EQ(best.bag.size(), 1u);
  double best_amount = best.bag.at(0).tuple.at(3).AsDouble();
  // The best bid is the minimum over all dealer bids.
  double min_seen = 1e18;
  int bids = 0;
  for (int k = 1; k <= 4; ++k) {
    const Relation& dealer_bids =
        outputs->at("dealer_bid_" + std::to_string(k)).at("Bids");
    for (const AnnotatedTuple& t : dealer_bids.bag) {
      min_seen = std::min(min_seen, t.tuple.at(3).AsDouble());
      ++bids;
    }
  }
  EXPECT_GE(bids, 1);
  EXPECT_DOUBLE_EQ(best_amount, min_seen);
}

TEST(DealershipTest, PurchaseUpdatesSoldCars) {
  DealershipConfig cfg;
  cfg.num_cars = 400;
  cfg.num_executions = 50;
  cfg.seed = 3;  // seed chosen so the buyer accepts within the budget
  auto wf = DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  auto stats = (*wf)->Run(nullptr);
  LIPSTICK_ASSERT_OK(stats.status());
  ASSERT_TRUE(stats->purchased);
  // Exactly one dealership recorded the sale in its state.
  int sold_total = 0;
  for (int k = 1; k <= 4; ++k) {
    auto state =
        (*wf)->executor().GetState("dealer" + std::to_string(k), "SoldCars");
    LIPSTICK_ASSERT_OK(state.status());
    sold_total += static_cast<int>((*state)->bag.size());
  }
  EXPECT_EQ(sold_total, 1);
}

TEST(DealershipTest, RepeatRequestsBidSameOrLower) {
  DealershipConfig cfg;
  cfg.num_cars = 400;
  cfg.num_executions = 6;
  cfg.seed = 1000;  // buyer with low acceptance: several bid rounds
  auto wf = DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  double prev = 1e18;
  for (int e = 1; e <= cfg.num_executions; ++e) {
    auto outputs = (*wf)->ExecuteOnce(e, nullptr);
    LIPSTICK_ASSERT_OK(outputs.status());
    const Relation& best = outputs->at("agg").at("BestBid");
    if (best.bag.empty()) break;  // purchase ended the bidding
    double amount = best.bag.at(0).tuple.at(3).AsDouble();
    EXPECT_LE(amount, prev + 1e-9)
        << "dealers must consult bid history and not raise prices";
    prev = amount;
  }
}

TEST(DealershipTest, DeterministicAcrossRuns) {
  for (int trial = 0; trial < 2; ++trial) {
    static double first_bid = 0;
    DealershipConfig cfg;
    cfg.num_cars = 200;
    cfg.num_executions = 1;
    cfg.seed = 99;
    auto wf = DealershipWorkflow::Create(cfg);
    LIPSTICK_ASSERT_OK(wf.status());
    auto stats = (*wf)->Run(nullptr);
    LIPSTICK_ASSERT_OK(stats.status());
    if (trial == 0) {
      first_bid = stats->best_bid;
    } else {
      EXPECT_DOUBLE_EQ(stats->best_bid, first_bid);
    }
  }
}

TEST(DealershipTest, TrackingDoesNotChangeResults) {
  DealershipConfig cfg;
  cfg.num_cars = 200;
  cfg.num_executions = 4;
  cfg.seed = 17;
  auto plain = DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(plain.status());
  auto tracked = DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(tracked.status());
  auto plain_stats = (*plain)->Run(nullptr);
  ProvenanceGraph graph;
  auto tracked_stats = (*tracked)->Run(&graph);
  LIPSTICK_ASSERT_OK(plain_stats.status());
  LIPSTICK_ASSERT_OK(tracked_stats.status());
  EXPECT_EQ(plain_stats->executions, tracked_stats->executions);
  EXPECT_EQ(plain_stats->purchased, tracked_stats->purchased);
  EXPECT_DOUBLE_EQ(plain_stats->best_bid, tracked_stats->best_bid);
  EXPECT_GT(tracked_stats->graph_nodes, 0u);
}

TEST(DealershipTest, FineGrainedDependencyStat) {
  // Section 5.5: a sold car depends on a small fraction of the state
  // tuples (the cars of the requested model at one dealership), not on
  // 100% of them as coarse-grained provenance would claim.
  DealershipConfig cfg;
  cfg.num_cars = 240;
  cfg.num_executions = 40;
  cfg.seed = 3;
  auto wf = DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  ProvenanceGraph graph;
  auto stats = (*wf)->Run(&graph);
  LIPSTICK_ASSERT_OK(stats.status());
  ASSERT_TRUE(stats->purchased);
  graph.Seal();

  // Find the o-node of the final PurchasedCar output (car module).
  NodeId sold_output = kInvalidNode;
  for (const InvocationInfo& inv : graph.invocations()) {
    if (graph.str(inv.module_name) == "car" && !inv.output_nodes.empty()) {
      sold_output = inv.output_nodes.back();
    }
  }
  ASSERT_NE(sold_output, kInvalidNode);

  auto ancestors = Ancestors(Snap(graph), sold_output);
  size_t state_bases_in_ancestry = 0;
  size_t state_bases_total = 0;
  for (NodeId id : graph.AllNodeIds()) {
    if (!graph.Contains(id)) continue;
    if (graph.node(id).role() != NodeRole::kStateBase) continue;
    ++state_bases_total;
    if (ancestors.count(id)) ++state_bases_in_ancestry;
  }
  ASSERT_GT(state_bases_total, 0u);
  double fraction = static_cast<double>(state_bases_in_ancestry) /
                    static_cast<double>(state_bases_total);
  // Only cars of one model (1/12 of models) matter: far below 100%.
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, 0.5);
}

/// The work one JOIN of an `a`- and a `b`-tuple input adds to the
/// `pig.join_rows_indexed` and `pig.join_rows_probed` counters: it indexes
/// the smaller input (the first on a tie) and streams the other through
/// the index, and does neither when the smaller input is empty.
struct JoinWork {
  uint64_t indexed = 0;
  uint64_t probed = 0;
};
void AddJoinWork(size_t a, size_t b, JoinWork* work) {
  if (std::min(a, b) == 0) return;
  work->indexed += std::min(a, b);
  work->probed += std::max(a, b);
}

TEST(DealershipTest, JoinCountersFollowRelationSizes) {
  DealershipConfig cfg;
  cfg.num_cars = 400;
  cfg.seed = 4;
  cfg.accept_probability = 0;  // the buyer never accepts
  auto wf = DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  for (int e = 1; e <= 3; ++e) {
    LIPSTICK_ASSERT_OK((*wf)->ExecuteOnce(e, nullptr).status());
  }

  // A fourth execution with ExecuteOnce's inputs, metrics armed.
  WorkflowInputs inputs;
  inputs["req"]["BuyerRequests"].Add(Tuple(
      {Value::String("buyer1"), Value::Int(4),
       Value::String((*wf)->buyer_model())}));
  inputs["choice"]["BuyerChoice"].Add(
      Tuple({Value::Int(4), Value::Bool(false), Value::Double(0)}));
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.ResetValues();
  metrics.Enable();
  ExecutionReport report;
  auto outputs = (*wf)->executor().Execute(
      inputs, nullptr, (*wf)->executor().default_options(), &report);
  metrics.Disable();
  LIPSTICK_ASSERT_OK(outputs.status());
  JoinWork counted;
  for (const auto& [name, value] : metrics.Snap().counters) {
    if (name == "pig.join_rows_indexed") counted.indexed = value;
    if (name == "pig.join_rows_probed") counted.probed = value;
  }
  metrics.ResetValues();

  // Every JOIN of the execution, over the relations it saw. InventoryBids
  // and SoldCars are read before this execution's UNIONs extend them.
  JoinWork expected;
  for (int k = 1; k <= 4; ++k) {
    for (const char* phase : {"dealer_bid_", "dealer_buy_"}) {
      const std::map<std::string, size_t>& rows =
          report.nodes.at(StrCat(phase, k)).relation_rows;
      auto n = [&rows](const char* rel) { return rows.at(rel); };
      AddJoinWork(n("Cars"), n("ReqModel"), &expected);  // Inventory0
      AddJoinWork(n("Inventory"), n("SoldCars") - n("NewSold"),
                  &expected);  // SoldInventory0
      AddJoinWork(n("InventoryBids") - n("NewBids"), n("ReqModel"),
                  &expected);  // PriorBids0
      AddJoinWork(n("Cars"), n("POModel"), &expected);   // AvailCars0
      AddJoinWork(n("NewSold"), n("Cars"), &expected);   // SoldJoin
    }
  }
  const std::map<std::string, size_t>& agg =
      report.nodes.at("agg").relation_rows;
  AddJoinWork(agg.at("AllBids"), agg.at("Best0"), &expected);     // Joined
  AddJoinWork(agg.at("Winners"), agg.at("MinDealer"), &expected);  // Final
  const std::map<std::string, size_t>& and_rows =
      report.nodes.at("and").relation_rows;
  AddJoinWork(and_rows.at("BestBid"), and_rows.at("Choice"),
              &expected);  // Combined

  EXPECT_EQ(counted.indexed, expected.indexed);
  EXPECT_EQ(counted.probed, expected.probed);
  // The four bid-phase Inventory0 joins stream all 400 cars past the one
  // requested model; nothing indexes a dealer's cars.
  EXPECT_GE(counted.probed, 400u);
  EXPECT_LT(counted.indexed, 20u);
}

TEST(ArcticTest, AllTopologiesValidateAndRun) {
  for (ArcticTopology topo : {ArcticTopology::kSerial,
                              ArcticTopology::kParallel,
                              ArcticTopology::kDense}) {
    ArcticConfig cfg;
    cfg.topology = topo;
    cfg.num_stations = 6;
    cfg.fan_out = 3;
    cfg.history_years = 3;
    auto wf = ArcticWorkflow::Create(cfg);
    LIPSTICK_ASSERT_OK(wf.status());
    LIPSTICK_EXPECT_OK((*wf)->workflow().Validate(&(*wf)->udfs()));
    auto result = (*wf)->RunSeries(2, nullptr);
    LIPSTICK_ASSERT_OK(result.status());
    EXPECT_LT(*result, 0.0) << "an Arctic minimum should be below freezing";
  }
}

TEST(ArcticTest, GlobalMinimumMatchesDirectComputation) {
  ArcticConfig cfg;
  cfg.topology = ArcticTopology::kParallel;
  cfg.num_stations = 5;
  cfg.history_years = 4;
  cfg.selectivity = Selectivity::kAll;
  cfg.seed = 77;
  auto wf = ArcticWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  auto result = (*wf)->RunSeries(1, nullptr);
  LIPSTICK_ASSERT_OK(result.status());

  // Recompute directly from the synthetic climate model: history months
  // 1997-2000 plus the new 2001-01 measurement, over all stations.
  double expected = 1e18;
  for (int s = 1; s <= cfg.num_stations; ++s) {
    for (int year = 1997; year <= 2000; ++year) {
      for (int month = 1; month <= 12; ++month) {
        expected = std::min(expected, ArcticWorkflow::SyntheticTemperature(
                                          s, year, month, cfg.seed));
      }
    }
    expected = std::min(expected, ArcticWorkflow::SyntheticTemperature(
                                      s, 2001, 1, cfg.seed));
  }
  EXPECT_NEAR(*result, expected, 1e-9);
}

TEST(ArcticTest, SelectivityRestrictsObservations) {
  // With selectivity=month only January observations enter the minimum;
  // the January minimum is >= the all-months minimum (July can't win, but
  // some other month could be colder than any January).
  double mins[2];
  int idx = 0;
  for (Selectivity sel : {Selectivity::kAll, Selectivity::kMonth}) {
    ArcticConfig cfg;
    cfg.topology = ArcticTopology::kParallel;
    cfg.num_stations = 3;
    cfg.history_years = 4;
    cfg.selectivity = sel;
    cfg.seed = 5;
    auto wf = ArcticWorkflow::Create(cfg);
    LIPSTICK_ASSERT_OK(wf.status());
    auto result = (*wf)->RunSeries(1, nullptr);
    LIPSTICK_ASSERT_OK(result.status());
    mins[idx++] = *result;
  }
  EXPECT_LE(mins[0], mins[1]);
}

TEST(ArcticTest, SelectivityAffectsProvenanceSize) {
  // Figure 6(b)/(c): lower selectivity (= more matching tuples) yields a
  // larger provenance graph.
  size_t nodes_all = 0, nodes_month = 0, nodes_year = 0;
  for (auto [sel, out] :
       {std::pair<Selectivity, size_t*>{Selectivity::kAll, &nodes_all},
        {Selectivity::kMonth, &nodes_month},
        {Selectivity::kYear, &nodes_year}}) {
    ArcticConfig cfg;
    cfg.topology = ArcticTopology::kParallel;
    cfg.num_stations = 3;
    cfg.history_years = 5;
    cfg.selectivity = sel;
    auto wf = ArcticWorkflow::Create(cfg);
    LIPSTICK_ASSERT_OK(wf.status());
    ProvenanceGraph graph;
    LIPSTICK_ASSERT_OK((*wf)->RunSeries(2, &graph).status());
    *out = graph.num_nodes();
  }
  EXPECT_GT(nodes_all, nodes_month);
  EXPECT_GT(nodes_month, nodes_year);
}

TEST(ArcticTest, DenseTopologyEdgeCount) {
  ArcticConfig cfg;
  cfg.topology = ArcticTopology::kDense;
  cfg.num_stations = 9;
  cfg.fan_out = 3;
  cfg.history_years = 2;
  auto wf = ArcticWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  // Edges: 9 in->sta + (layers-1=2) * 3*3 inter-layer + 3 ->out = 30.
  EXPECT_EQ((*wf)->workflow().edges().size(), 30u);
  // Invalid: stations not divisible by fan-out.
  ArcticConfig bad = cfg;
  bad.num_stations = 10;
  EXPECT_FALSE(ArcticWorkflow::Create(bad).ok());
}

TEST(ArcticTest, MinTempPropagatesAlongSerialChain) {
  // In the serial topology the last station's output already includes the
  // minima of every earlier station, so it equals the global minimum.
  ArcticConfig cfg;
  cfg.topology = ArcticTopology::kSerial;
  cfg.num_stations = 4;
  cfg.history_years = 3;
  auto wf = ArcticWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  auto outputs = (*wf)->ExecuteOnce(nullptr);
  LIPSTICK_ASSERT_OK(outputs.status());
  double last_station =
      outputs->at("sta4").at("MinTempOut").bag.at(0).tuple.at(0).AsDouble();
  double global =
      outputs->at("out").at("GlobalMin").bag.at(0).tuple.at(0).AsDouble();
  EXPECT_DOUBLE_EQ(last_station, global);
}

TEST(ArcticTest, WhatIfDeletionOnColdestObservation) {
  // A deletion-propagation what-if on a real workflow graph: deleting the
  // winning observation's tensor chain must kill the dependent aggregates.
  ArcticConfig cfg;
  cfg.topology = ArcticTopology::kParallel;
  cfg.num_stations = 2;
  cfg.history_years = 2;
  cfg.selectivity = Selectivity::kMonth;
  auto wf = ArcticWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  ProvenanceGraph graph;
  LIPSTICK_ASSERT_OK((*wf)->RunSeries(1, &graph).status());
  graph.Seal();
  // Pick any state base token that contributed (has children) and check
  // dependency queries answer sensibly.
  NodeId used_base = kInvalidNode;
  for (NodeId id : graph.AllNodeIds()) {
    if (graph.Contains(id) &&
        graph.node(id).role() == NodeRole::kStateBase &&
        !graph.ChildrenOf(id).empty()) {
      used_base = id;
      break;
    }
  }
  ASSERT_NE(used_base, kInvalidNode);
  auto deleted = *ComputeDeletionSet(Snap(graph), {used_base});
  EXPECT_GT(deleted.size(), 1u);
}

}  // namespace
}  // namespace lipstick::workflowgen
