// Heap allocations on the write path, counted: a deterministic work
// counter for the tracking, graph-file and recovery costs that wall time
// only measures noisily. The binary replaces the global operator new with
// a counting one, so it is built as its own executable and no other test
// sees the override. It asserts the paths that allocate nothing, and
// prints the allocation count of each tracked execution, of loading the
// saved graph and of recovering the log, on the dealership configuration
// the end-to-end benchmark's `ingest` workload runs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "provenance/graph.h"
#include "provenance/provio.h"
#include "provenance/recovery.h"
#include "provenance/wal.h"
#include "test_util.h"
#include "workflowgen/dealership.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};

void* CountedAlloc(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace lipstick {
namespace {

/// Allocations, and bytes allocated, since construction.
class AllocationCounter {
 public:
  uint64_t count() const { return g_allocations.load() - start_; }
  uint64_t bytes() const { return g_allocated_bytes.load() - start_bytes_; }

 private:
  uint64_t start_ = g_allocations.load();
  uint64_t start_bytes_ = g_allocated_bytes.load();
};

/// Appends tokens to shard 0 until it holds 2^k + 1 nodes. Every column
/// grows by doubling, so each then has room for 2^k - 1 more nodes
/// without reallocating: the "already sized" graph of the tests below.
void FillJustPastPowerOfTwo(ProvenanceGraph* graph, ShardWriter* writer) {
  size_t target = 1;
  while (target + 1 < graph->ShardSize(writer->shard()) + 64) target *= 2;
  while (graph->ShardSize(writer->shard()) < target + 1) writer->Token("f");
}

TEST(AllocationTest, StrCatOfATokenNameAllocatesAtMostOnce) {
  const std::string instance = "dealer1";
  const std::string relation = "Cars";
  for (int i : {0, 7, 1234, 2147483647}) {
    AllocationCounter counter;
    std::string name = StrCat(instance, ".", relation, "[", i, "]");
    EXPECT_LE(counter.count(), 1u) << name;
  }
  const std::string long_prefix(100, 'p');
  AllocationCounter counter;
  std::string name = StrCat(long_prefix, ".", relation, "[", 99999, "]");
  EXPECT_EQ(counter.count(), 1u);
  AllocationCounter short_counter;
  std::string small = StrCat("a", 1, "[", 2, "]");
  EXPECT_EQ(short_counter.count(), 0u) << "fits the small-string buffer";
}

TEST(AllocationTest, WarmedStateScopeAllocatesNothing) {
  ProvenanceGraph graph;
  ShardWriter other = graph.AddShard();
  ShardWriter writer = graph.writer();
  const uint32_t warm = writer.BeginInvocation("m", "m1", 0);
  const uint32_t inv = writer.BeginInvocation("m", "m1", 1);
  std::vector<NodeId> tuples;
  for (int i = 0; i < 2500; ++i) {
    ShardWriter& w = i % 5 == 0 ? other : writer;
    tuples.push_back(w.Token(StrCat("m1.S[", i, "]"), NodeRole::kStateBase));
  }
  // Warm the writer: one scope over the same tuples.
  writer.BeginStateScope(warm, tuples);
  for (size_t k = 0; k < tuples.size(); k += 25) {
    writer.ResolveParent(tuples[k]);
  }
  writer.EndStateScope();
  FillJustPastPowerOfTwo(&graph, &writer);
  graph.mutable_invocation(inv).state_nodes.reserve(tuples.size());
  const NodeId stranger = writer.Token("not state");

  AllocationCounter counter;
  writer.BeginStateScope(inv, tuples);
  size_t wrapped = 0;
  for (size_t k = 0; k < tuples.size(); k += 50) {
    const NodeId s = writer.ResolveParent(tuples[k]);
    wrapped += s != tuples[k] ? 1 : 0;
    EXPECT_EQ(writer.ResolveParent(tuples[k]), s);  // cached
  }
  EXPECT_EQ(writer.ResolveParent(stranger), stranger);
  EXPECT_EQ(writer.ResolveParent(kInvalidNode), kInvalidNode);
  writer.EndStateScope();
  EXPECT_EQ(counter.count(), 0u);
  EXPECT_EQ(wrapped, tuples.size() / 50);
  EXPECT_EQ(graph.invocations()[inv].state_nodes.size(), wrapped);
}

TEST(AllocationTest, ReplayedNodeAppendAllocatesNothing) {
  ProvenanceGraph graph;
  const StrId payload = graph.InternString("tok");
  ShardWriter writer = graph.writer();
  FillJustPastPowerOfTwo(&graph, &writer);
  const NodeId a = MakeNodeId(0, 0);
  const NodeId b = MakeNodeId(0, 1);
  for (const std::vector<NodeId>& parents :
       {std::vector<NodeId>{}, std::vector<NodeId>{a},
        std::vector<NodeId>{a, b}}) {
    const NodeId id = MakeNodeId(0, graph.ShardSize(0));
    std::string segment;
    walfmt::EncodeHeader(&segment, walfmt::kWalMagic, 1);
    walfmt::EncodeNodeAppend(&segment, id, NodeLabel::kTimes,
                             NodeRole::kIntermediate, internal::kAliveFlag,
                             kNoInvocation, payload, parents);
    walfmt::SegmentScanner scanner(segment, walfmt::kWalMagic);
    walfmt::Record rec;
    ASSERT_TRUE(scanner.Next(&rec));
    ASSERT_EQ(rec.type, walfmt::RecordType::kNodeAppend);
    AllocationCounter counter;
    LIPSTICK_ASSERT_OK(walfmt::ApplyRecord(&graph, rec));
    EXPECT_EQ(counter.count(), 0u) << parents.size() << " parent(s)";
    ASSERT_TRUE(graph.InGraph(id));
    EXPECT_EQ(std::vector<NodeId>(graph.ParentsOf(id).begin(),
                                  graph.ParentsOf(id).end()),
              parents);
  }
}

TEST(AllocationTest, WritePathCounts) {
  // The `ingest` workload's configuration: 10,000 cars, five tracked
  // executions with a WAL, then save, load and recover.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       StrCat("lipstick_alloc_test_", ::getpid());
  fs::remove_all(dir);
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 10000;
  cfg.num_executions = 5;
  cfg.seed = 4;
  cfg.num_workers = 1;
  cfg.accept_probability = 0;
  auto wf = workflowgen::DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  auto wal = Wal::Open((dir / "wal").string());
  LIPSTICK_ASSERT_OK(wal.status());
  ProvenanceGraph graph;
  LIPSTICK_ASSERT_OK((*wal)->Attach(&graph));
  ExecutionOptions options = (*wf)->executor().default_options();
  options.durability = wal->get();
  (*wf)->executor().set_default_options(options);
  std::vector<uint64_t> execution_allocations;
  for (int e = 1; e <= cfg.num_executions; ++e) {
    AllocationCounter counter;
    LIPSTICK_ASSERT_OK((*wf)->ExecuteOnce(e, &graph).status());
    execution_allocations.push_back(counter.count());
    std::printf("allocations: execution %d: %llu (%llu bytes)\n", e,
                static_cast<unsigned long long>(counter.count()),
                static_cast<unsigned long long>(counter.bytes()));
  }
  // The first execution names the 10,000 cars' base tokens in bulk: no
  // allocation per token, so it allocates about what a later one does.
  EXPECT_LT(execution_allocations[0], execution_allocations[1] * 11 / 10);
  LIPSTICK_ASSERT_OK((*wal)->Close());
  graph.Seal();
  const std::string pg = (dir / "graph.pg").string();
  LIPSTICK_ASSERT_OK(SaveGraphToFile(graph, pg));
  const size_t nodes = graph.num_nodes();

  uint64_t load_allocations = 0, load_bytes = 0;
  {
    AllocationCounter counter;
    Result<ProvenanceGraph> loaded = LoadGraphFromFile(pg);
    load_allocations = counter.count();
    load_bytes = counter.bytes();
    LIPSTICK_ASSERT_OK(loaded.status());
    EXPECT_EQ(loaded->num_nodes(), nodes);
  }
  uint64_t recover_allocations = 0, recover_bytes = 0, graph_bytes = 0;
  RecoveryReport report;
  {
    AllocationCounter counter;
    Result<ProvenanceGraph> recovered =
        RecoverGraph((dir / "wal").string(), &report);
    recover_allocations = counter.count();
    recover_bytes = counter.bytes();
    LIPSTICK_ASSERT_OK(recovered.status());
    EXPECT_EQ(recovered->num_nodes(), nodes);
    graph_bytes = recovered->ComputeMemoryStats().total();
  }
  uint64_t log_bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir / "wal")) {
    log_bytes += entry.file_size();
  }
  std::printf("allocations: load %llu (%llu bytes), recover %llu (%llu "
              "bytes; log %llu bytes, %llu records, recovered graph %llu "
              "bytes) (%zu nodes)\n",
              static_cast<unsigned long long>(load_allocations),
              static_cast<unsigned long long>(load_bytes),
              static_cast<unsigned long long>(recover_allocations),
              static_cast<unsigned long long>(recover_bytes),
              static_cast<unsigned long long>(log_bytes),
              static_cast<unsigned long long>(report.records_applied),
              static_cast<unsigned long long>(graph_bytes), nodes);
  // Replay costs no allocation per record: what remains is column growth,
  // the string pool, invocation records and file handling.
  EXPECT_LT(load_allocations, nodes / 20);
  EXPECT_LT(recover_allocations, nodes / 20);
  EXPECT_LE(load_allocations, 477u);
  // Recovery holds the log's image and builds the graph, its columns
  // sized for the boundary up front; it keeps no storage per record. What
  // it allocates past those two stays well below the 2 MiB of capacity a
  // vector of the records alone took.
  EXPECT_LT(recover_bytes, log_bytes + graph_bytes + 1024 * 1024);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace lipstick
