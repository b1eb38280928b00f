#include "provenance/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "common/fault.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "provenance/exec.h"
#include "provenance/optimizer.h"
#include "provenance/plan.h"
#include "provenance/provio.h"
#include "provenance/recovery.h"
#include "provenance/snapshot.h"
#include "test_util.h"
#include "workflow/executor.h"
#include "workflow/wfdsl.h"
#include "workflowgen/arctic.h"
#include "workflowgen/dealership.h"

namespace lipstick {
namespace {

namespace fs = std::filesystem;

using ::lipstick::testing::I;
using ::lipstick::testing::T;

/// A two-module workflow with state, so every execution produces module
/// invocations, state nodes, and aggregate structure — enough surface to
/// notice any replay divergence.
constexpr char kWfSource[] = R"WF(
module source {
  input Ext(x: int);
  output Out(x: int);
  qout { Out = FOREACH Ext GENERATE x; }
}
module acc {
  input In(x: int);
  state Seen(x: int);
  output Total(t: int);
  qstate { Seen = UNION Seen, In; }
  qout {
    G = GROUP Seen ALL;
    Total = FOREACH G GENERATE SUM(Seen.x) AS t;
  }
}
node in = source;
node a = acc;
edge in -> a : Out -> In;
)WF";

/// Fresh, empty WAL directory per test.
fs::path FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("lipstick_" + name);
  fs::remove_all(dir);
  return dir;
}

/// Deterministic input for execution `e`.
WorkflowInputs InputsFor(int e) {
  WorkflowInputs inputs;
  Bag ext;
  for (int i = 0; i < 4; ++i) ext.Add(T({I(e * 10 + i)}));
  inputs["in"]["Ext"] = std::move(ext);
  return inputs;
}

/// Owns a parsed workflow and its executor (the executor keeps pointers
/// into the workflow, so both must live together).
struct Runner {
  std::unique_ptr<Workflow> wf;
  std::unique_ptr<WorkflowExecutor> exec;

  Runner() {
    Result<Workflow> parsed = ParseWorkflow(kWfSource);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    wf = std::make_unique<Workflow>(std::move(*parsed));
    exec = std::make_unique<WorkflowExecutor>(wf.get(), nullptr);
    EXPECT_TRUE(exec->Initialize().ok());
  }

  /// Runs executions [from, to) through the short Execute overload (which
  /// honors set_default_options, like the workflowgen drivers do).
  void Run(int from, int to, ProvenanceGraph* graph) {
    for (int e = from; e < to; ++e) {
      auto outputs = exec->Execute(InputsFor(e), graph);
      ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    }
  }
};

std::string SaveBytes(ProvenanceGraph* graph) {
  graph->Seal();
  std::ostringstream out;
  Status st = SaveGraph(*graph, out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out.str();
}

/// A clean (no WAL) run of `execs` executions, as provio bytes — the
/// committed-prefix reference that recovery must reproduce exactly.
std::string ReferenceBytes(int execs) {
  Runner runner;
  ProvenanceGraph graph;
  runner.Run(0, execs, &graph);
  return SaveBytes(&graph);
}

/// Runs `execs` executions with an attached WAL, closes the log, and
/// returns the in-memory graph bytes.
std::string RunWithWal(const fs::path& dir, int execs,
                       const WalOptions& options = {}) {
  Runner runner;
  auto wal = Wal::Open(dir.string(), options);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  ProvenanceGraph graph;
  LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
  ExecutionOptions exec_options;
  exec_options.durability = wal->get();
  runner.exec->set_default_options(exec_options);
  runner.Run(0, execs, &graph);
  LIPSTICK_EXPECT_OK((*wal)->Close());
  return SaveBytes(&graph);
}

std::string RecoveredBytes(const fs::path& dir, RecoveryReport* report,
                           const RecoveryOptions& options = {}) {
  Result<ProvenanceGraph> graph = RecoverGraph(dir.string(), report, options);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  if (!graph.ok()) return "";
  return SaveBytes(&*graph);
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

/// --------------------------- clean round trips --------------------------

TEST_F(DurabilityTest, EmptyLogRecoversEmptyGraph) {
  fs::path dir = FreshDir("wal_empty");
  {
    auto wal = Wal::Open(dir.string());
    LIPSTICK_ASSERT_OK(wal.status());
    ProvenanceGraph graph;
    LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
    LIPSTICK_EXPECT_OK((*wal)->Close());
  }
  RecoveryReport report;
  Result<ProvenanceGraph> graph = RecoverGraph(dir.string(), &report);
  LIPSTICK_ASSERT_OK(graph.status());
  EXPECT_EQ(graph->num_nodes(), 0u);
  EXPECT_EQ(report.executions_recovered, 0u);
  EXPECT_EQ(report.torn_segments, 0u);
}

TEST_F(DurabilityTest, ExecutorRoundTripIsByteIdentical) {
  fs::path dir = FreshDir("wal_roundtrip");
  std::string in_memory = RunWithWal(dir, 5);
  RecoveryReport report;
  std::string recovered = RecoveredBytes(dir, &report);
  EXPECT_EQ(recovered, in_memory);
  EXPECT_EQ(report.executions_recovered, 5u);
  EXPECT_EQ(report.records_discarded, 0u);
  EXPECT_EQ(recovered, ReferenceBytes(5));
}

TEST_F(DurabilityTest, AllFsyncPoliciesRoundTrip) {
  for (FsyncPolicy policy : {FsyncPolicy::kNever, FsyncPolicy::kOnCommit,
                             FsyncPolicy::kOnSavepoint}) {
    fs::path dir = FreshDir(std::string("wal_fsync_") +
                            FsyncPolicyToString(policy));
    WalOptions options;
    options.fsync = policy;
    std::string in_memory = RunWithWal(dir, 3, options);
    RecoveryReport report;
    EXPECT_EQ(RecoveredBytes(dir, &report), in_memory)
        << FsyncPolicyToString(policy);
    EXPECT_EQ(report.executions_recovered, 3u);
  }
}

TEST_F(DurabilityTest, TinyBufferAndSegmentsStillRoundTrip) {
  // Force many flushes and segment rolls: every append overflows the
  // buffer, segments roll every ~1 KiB.
  fs::path dir = FreshDir("wal_tiny");
  WalOptions options;
  options.buffer_bytes = 1;
  options.segment_bytes = 1024;
  std::string in_memory = RunWithWal(dir, 4, options);
  uint64_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    uint64_t seq = 0;
    if (walfmt::ParseSegmentName(entry.path().filename().string(), &seq)) {
      ++segments;
    }
  }
  EXPECT_GT(segments, 1u) << "expected the log to roll segments";
  RecoveryReport report;
  EXPECT_EQ(RecoveredBytes(dir, &report), in_memory);
  EXPECT_EQ(report.segments_scanned, segments);
}

/// ------------------------------ checkpoints -----------------------------

TEST_F(DurabilityTest, CheckpointSupersedesEarlierSegments) {
  fs::path dir = FreshDir("wal_ckpt");
  Runner runner;
  auto wal = Wal::Open(dir.string());
  LIPSTICK_ASSERT_OK(wal.status());
  ProvenanceGraph graph;
  LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
  ExecutionOptions exec_options;
  exec_options.durability = wal->get();
  runner.exec->set_default_options(exec_options);

  runner.Run(0, 3, &graph);
  LIPSTICK_EXPECT_OK((*wal)->Checkpoint());
  EXPECT_EQ((*wal)->checkpoints_taken(), 1u);
  runner.Run(3, 5, &graph);
  LIPSTICK_EXPECT_OK((*wal)->Close());
  std::string in_memory = SaveBytes(&graph);

  // The checkpoint file exists and pre-checkpoint segments are deleted.
  uint64_t checkpoints = 0, min_segment = UINT64_MAX, ckpt_seq = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if (walfmt::ParseCheckpointName(name, &seq)) {
      ++checkpoints;
      ckpt_seq = seq;
    } else if (walfmt::ParseSegmentName(name, &seq)) {
      min_segment = std::min(min_segment, seq);
    }
  }
  EXPECT_EQ(checkpoints, 1u);
  EXPECT_GE(min_segment, ckpt_seq);

  RecoveryReport report;
  EXPECT_EQ(RecoveredBytes(dir, &report), in_memory);
  EXPECT_EQ(report.checkpoint_seq, ckpt_seq);
  EXPECT_EQ(report.executions_recovered, 5u);
}

TEST_F(DurabilityTest, RecoveredGraphHoldsNoSpareCapacity) {
  // A checkpoint loads trimmed, and replaying the segments after it grows
  // the columns again: recovery must end trimmed all the same.
  fs::path dir = FreshDir("wal_ckpt_exact");
  Runner runner;
  auto wal = Wal::Open(dir.string());
  LIPSTICK_ASSERT_OK(wal.status());
  ProvenanceGraph graph;
  LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
  ExecutionOptions exec_options;
  exec_options.durability = wal->get();
  runner.exec->set_default_options(exec_options);
  runner.Run(0, 3, &graph);
  LIPSTICK_EXPECT_OK((*wal)->Checkpoint());
  runner.Run(3, 7, &graph);
  LIPSTICK_EXPECT_OK((*wal)->Close());
  const std::string tracked = SaveBytes(&graph);

  RecoveryReport report;
  Result<ProvenanceGraph> recovered = RecoverGraph(dir.string(), &report);
  LIPSTICK_ASSERT_OK(recovered.status());
  EXPECT_NE(report.checkpoint_seq, 0u);
  EXPECT_EQ(report.executions_recovered, 7u);
  constexpr size_t kRowBytes = sizeof(NodeLabel) + sizeof(NodeRole) +
                               sizeof(uint8_t) + sizeof(uint32_t) +
                               sizeof(StrId) + sizeof(internal::ParentSlot) +
                               sizeof(uint32_t);
  EXPECT_EQ(recovered->ComputeMemoryStats().column_bytes,
            recovered->num_nodes() * kRowBytes);
  EXPECT_EQ(SaveBytes(&*recovered), tracked);
}

TEST_F(DurabilityTest, TruncatedCheckpointIsNeverUsed) {
  fs::path dir = FreshDir("wal_ckpt_torn");
  {
    Runner runner;
    auto wal = Wal::Open(dir.string());
    LIPSTICK_ASSERT_OK(wal.status());
    ProvenanceGraph graph;
    LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
    ExecutionOptions exec_options;
    exec_options.durability = wal->get();
    runner.exec->set_default_options(exec_options);
    runner.Run(0, 2, &graph);
    LIPSTICK_EXPECT_OK((*wal)->Checkpoint());
    runner.Run(2, 3, &graph);
    LIPSTICK_EXPECT_OK((*wal)->Close());
  }
  fs::path checkpoint;
  for (const auto& entry : fs::directory_iterator(dir)) {
    uint64_t seq = 0;
    if (walfmt::ParseCheckpointName(entry.path().filename().string(), &seq)) {
      checkpoint = entry.path();
    }
  }
  ASSERT_FALSE(checkpoint.empty());
  fs::resize_file(checkpoint, fs::file_size(checkpoint) - 3);

  // The segments the checkpoint superseded are gone, so the log alone
  // cannot rebuild the checkpoint's nodes: recovery must fail rather than
  // return a graph without them.
  RecoveryReport report;
  Result<ProvenanceGraph> graph = RecoverGraph(dir.string(), &report);
  EXPECT_FALSE(graph.ok());
  const std::string name = checkpoint.filename().string();
  bool noted = false;
  for (const std::string& note : report.notes) {
    noted |= note.find(name) != std::string::npos &&
             note.find("unreadable") != std::string::npos;
  }
  EXPECT_TRUE(noted) << report.ToString();
}

TEST_F(DurabilityTest, AutomaticCheckpointAfterThreshold) {
  fs::path dir = FreshDir("wal_auto_ckpt");
  WalOptions options;
  options.checkpoint_bytes = 512;  // tiny: checkpoint at nearly every exec
  std::string in_memory = RunWithWal(dir, 5, options);
  RecoveryReport report;
  EXPECT_EQ(RecoveredBytes(dir, &report), in_memory);
  EXPECT_GT(report.checkpoint_seq, 0u);
  EXPECT_EQ(report.executions_recovered, 5u);
}

TEST_F(DurabilityTest, ReopenedLogContinuesTheSequence) {
  fs::path dir = FreshDir("wal_reopen");
  Runner runner;
  ProvenanceGraph graph;
  {
    auto wal = Wal::Open(dir.string());
    LIPSTICK_ASSERT_OK(wal.status());
    LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
    ExecutionOptions exec_options;
    exec_options.durability = wal->get();
    runner.exec->set_default_options(exec_options);
    runner.Run(0, 3, &graph);
    LIPSTICK_EXPECT_OK((*wal)->Close());
  }
  {
    // Reopen: attaching a non-empty graph checkpoints it, so the new log
    // never depends on records it did not see.
    auto wal = Wal::Open(dir.string());
    LIPSTICK_ASSERT_OK(wal.status());
    LIPSTICK_EXPECT_OK((*wal)->Attach(&graph, runner.exec->executions_run()));
    EXPECT_EQ((*wal)->checkpoints_taken(), 1u);
    ExecutionOptions exec_options;
    exec_options.durability = wal->get();
    runner.exec->set_default_options(exec_options);
    runner.Run(3, 5, &graph);
    LIPSTICK_EXPECT_OK((*wal)->Close());
  }
  RecoveryReport report;
  EXPECT_EQ(RecoveredBytes(dir, &report), SaveBytes(&graph));
  EXPECT_EQ(report.executions_recovered, 5u);
}

/// --------------------------- torn / corrupt logs ------------------------

TEST_F(DurabilityTest, TornTailFallsBackToLastSavepoint) {
  fs::path dir = FreshDir("wal_torn");
  RunWithWal(dir, 5);
  // Tear increasing amounts off the single segment's tail. Whatever the
  // cut, recovery must yield a committed prefix identical to a clean run
  // of that many executions.
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir)) {
    uint64_t seq = 0;
    if (walfmt::ParseSegmentName(entry.path().filename().string(), &seq)) {
      segment = entry.path();
    }
  }
  ASSERT_FALSE(segment.empty());
  uint64_t full_size = fs::file_size(segment);
  uint64_t prev_execs = 5;
  for (uint64_t cut = 3; cut < full_size - walfmt::kHeaderBytes; cut += 97) {
    fs::resize_file(segment, full_size - cut);
    RecoveryReport report;
    std::string recovered = RecoveredBytes(dir, &report);
    EXPECT_LE(report.executions_recovered, prev_execs);
    prev_execs = report.executions_recovered;
    EXPECT_EQ(recovered, ReferenceBytes(
                             static_cast<int>(report.executions_recovered)))
        << "cut=" << cut;
  }
  EXPECT_EQ(prev_execs, 0u) << "the sweep should reach the log origin";
}

TEST_F(DurabilityTest, CorruptedByteDetectedByCrc) {
  fs::path dir = FreshDir("wal_corrupt");
  RunWithWal(dir, 4);
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir)) {
    uint64_t seq = 0;
    if (walfmt::ParseSegmentName(entry.path().filename().string(), &seq)) {
      segment = entry.path();
    }
  }
  ASSERT_FALSE(segment.empty());
  // Flip one byte in the middle of the record stream.
  uint64_t size = fs::file_size(segment);
  uint64_t at = walfmt::kHeaderBytes + (size - walfmt::kHeaderBytes) / 2;
  {
    std::fstream f(segment, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(at));
    char b = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(at));
    f.put(static_cast<char>(b ^ 0x20));
  }
  RecoveryReport report;
  std::string recovered = RecoveredBytes(dir, &report);
  EXPECT_EQ(report.torn_segments, 1u);
  EXPECT_GT(report.records_discarded, 0u);
  EXPECT_LT(report.executions_recovered, 4u);
  EXPECT_EQ(recovered, ReferenceBytes(
                           static_cast<int>(report.executions_recovered)));
}

TEST_F(DurabilityTest, RepairTruncatesTornBytes) {
  fs::path dir = FreshDir("wal_repair");
  RunWithWal(dir, 3);
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir)) {
    uint64_t seq = 0;
    if (walfmt::ParseSegmentName(entry.path().filename().string(), &seq)) {
      segment = entry.path();
    }
  }
  ASSERT_FALSE(segment.empty());
  fs::resize_file(segment, fs::file_size(segment) - 3);

  RecoveryOptions options;
  options.repair = true;
  RecoveryReport report;
  std::string first = RecoveredBytes(dir, &report, options);
  EXPECT_GT(report.bytes_truncated, 0u);
  EXPECT_EQ(report.torn_segments, 1u);

  // After repair the log scans clean and yields the same graph.
  RecoveryReport again;
  EXPECT_EQ(RecoveredBytes(dir, &again), first);
  EXPECT_EQ(again.torn_segments, 0u);
  EXPECT_EQ(again.bytes_truncated, 0u);
}

TEST_F(DurabilityTest, KeepUncommittedMarksTailDead) {
  fs::path dir = FreshDir("wal_uncommitted");
  Runner runner;
  auto wal = Wal::Open(dir.string());
  LIPSTICK_ASSERT_OK(wal.status());
  ProvenanceGraph graph;
  LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
  ExecutionOptions exec_options;
  exec_options.durability = wal->get();
  runner.exec->set_default_options(exec_options);
  runner.Run(0, 2, &graph);
  // Mutations after the last savepoint: durable in the log (Close
  // flushes), but not covered by any committed execution boundary.
  ShardWriter writer = graph.writer();
  NodeId stray = writer.WorkflowInput("uncommitted-token");
  LIPSTICK_EXPECT_OK((*wal)->Close());

  // Default mode: the uncommitted tail is discarded entirely.
  RecoveryReport committed;
  Result<ProvenanceGraph> clean = RecoverGraph(dir.string(), &committed);
  LIPSTICK_ASSERT_OK(clean.status());
  EXPECT_GT(committed.records_discarded, 0u);
  EXPECT_FALSE(clean->InGraph(stray));

  // keep_uncommitted: the tail is replayed for forensics, then marked
  // dead with the rollback machinery — visible but not alive.
  RecoveryOptions keep;
  keep.keep_uncommitted = true;
  RecoveryReport forensic;
  Result<ProvenanceGraph> kept = RecoverGraph(dir.string(), &forensic, keep);
  LIPSTICK_ASSERT_OK(kept.status());
  ASSERT_TRUE(kept->InGraph(stray));
  EXPECT_FALSE(kept->node(stray).alive());
  EXPECT_EQ(kept->num_alive(), clean->num_alive());
}

TEST_F(DurabilityTest, SeededWalMutationsRecoverOrReturnStatus) {
  // Byte flips and truncations exercise the framing checks; whole-frame
  // drops, duplicates and swaps keep every CRC valid, so they reach the
  // replayer's semantic checks. A mutant either fails recovery with a
  // Status, or recovers a graph that seals and answers a query.
  fs::path dir = FreshDir("wal_mutants");
  RunWithWal(dir, 5);
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir)) {
    uint64_t seq = 0;
    if (walfmt::ParseSegmentName(entry.path().filename().string(), &seq)) {
      segment = entry.path();
    }
  }
  ASSERT_FALSE(segment.empty());
  std::string full;
  {
    std::ifstream in(segment, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Frame spans: a frame ends where the valid prefix stands once read.
  std::vector<std::pair<size_t, size_t>> frames;
  {
    walfmt::SegmentScanner scanner(full, walfmt::kWalMagic);
    walfmt::Record rec;
    while (scanner.Next(&rec)) {
      frames.emplace_back(rec.offset, scanner.valid_prefix() - rec.offset);
    }
    ASSERT_TRUE(scanner.torn_reason().empty()) << scanner.torn_reason();
  }
  ASSERT_GT(frames.size(), 100u);
  auto frame_bytes = [&](size_t k) {
    return full.substr(frames[k].first, frames[k].second);
  };
  Result<Plan> stats = ParsePlan("stats", {});
  LIPSTICK_ASSERT_OK(stats.status());
  const OptimizedPlan plan = OptimizePlan(*stats);
  Rng rng(0xa11);
  int recovered = 0, failed = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string m = full;
    size_t a = static_cast<size_t>(rng.Uniform(0, frames.size() - 1));
    size_t b = static_cast<size_t>(rng.Uniform(0, frames.size() - 1));
    switch (rng.Uniform(0, 4)) {
      case 0:  // flip one byte
        m[rng.Uniform(0, m.size() - 1)] ^=
            static_cast<char>(rng.Uniform(1, 255));
        break;
      case 1:  // truncate
        m.resize(rng.Uniform(0, m.size() - 1));
        break;
      case 2:  // drop a frame
        m.erase(frames[a].first, frames[a].second);
        break;
      case 3:  // duplicate a frame in front of another
        m.insert(frames[b].first, frame_bytes(a));
        break;
      case 4: {  // swap two frames
        if (a > b) std::swap(a, b);
        if (a == b) continue;
        size_t a_end = frames[a].first + frames[a].second;
        m = full.substr(0, frames[a].first) + frame_bytes(b) +
            full.substr(a_end, frames[b].first - a_end) + frame_bytes(a) +
            full.substr(frames[b].first + frames[b].second);
        break;
      }
    }
    {
      std::ofstream out(segment, std::ios::binary | std::ios::trunc);
      out << m;
    }
    Result<ProvenanceGraph> graph = RecoverGraph(dir.string(), nullptr);
    if (!graph.ok()) {
      ++failed;
      continue;
    }
    ++recovered;
    graph->Seal();
    Result<GraphSnapshot> snap = GraphSnapshot::Capture(*graph);
    ASSERT_TRUE(snap.ok()) << "mutant " << i << ": " << snap.status();
    Status ran = ExecutePlan(*snap, plan).status();
    EXPECT_TRUE(ran.ok()) << "mutant " << i << ": " << ran;
  }
  EXPECT_GT(recovered, 0) << "no mutant recovered";
  EXPECT_GT(failed, 0) << "no mutant was rejected";
}

/// ------------------------- injected WAL failures ------------------------

TEST_F(DurabilityTest, ShortWriteFaultDegradesButRecovers) {
  fs::path dir = FreshDir("wal_fault_short");
  Runner runner;
  WalOptions wal_options;
  wal_options.fsync = FsyncPolicy::kOnCommit;  // flush per commit: many
                                               // fault opportunities
  auto wal = Wal::Open(dir.string(), wal_options);
  LIPSTICK_ASSERT_OK(wal.status());
  ProvenanceGraph graph;
  LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
  ExecutionOptions exec_options;
  exec_options.durability = wal->get();
  runner.exec->set_default_options(exec_options);

  FaultInjector::FaultSpec spec;
  spec.point = "wal.short_write";
  spec.skip_hits = 6;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(spec);

  runner.Run(0, 4, &graph);  // execution is unaffected by the dead log
  EXPECT_FALSE((*wal)->status().ok()) << "fault should have killed the log";
  (void)(*wal)->Close();
  FaultInjector::Global().Reset();

  RecoveryReport report;
  std::string recovered = RecoveredBytes(dir, &report);
  EXPECT_LT(report.executions_recovered, 4u);
  EXPECT_EQ(recovered, ReferenceBytes(
                           static_cast<int>(report.executions_recovered)));
}

/// ------------------ property: workflowgen round trips -------------------

TEST_F(DurabilityTest, DealershipRoundTripWithAbortedInvocations) {
  // Retried node failures roll provenance back via the logged rollback
  // hooks, so the replayed graph must match the in-memory one including
  // the dead structure left by aborted attempts.
  for (int scenario = 0; scenario < 2; ++scenario) {
    FaultInjector::Global().Reset();
    fs::path dir = FreshDir(StrCat("wal_dealer_", scenario));
    workflowgen::DealershipConfig config;
    config.num_cars = 24;
    config.num_executions = 4;
    config.accept_probability = 0;  // run the full execution budget
    auto wf = workflowgen::DealershipWorkflow::Create(config);
    LIPSTICK_ASSERT_OK(wf.status());

    auto wal = Wal::Open(dir.string());
    LIPSTICK_ASSERT_OK(wal.status());
    ProvenanceGraph graph;
    LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
    ExecutionOptions exec_options;
    exec_options.durability = wal->get();
    exec_options.retry.max_attempts = 3;
    (*wf)->executor().set_default_options(exec_options);

    FaultInjector::FaultSpec spec;
    spec.point = "executor.node";
    spec.skip_hits = scenario == 0 ? 3 : 11;
    spec.max_fires = 1;
    spec.code = StatusCode::kUnavailable;
    FaultInjector::Global().Arm(spec);

    auto stats = (*wf)->Run(&graph);
    LIPSTICK_ASSERT_OK(stats.status());
    EXPECT_GE(FaultInjector::Global().fire_count("executor.node"), 1u);
    LIPSTICK_EXPECT_OK((*wal)->Close());
    FaultInjector::Global().Reset();

    std::string in_memory = SaveBytes(&graph);
    RecoveryReport report;
    EXPECT_EQ(RecoveredBytes(dir, &report), in_memory)
        << "scenario " << scenario;
    EXPECT_EQ(report.executions_recovered, stats->executions);
  }
}

TEST_F(DurabilityTest, ParallelArcticRoundTrip) {
  // Multi-worker execution appends to several shards; WAL serialization
  // preserves per-shard order, so replay reproduces the exact graph.
  fs::path dir = FreshDir("wal_arctic");
  workflowgen::ArcticConfig config;
  config.topology = workflowgen::ArcticTopology::kParallel;
  config.num_stations = 4;
  config.history_years = 2;
  config.num_workers = 3;
  auto wf = workflowgen::ArcticWorkflow::Create(config);
  LIPSTICK_ASSERT_OK(wf.status());

  auto wal = Wal::Open(dir.string());
  LIPSTICK_ASSERT_OK(wal.status());
  ProvenanceGraph graph;
  LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
  ExecutionOptions exec_options;
  exec_options.durability = wal->get();
  (*wf)->executor().set_default_options(exec_options);

  auto minimum = (*wf)->RunSeries(3, &graph);
  LIPSTICK_ASSERT_OK(minimum.status());
  LIPSTICK_EXPECT_OK((*wal)->Close());

  std::string in_memory = SaveBytes(&graph);
  RecoveryReport report;
  EXPECT_EQ(RecoveredBytes(dir, &report), in_memory);
  EXPECT_EQ(report.executions_recovered, 3u);
  EXPECT_EQ(report.torn_segments, 0u);
}

/// The string count of a kStrings record: the varint (at most five
/// bytes) its payload leads with.
uint32_t StringsCount(const walfmt::Record& rec) {
  uint64_t n = 0;
  for (size_t k = 0; k < rec.payload.size() && k < 5; ++k) {
    const uint8_t byte = static_cast<uint8_t>(rec.payload[k]);
    n |= uint64_t{byte & 0x7fu} << (7 * k);
    if ((byte & 0x80) == 0) break;
  }
  return static_cast<uint32_t>(n);
}

/// The string counts of the kStrings records of every segment in `dir`,
/// in log order.
std::vector<uint32_t> StringRunCounts(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    uint64_t seq;
    if (walfmt::ParseSegmentName(entry.path().filename().string(), &seq)) {
      names.push_back(entry.path().string());
    }
  }
  std::sort(names.begin(), names.end());
  std::vector<uint32_t> counts;
  for (const std::string& name : names) {
    std::ifstream in(name, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)), {});
    walfmt::SegmentScanner scanner(data, walfmt::kWalMagic);
    walfmt::Record rec;
    while (scanner.Next(&rec)) {
      if (rec.type == walfmt::RecordType::kStrings) {
        counts.push_back(StringsCount(rec));
      }
    }
  }
  return counts;
}

TEST_F(DurabilityTest, BulkTokenStringRunsReplayByteForByte) {
  // The dealers' first invocations name every car with a bulk run of
  // tokens: the WAL packs those names into string runs, and replay must
  // reproduce the tracker's graph on one worker and on four (where
  // workers intern into one log concurrently).
  for (int workers : {1, 4}) {
    fs::path dir = FreshDir(StrCat("wal_string_runs_", workers));
    workflowgen::DealershipConfig config;
    config.num_cars = 300;
    config.num_executions = 3;
    config.num_workers = workers;
    config.accept_probability = 0;
    auto wf = workflowgen::DealershipWorkflow::Create(config);
    LIPSTICK_ASSERT_OK(wf.status());
    auto wal = Wal::Open(dir.string());
    LIPSTICK_ASSERT_OK(wal.status());
    ProvenanceGraph graph;
    LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
    ExecutionOptions exec_options;
    exec_options.durability = wal->get();
    (*wf)->executor().set_default_options(exec_options);
    LIPSTICK_ASSERT_OK((*wf)->Run(&graph).status());
    LIPSTICK_EXPECT_OK((*wal)->Close());

    const std::vector<uint32_t> runs = StringRunCounts(dir);
    ASSERT_FALSE(runs.empty());
    // A dealer holds about 75 of the 300 cars.
    EXPECT_GE(*std::max_element(runs.begin(), runs.end()), 50u)
        << workers << " worker(s): the car names were not packed";
    uint64_t strings = 0;
    for (uint32_t n : runs) strings += n;
    EXPECT_EQ(strings + 1, graph.strings().size()) << workers;

    std::string in_memory = SaveBytes(&graph);
    RecoveryReport report;
    EXPECT_EQ(RecoveredBytes(dir, &report), in_memory) << workers;
    EXPECT_EQ(report.torn_segments, 0u);
    EXPECT_EQ(report.records_discarded, 0u);
  }
}

TEST_F(DurabilityTest, TailTornInsideAStringRunRecoversCommittedPrefix) {
  fs::path dir = FreshDir("wal_torn_string_run");
  auto wal = Wal::Open(dir.string());
  LIPSTICK_ASSERT_OK(wal.status());
  ProvenanceGraph graph;
  LIPSTICK_EXPECT_OK((*wal)->Attach(&graph));
  ShardWriter writer = graph.writer();
  auto tokenize = [&](int from, int to) {
    std::vector<StrId> names;
    for (int i = from; i < to; ++i) {
      names.push_back(writer.Intern(StrCat("dealer1.Cars[", i, "]")));
    }
    writer.Tokens(names, NodeRole::kStateBase);
  };
  tokenize(0, 100);
  LIPSTICK_ASSERT_OK((*wal)->MarkSavepoint(1));
  const std::string committed = SaveBytes(&graph);
  // One run of 2,900 names (about 12 KB of entries), then their tokens.
  std::vector<StrId> names;
  for (int i = 100; i < 3000; ++i) {
    names.push_back(writer.Intern(StrCat("dealer1.Cars[", i, "]")));
  }
  // The open run counts as the frame that closes it.
  const uint64_t bytes_open = (*wal)->bytes_appended();
  const uint64_t records_open = (*wal)->records_appended();
  LIPSTICK_ASSERT_OK((*wal)->Flush());
  EXPECT_EQ((*wal)->bytes_appended(), bytes_open);
  EXPECT_EQ((*wal)->records_appended(), records_open);
  writer.Tokens(names, NodeRole::kStateBase);
  LIPSTICK_ASSERT_OK((*wal)->MarkSavepoint(2));
  LIPSTICK_EXPECT_OK((*wal)->Close());
  EXPECT_EQ((*wal)->records_appended(), records_open + names.size() + 1);

  const std::string segment = (dir / walfmt::SegmentFileName(1)).string();
  std::string data;
  {
    std::ifstream in(segment, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(data.size(), (*wal)->bytes_appended() + walfmt::kHeaderBytes);
  walfmt::SegmentScanner scanner(data, walfmt::kWalMagic);
  walfmt::Record rec;
  uint64_t run_start = 0, run_end = 0;
  while (scanner.Next(&rec)) {
    if (rec.type == walfmt::RecordType::kStrings &&
        StringsCount(rec) == 2900) {
      run_start = rec.offset;
      run_end = scanner.valid_prefix();
    }
  }
  ASSERT_GT(run_end, run_start) << "no run of the 2,900 names";
  // Shortest last: a longer cut would extend the file with zeros.
  for (uint64_t cut : {run_end - 1, (run_start + run_end) / 2, run_start + 3}) {
    fs::resize_file(segment, cut);
    RecoveryReport report;
    EXPECT_EQ(RecoveredBytes(dir, &report), committed) << "cut " << cut;
    EXPECT_EQ(report.executions_recovered, 1u);
    EXPECT_EQ(report.torn_segments, 1u);
  }
}

}  // namespace
}  // namespace lipstick
