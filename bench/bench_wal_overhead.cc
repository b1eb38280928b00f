// WAL durability overhead: cost of the always-compiled-in graph mutation
// hooks (the wal_sink() branch on every append/intern/invocation) and of
// an attached log under each fsync policy. The durability layer follows
// the fault and observability layers' bar: a run that never asked for a
// WAL must pay well under 2% for carrying the hooks.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "bench_util.h"
#include "provenance/graph.h"
#include "provenance/wal.h"
#include "workflow/executor.h"
#include "workflowgen/dealership.h"

using namespace lipstick;
using namespace lipstick::bench;
using namespace lipstick::workflowgen;

namespace {

/// Nanoseconds per disarmed sink check: the relaxed pointer load + branch
/// every graph mutation pays when no WAL is attached. The asm fence keeps
/// the loop-invariant load from being hoisted.
double BranchNanos(const ProvenanceGraph& graph, size_t calls) {
  WallTimer timer;
  for (size_t i = 0; i < calls; ++i) {
    GraphWalSink* sink = graph.wal_sink();
    asm volatile("" : : "g"(sink) : "memory");
    if (sink != nullptr) Check(Status::Internal("sink unexpectedly set"));
  }
  return timer.ElapsedSeconds() * 1e9 / calls;
}

/// Counts hook crossings without doing any work in them, so the
/// per-execution crossing count can be charged the measured branch cost.
class CountingSink final : public GraphWalSink {
 public:
  uint64_t crossings = 0;

  void OnIntern(StrId, std::string_view, std::string_view) override {
    ++crossings;
  }
  void OnNodeAppend(NodeId, NodeLabel, NodeRole, uint8_t, uint32_t, StrId,
                    std::span<const NodeId>) override {
    ++crossings;
  }
  void OnTokens(NodeId, NodeRole, uint32_t, std::span<const StrId>) override {
    ++crossings;
  }
  void OnNodeValue(NodeId, const Value&) override { ++crossings; }
  void OnKillShardTail(uint32_t, uint64_t) override { ++crossings; }
  void OnBeginInvocation(uint32_t, const InvocationInfo&) override {
    ++crossings;
  }
  void OnInvocationNode(uint32_t, int, NodeId) override { ++crossings; }
  void OnAbortInvocation(uint32_t) override { ++crossings; }
  void OnTruncateInvocations(uint64_t) override { ++crossings; }
};

/// Average seconds per tracked dealership execution. `wal` (optional) is
/// installed through the executor's default options — the exact code path
/// `lipstick run --wal` takes.
double TrackedSecPerExec(int num_cars, int num_exec, Wal* wal,
                         GraphWalSink* counter = nullptr) {
  DealershipConfig cfg;
  cfg.num_cars = num_cars;
  cfg.num_executions = num_exec;
  cfg.seed = 12345;
  cfg.accept_probability = 0;
  auto wf = DealershipWorkflow::Create(cfg);
  Check(wf.status());
  ProvenanceGraph graph;
  if (wal != nullptr) {
    Check(wal->Attach(&graph));
    ExecutionOptions options;
    options.durability = wal;
    (*wf)->executor().set_default_options(options);
  } else if (counter != nullptr) {
    graph.AttachWalSink(counter);
  }
  WallTimer timer;
  for (int e = 1; e <= num_exec; ++e) {
    Check((*wf)->ExecuteOnce(e, &graph).status());
  }
  double seconds = timer.ElapsedSeconds() / num_exec;
  if (wal != nullptr) Check(wal->Close());
  return seconds;
}

double WalSecPerExec(int num_cars, int num_exec, FsyncPolicy policy) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "lipstick_bench_wal";
  fs::remove_all(dir);
  WalOptions options;
  options.fsync = policy;
  auto wal = Wal::Open(dir.string(), options);
  Check(wal.status());
  double seconds = TrackedSecPerExec(num_cars, num_exec, wal->get());
  fs::remove_all(dir);
  return seconds;
}

double Pct(double base, double measured) {
  return (measured / base - 1.0) * 100.0;
}

}  // namespace

int main() {
  Banner("WAL overhead", "cost of durability hooks and the attached log",
         "tracked dealership runs; target: < 2% disarmed, fsync policy "
         "scales the armed price");

  // 1. Micro: the disarmed hook is one pointer load + branch per graph
  // mutation.
  ProvenanceGraph idle_graph;
  const size_t kCalls = static_cast<size_t>(Scaled(20000000, 100000));
  double branch_ns = BranchNanos(idle_graph, kCalls);
  std::printf("%-36s %8.2f ns\n\n", "disarmed sink check", branch_ns);

  // 2. End to end: tracked executions with no sink (production default),
  // then with a WAL attached under each fsync policy. Best of 3 each.
  int num_cars = Scaled(20000, 400);
  int num_exec = 10;
  double base = 1e300, never = 1e300, savepoint = 1e300, commit = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    base = std::min(base,
                    TrackedSecPerExec(num_cars, num_exec, nullptr));
    never = std::min(never, WalSecPerExec(num_cars, num_exec,
                                          FsyncPolicy::kNever));
    savepoint = std::min(savepoint, WalSecPerExec(num_cars, num_exec,
                                                  FsyncPolicy::kOnSavepoint));
    commit = std::min(commit, WalSecPerExec(num_cars, num_exec,
                                            FsyncPolicy::kOnCommit));
  }
  std::printf("%-36s %8.4f sec/exec\n", "tracked, no WAL (disarmed)", base);
  std::printf("%-36s %8.4f sec/exec  (%+.2f%%)\n", "WAL, fsync=never",
              never, Pct(base, never));
  std::printf("%-36s %8.4f sec/exec  (%+.2f%%)\n", "WAL, fsync=savepoint",
              savepoint, Pct(base, savepoint));
  std::printf("%-36s %8.4f sec/exec  (%+.2f%%)\n\n", "WAL, fsync=commit",
              commit, Pct(base, commit));

  // 3. The timer-noise-free disarmed bound: count the sink crossings of
  // one tracked execution, charge each the measured branch cost.
  CountingSink counting;
  TrackedSecPerExec(num_cars, num_exec, nullptr, &counting);
  uint64_t crossings = counting.crossings / num_exec;
  double computed_pct = crossings * branch_ns * 1e-9 / base * 100.0;
  if (computed_pct < 0) computed_pct = 0;
  std::printf("%-36s %8llu crossings/exec -> %.4f%% of exec time\n\n",
              "computed disarmed-hook bound",
              static_cast<unsigned long long>(crossings), computed_pct);

  std::printf(
      "expected: the disarmed branch costs ~1 ns per graph mutation —\n"
      "orders of magnitude under the 2%% ceiling. An attached log pays\n"
      "for serialization and group-commit writes (fsync=never), plus one\n"
      "fsync per execution (savepoint) or per module invocation (commit);\n"
      "that is the documented price of opting into durability.\n");

  ResultsJson results("bench_wal_overhead");
  results.Add("disarmed_branch_ns", branch_ns);
  results.Add("computed_overhead_pct", computed_pct);
  results.Add("tracked_sec_per_exec", base);
  results.Add("wal_never_overhead_pct", Pct(base, never));
  results.Add("wal_savepoint_overhead_pct", Pct(base, savepoint));
  results.Add("wal_commit_overhead_pct", Pct(base, commit));
  results.Emit();
  return 0;
}
