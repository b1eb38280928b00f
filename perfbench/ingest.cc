// The `ingest` workload: the write path of `lipstick run --wal --graph`,
// `lipstick query` and `lipstick recover`, repeated in rounds through the
// timed phase. A round creates a fresh workflow, runs the tracked
// executions with a WAL attached, seals and saves the graph, loads it back,
// and recovers the WAL directory. No read layer runs.
#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>

#include "bench.h"
#include "provenance/provio.h"
#include "provenance/recovery.h"
#include "provenance/wal.h"

namespace perfbench {
namespace {

using lipstick::ExecutionOptions;
using lipstick::ProvenanceGraph;
using lipstick::RecoveryReport;
using lipstick::Result;
using lipstick::Status;
using lipstick::Wal;
using lipstick::WorkflowOutputs;
using lipstick::workflowgen::DealershipWorkflow;

/// Name of the filesystem holding `path` ("ext4", "tmpfs", ...).
std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "magic 0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// Self time in ms of each layer (the span name up to its first dot) over
/// the spans in scope, printed with each one's share. The self time of
/// "bench.*" spans is keyed "unattributed".
std::map<std::string, double> SelfTimes(const SpanLog& log,
                                        const std::vector<bool>& in_scope) {
  const std::vector<SpanRecord>& spans = log.spans();
  std::vector<double> self = log.SelfMs();
  std::map<std::string, double> by_layer;
  double total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!in_scope[i] || spans[i].end_ns < 0) continue;
    std::string layer(std::string_view(spans[i].name).substr(
        0, std::string_view(spans[i].name).find('.')));
    by_layer[layer == "bench" ? "unattributed" : layer] += self[i];
    total += self[i];
  }
  std::printf("self time by layer over the timed rounds (%.1f ms):\n", total);
  for (const auto& [layer, ms] : by_layer) {
    std::printf("  %-14s %10.1f ms  %5.1f%%\n", layer.c_str(), ms,
                total > 0 ? 100 * ms / total : 0.0);
  }
  return by_layer;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string Serialize(const ProvenanceGraph& graph) {
  std::ostringstream os;
  if (!lipstick::SaveGraph(graph, os).ok()) return {};
  return os.str();
}

/// The workflow output every twin of one execution must agree on.
std::string BestBid(const Result<WorkflowOutputs>& outputs) {
  if (!outputs.ok()) return {};
  auto node = outputs->find("agg");
  if (node == outputs->end()) return {};
  auto rel = node->second.find("BestBid");
  return rel == node->second.end() ? std::string() : rel->second.bag.ToString();
}

struct IngestStats {
  EndToEnd e2e;  // op_ms is filled from the four step kinds at the end
  Samples exec_ms, save_ms, load_ms, recover_ms;
  // Traced runs only.
  Samples untracked_ms, tracked_ms, seal_ms, provio_save_ms, provio_load_ms,
      replay_ms, wal_close_ms;
  // The round's graph; identical in every round of one seed.
  uint64_t digest = 0;
  size_t nodes = 0, edges = 0, memory_bytes = 0, pg_bytes = 0;
  uint64_t wal_bytes = 0, wal_records = 0, records_applied = 0;
};

/// One round; a warm-up round (`timed` false) adds no samples.
void Round(const RunOptions& opts, bool timed, uint64_t round, SpanLog* log,
           IngestStats* st, Report* report) {
  const std::string wal_dir = opts.work_dir + "/wal";
  const std::string pg_path = opts.work_dir + "/graph.pg";
  std::error_code ignored;
  std::filesystem::remove_all(wal_dir, ignored);
  std::filesystem::remove(pg_path, ignored);
  const lipstick::workflowgen::DealershipConfig cfg = GraphConfig(opts);
  // Runs `fn` in a span; timed rounds add its time to `into`, when given.
  auto measure = [&](const char* name, Samples* into, auto&& fn) {
    Span span(log, name);
    auto result = fn();
    const double ms = span.End();
    if (timed && into != nullptr) into->Add(ms);
    return result;
  };
  // Per-layer samples are kept in traced runs only.
  auto layer = [&](Samples* s) { return log->enabled() ? s : nullptr; };
  auto seal = [](ProvenanceGraph* g) {
    g->Seal();
    return 0;
  };

  Span root(log, "bench.round", round);
  std::unique_ptr<DealershipWorkflow> wf;
  std::unique_ptr<Wal> wal;
  {
    Span setup(log, "bench.setup");
    auto created = measure("workflow.create", nullptr,
                           [&] { return DealershipWorkflow::Create(cfg); });
    // Default WalOptions: fsync at execution savepoints, as `run --wal`.
    auto opened =
        measure("wal.open", nullptr, [&] { return Wal::Open(wal_dir); });
    const double setup_ms = setup.End();
    if (timed) st->e2e.setup_s.Add(setup_ms / 1e3);
    report->Op(created.ok() && opened.ok(), "workflow create / wal open");
    if (!created.ok() || !opened.ok()) return;
    wf = std::move(*created);
    wal = std::move(*opened);
  }
  st->e2e.heap.Sample();

  auto graph = std::make_unique<ProvenanceGraph>();
  Status attached = measure("wal.attach", nullptr, [&] {
    return wal->Attach(graph.get(), wf->executor().executions_run());
  });
  report->Op(attached.ok(), "wal attach");
  ExecutionOptions options = wf->executor().default_options();
  options.durability = wal.get();
  wf->executor().set_default_options(options);

  // Traced runs step two twins in lockstep with the WAL run: one untracked
  // (graph = null) and one tracked without a WAL.
  std::unique_ptr<DealershipWorkflow> untracked, tracked;
  ProvenanceGraph twin_graph;
  if (log->enabled()) {
    Span s(log, "bench.twin_create");
    auto u = DealershipWorkflow::Create(cfg);
    auto t = DealershipWorkflow::Create(cfg);
    report->Op(u.ok() && t.ok(), "twin workflow create");
    if (!u.ok() || !t.ok()) return;
    untracked = std::move(*u);
    tracked = std::move(*t);
  }

  const int executions = ScaleOf(opts).executions;
  for (int e = 1; e <= executions; ++e) {
    auto out = measure("tracking.execute", &st->exec_ms,
                       [&] { return wf->ExecuteOnce(e, graph.get()); });
    std::string bid = BestBid(out);
    report->Op(!bid.empty() && bid != "{}", "tracked execution with WAL");
    if (!untracked) continue;
    auto u = measure("workflow.untracked_exec", &st->untracked_ms,
                     [&] { return untracked->ExecuteOnce(e, nullptr); });
    auto t = measure("graph.tracked_exec", &st->tracked_ms,
                     [&] { return tracked->ExecuteOnce(e, &twin_graph); });
    report->Op(BestBid(u) == bid && BestBid(t) == bid,
               "twin executions agree with the WAL execution");
  }
  st->e2e.heap.Sample();
  Status closed = measure("wal.close", layer(&st->wal_close_ms),
                          [&] { return wal->Close(); });
  report->Op(closed.ok() && wal->status().ok(), "wal close");
  const uint64_t wal_bytes = wal->bytes_appended();
  const uint64_t wal_records = wal->records_appended();
  wal.reset();
  wf.reset();
  untracked.reset();
  tracked.reset();

  {
    Span save(log, "bench.save");
    measure("graph.seal", layer(&st->seal_ms),
            [&] { return seal(graph.get()); });
    Status saved = measure("provio.save", layer(&st->provio_save_ms), [&] {
      return lipstick::SaveGraphToFile(*graph, pg_path);
    });
    const double save_ms = save.End();
    if (timed) st->save_ms.Add(save_ms);
    report->Op(saved.ok(), "save graph");
  }
  const size_t nodes = graph->num_nodes();
  const size_t edges = graph->num_edges();
  const size_t memory_bytes = graph->ComputeMemoryStats().total();
  graph.reset();

  std::string saved_bytes;
  {
    Span check(log, "bench.check");
    saved_bytes = ReadFile(pg_path);
    uint64_t digest = Fnv1a(saved_bytes);
    if (st->digest == 0) {
      st->digest = digest;
      st->nodes = nodes;
      st->edges = edges;
      st->memory_bytes = memory_bytes;
      st->pg_bytes = saved_bytes.size();
      st->wal_bytes = wal_bytes;
      st->wal_records = wal_records;
    } else {
      report->Op(digest == st->digest && wal_bytes == st->wal_bytes,
                 "round reproduces the first round's graph and log");
    }
  }

  {
    Span load(log, "bench.load");
    auto loaded = measure("provio.load", layer(&st->provio_load_ms),
                          [&] { return lipstick::LoadGraphFromFile(pg_path); });
    if (loaded.ok()) {
      measure("graph.seal", nullptr, [&] { return seal(&*loaded); });
    }
    const double load_ms = load.End();
    if (timed) st->load_ms.Add(load_ms);
    st->e2e.heap.Sample();
    Span check(log, "bench.check");
    report->Op(loaded.ok() && Serialize(*loaded) == saved_bytes,
               "loaded graph re-serializes to the saved .pg");
  }

  {
    Span recover(log, "bench.recover");
    RecoveryReport recovery;
    auto recovered = measure("recovery.replay", layer(&st->replay_ms), [&] {
      return lipstick::RecoverGraph(wal_dir, &recovery);
    });
    if (recovered.ok()) {
      measure("graph.seal", nullptr, [&] { return seal(&*recovered); });
    }
    const double recover_ms = recover.End();
    if (timed) st->recover_ms.Add(recover_ms);
    st->e2e.heap.Sample();
    st->records_applied = recovery.records_applied;
    Span check(log, "bench.check");
    report->Op(recovered.ok() && Serialize(*recovered) == saved_bytes,
               "recovered graph re-serializes to the saved .pg");
  }
}

}  // namespace

int RunIngest(const RunOptions& opts, Report* report) {
  SpanLog log(opts.trace);
  IngestStats st;
  const Scale scale = ScaleOf(opts);
  std::printf("ingest: %d cars, %d tracked executions per round; WAL fsync "
              "at savepoints; files on %s\n",
              scale.cars, scale.executions,
              FilesystemOf(opts.work_dir).c_str());

  // Warm-up round: checked, but its samples stay out of the statistics.
  Round(opts, false, 0, &log, &st, report);
  const size_t warmup_spans = log.spans().size();
  const int64_t start = NowNs();
  uint64_t rounds = 0;
  while (report->correct() &&
         (rounds == 0 ||
          static_cast<double>(NowNs() - start) / 1e9 < opts.seconds)) {
    Round(opts, true, ++rounds, &log, &st, report);
  }
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  std::printf("graph: nodes=%zu edges=%zu pg_bytes=%zu digest=%s\n", st.nodes,
              st.edges, st.pg_bytes, Hex64(st.digest).c_str());

  const Samples& exec_ms = st.exec_ms;
  std::printf("timed: %llu round(s), %zu execution(s) in %.2f s\n",
              static_cast<unsigned long long>(rounds), exec_ms.size(),
              elapsed);
  for (const Samples* step :
       {&st.exec_ms, &st.save_ms, &st.load_ms, &st.recover_ms}) {
    for (double ms : step->values()) st.e2e.op_ms.Add(ms);
  }
  std::printf("steps: exec p50 %.3f ms, p90 %.3f ms; save %.3f ms; load "
              "%.3f ms; recover %.3f ms (medians); p90 over all steps "
              "%.3f ms\n",
              exec_ms.Quantile(0.5), exec_ms.Quantile(0.9),
              st.save_ms.Median(), st.load_ms.Median(),
              st.recover_ms.Median(), st.e2e.op_ms.Quantile(0.9));
  const double nodes = static_cast<double>(st.nodes > 0 ? st.nodes : 1);
  st.e2e.disk_bytes_per_node = static_cast<double>(st.pg_bytes) / nodes;
  ReportEndToEnd(st.e2e, opts.trace, report);
  if (!opts.trace) return 0;

  // Layer accounting over the end-to-end phases of the timed rounds: the
  // rounds themselves, the checks and the twins are left out.
  std::vector<bool> in_scope(log.spans().size(), false);
  for (size_t i = warmup_spans; i < log.spans().size(); ++i) {
    std::string_view name = log.spans()[i].name;
    in_scope[i] = name != "bench.round" && name != "bench.check" &&
                  name != "bench.twin_create" &&
                  name != "workflow.untracked_exec" &&
                  name != "graph.tracked_exec";
  }
  std::map<std::string, double> self = SelfTimes(log, in_scope);
  // One execution with the WAL is a single call; the twins' medians split
  // its self time into the workflow, the graph append and the WAL append.
  const double untracked = st.untracked_ms.Median();
  const double tracked = st.tracked_ms.Median();
  const double with_wal = exec_ms.Median();
  std::printf("tracking.execute p50 %.2f ms = workflow %.2f + graph %.2f + "
              "wal %.2f (twin medians)\n",
              with_wal, untracked, tracked - untracked, with_wal - tracked);
  const double parts[] = {untracked, std::max(0.0, tracked - untracked),
                          std::max(0.0, with_wal - tracked)};
  const double whole = parts[0] + parts[1] + parts[2];
  const double execute = self["tracking"];
  self.erase("tracking");
  if (whole > 0) {
    self["workflow"] += execute * parts[0] / whole;
    self["graph"] += execute * parts[1] / whole;
    self["wal"] += execute * parts[2] / whole;
  }
  std::printf("layers: workflow.untracked_exec_ms_p50 %.3f, "
              "graph.tracked_exec_ms_p50 %.3f, wal.close_ms %.3f, "
              "provio.save_ms %.3f, recovery.replay_ms %.3f\n",
              untracked, tracked, st.wal_close_ms.Median(),
              st.provio_save_ms.Median(), st.replay_ms.Median());

  ReportLayerShares(self, report);
  report->Metric("graph.seal_ms", st.seal_ms.Median(), "ms");
  report->Metric("provio.load_ms", st.provio_load_ms.Median(), "ms");
  report->Metric("graph.nodes", static_cast<double>(st.nodes), "count");
  report->Metric("graph.edges", static_cast<double>(st.edges), "count");
  report->Metric("graph.memory_bytes_per_node",
                 static_cast<double>(st.memory_bytes) / nodes, "B/node");
  report->Metric("provio.bytes_per_node",
                 static_cast<double>(st.pg_bytes) / nodes, "B/node");
  report->Metric("wal.bytes_per_node",
                 static_cast<double>(st.wal_bytes) / nodes, "B/node");
  report->Metric("wal.records_per_node",
                 static_cast<double>(st.wal_records) / nodes, "records/node");
  report->Metric("recovery.records_applied",
                 static_cast<double>(st.records_applied), "count");
  // No read layer runs here.
  report->Metric("exec.bytes_per_request", 0, "B/request");
  report->Metric("service.cache.hit_ratio", 0, "ratio");
  if (!log.WriteChromeTrace(opts.trace_dir + "/ingest-seed" +
                            std::to_string(opts.seed) + ".json")) {
    report->Op(false, "write trace");
  }
  return 0;
}

}  // namespace perfbench
