// The `serve_cold` and `serve_hot` workloads: an in-process
// `lipstick serve` daemon over the seeded dealership graph, driven by one
// closed-loop connection with a seeded round-robin mix of seven query
// classes. serve_cold runs with the response cache off (`serve --cache 0`),
// so every request executes its plan; serve_hot keeps the default cache and
// sends every distinct request once before timing, so every timed request
// is a cache hit.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>

#include "bench.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "provenance/exec.h"
#include "provenance/provio.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/ops.h"
#include "service/protocol.h"
#include "service/registry.h"
#include "service/server.h"

namespace perfbench {
namespace {

using lipstick::GraphSnapshot;
using lipstick::NodeId;
using lipstick::ProvenanceGraph;
using lipstick::Result;
using lipstick::Status;
using lipstick::StrCat;
namespace service = lipstick::service;

constexpr int kClasses = 7;
enum Class { kStats, kFind, kExpr, kDepends, kSubgraph, kZoomout, kPipeline };
constexpr const char* kClassNames[kClasses] = {
    "stats", "find", "expr", "depends", "subgraph", "zoomout", "pipeline"};
constexpr const char* kExecSpans[kClasses] = {
    "exec.stats",    "exec.find",    "exec.expr",    "exec.depends",
    "exec.subgraph", "exec.zoomout", "exec.pipeline"};
constexpr char kGraphName[] = "dealers";
// A serve_hot request lasts tens of microseconds and its cost depends on
// what the caches hold, so a sample there is the fastest of this many
// back-to-back sends (see README.md).
constexpr int kHotSends = 3;

struct Request {
  int cls;
  std::string op;
  std::vector<std::string> args;
  size_t distinct;  // index of its text in the expected responses
};

template <typename Fn>
auto Timed(SpanLog* log, const char* name, double* us, Fn&& fn) {
  Span span(log, name);
  auto result = fn();
  *us = span.EndUs();
  return result;
}

void Shuffle(lipstick::Rng* rng, std::vector<int>* v) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng->Uniform(
                               0, static_cast<int64_t>(i) - 1))]);
  }
}

/// Per-execution node ids of one module's output ("o") nodes.
std::vector<NodeId> OutputsOf(const ProvenanceGraph& graph,
                              std::string_view module, int executions) {
  std::vector<NodeId> out(executions, lipstick::kInvalidNode);
  for (const lipstick::InvocationInfo& inv : graph.invocations()) {
    if (inv.aborted() || graph.str(inv.module_name) != module ||
        inv.output_nodes.empty() || inv.execution >= out.size()) {
      continue;
    }
    out[inv.execution] = inv.output_nodes.front();
  }
  return out;
}

/// The seeded request sequence: one pass holds `executions` cycles; each
/// cycle sends the seven classes once in a seeded order, and each pointed
/// class visits every execution once per pass in its own seeded order. The
/// ids are outputs of per-execution invocations, so every class does the
/// same work in every pass whatever the seed.
std::vector<Request> MakeSequence(const ProvenanceGraph& graph, int executions,
                                  uint64_t seed) {
  std::vector<NodeId> agg = OutputsOf(graph, "aggregate", executions);
  std::vector<NodeId> request = OutputsOf(graph, "request", executions);
  std::vector<NodeId> choice = OutputsOf(graph, "choice", executions);
  lipstick::Rng rng(seed ^ 0x5e77e5eedull);
  std::vector<std::vector<int>> order(kClasses);
  for (std::vector<int>& o : order) {
    o.resize(executions);
    std::iota(o.begin(), o.end(), 0);
    Shuffle(&rng, &o);
  }
  std::vector<Request> seq;
  for (int cycle = 0; cycle < executions; ++cycle) {
    std::vector<int> classes(kClasses);
    std::iota(classes.begin(), classes.end(), 0);
    Shuffle(&rng, &classes);
    for (int cls : classes) {
      int e = order[cls][cycle];
      Request r{cls, kClassNames[cls], {}, 0};
      switch (cls) {
        case kStats: break;
        case kFind: r.args = {"--label", "token"}; break;
        case kExpr: r.args = {StrCat(agg[e])}; break;
        case kDepends: r.args = {StrCat(agg[e]), StrCat(request[e])}; break;
        case kSubgraph: r.args = {StrCat(choice[e])}; break;
        case kZoomout: r.args = {"dealer"}; break;
        case kPipeline:
          r.op = StrCat("zoomout dealer | subgraph ", agg[e], " | stats");
          break;
      }
      seq.push_back(std::move(r));
    }
  }
  return seq;
}

/// Replay of one request in-process through the calls the server makes,
/// timing each layer; `exec_us` stays 0 on a cache hit.
struct Replay {
  double encode_us = 0, decode_us = 0, parse_us = 0, probe_us = 0,
         exec_us = 0;
  double pipeline_view_us = 0;  // BuildPlanView alone, pipelines only
  bool ok = false;
};

Replay ReplayRequest(const Request& r, const service::LoadedGraph& loaded,
                     service::ResponseCache* cache, const std::string& expected,
                     SpanLog* log) {
  Replay out;
  double us = 0;
  std::string payload = Timed(log, "service.protocol.encode", &us, [&] {
    return service::MakeRequest(r.op, r.args).Serialize();
  });
  out.encode_us += us;
  auto doc = Timed(log, "service.protocol.decode", &us,
                   [&] { return lipstick::obs::ParseJson(payload); });
  out.decode_us += us;
  if (!doc.ok()) return out;
  std::vector<std::string> args;
  for (const lipstick::obs::JsonValue& a : doc->Find("args")->array()) {
    args.push_back(a.str());
  }
  auto parsed = Timed(log, "plan.parse", &us, [&] {
    return service::ParseQuery(doc->Find("op")->str(), args);
  });
  out.parse_us = us;
  if (!parsed.ok()) return out;
  const std::string key = service::ResponseCache::Key(
      loaded.name, loaded.epoch, parsed->canonical, {});
  std::string text;
  bool hit = Timed(log, "service.cache.probe", &us,
                   [&] { return cache->Get(key, &text); });
  out.probe_us = us;
  if (!hit) {
    auto executed = Timed(log, kExecSpans[r.cls], &us, [&] {
      return service::ExecuteParsedQuery(loaded.snapshot, *parsed, 1);
    });
    out.exec_us = us;
    if (!executed.ok()) return out;
    text = std::move(*executed);
    cache->Put(key, text);
    if (r.cls == kPipeline) {
      Timed(log, "exec.pipeline_view", &out.pipeline_view_us, [&] {
        return lipstick::BuildPlanView(loaded.snapshot,
                                       parsed->optimized.plan, 1)
            .ok();
      });
    }
  }
  std::string response = Timed(log, "service.protocol.encode", &us, [&] {
    return service::OkResponse(text).Serialize();
  });
  out.encode_us += us;
  auto back = Timed(log, "service.protocol.decode", &us, [&] {
    auto parsed_doc = lipstick::obs::ParseJson(response);
    return parsed_doc.ok() ? service::ResponseToResult(*parsed_doc)
                           : Result<std::string>(parsed_doc.status());
  });
  out.decode_us += us;
  out.ok = back.ok() && *back == expected;
  return out;
}

struct ServeSetup {
  std::unique_ptr<service::GraphRegistry> registry;
  std::unique_ptr<service::Server> server;
  service::ServiceClient client;
};

/// Set-up as a user pays it: load the .pg into a registry, start the
/// server, and get the first ping answered over a fresh connection.
Status SetUp(const std::string& pg_path, const service::ServerOptions& options,
             SpanLog* log, ServeSetup* out, Samples* registry_ms) {
  double us = 0;
  out->registry = std::make_unique<service::GraphRegistry>();
  Status st = Timed(log, "registry.load", &us, [&] {
    return out->registry->LoadFile(kGraphName, pg_path);
  });
  registry_ms->Add(us / 1e3);
  if (!st.ok()) return st;
  out->server = std::make_unique<service::Server>(out->registry.get(), options);
  st = Timed(log, "service.start", &us, [&] { return out->server->Start(); });
  if (!st.ok()) return st;
  Span ping(log, "service.ping");
  auto client = service::ServiceClient::ConnectHostPort(out->server->host(),
                                                        out->server->port());
  if (!client.ok()) return client.status();
  out->client = std::move(*client);
  auto pong = out->client.Query("ping", {});
  if (!pong.ok()) return pong.status();
  return *pong == "pong\n" ? Status::OK() : Status::Internal("bad ping reply");
}

void TearDown(ServeSetup* s) {
  s->client.Close();
  if (s->server) s->server->Shutdown();
  s->server.reset();
  s->registry.reset();
}

/// Samples of one serve run; the per-request ones line up by position.
struct ServeStats {
  EndToEnd e2e;  // op_ms is filled from rtt_us at the end
  Samples registry_ms, rtt_us, class_us[kClasses];
  // Traced runs only: the in-process replay of each request, and pings.
  Samples encode_us, decode_us, parse_us, probe_us, exec_us, ping_us,
      class_exec_us[kClasses], pipeline_view_us;
  uint64_t samples = 0, hits = 0, misses = 0;
};

}  // namespace

int RunServe(const RunOptions& opts, bool hot, Report* report) {
  SpanLog log(opts.trace);
  const Scale scale = ScaleOf(opts);
  const std::string pg_path = opts.work_dir + "/serve.pg";

  // Input generation, untimed: track the executions and save the .pg.
  std::vector<Request> seq;
  {
    auto wf = lipstick::workflowgen::DealershipWorkflow::Create(
        GraphConfig(opts));
    report->Op(wf.ok(), "workflow create");
    if (!wf.ok()) return 1;
    ProvenanceGraph graph;
    for (int e = 1; e <= scale.executions; ++e) {
      report->Op((*wf)->ExecuteOnce(e, &graph).ok(), "tracked execution");
    }
    graph.Seal();
    report->Op(lipstick::SaveGraphToFile(graph, pg_path).ok(), "save graph");
    seq = MakeSequence(graph, scale.executions, opts.seed);
  }
  // Distinct requests, in first-appearance order.
  std::vector<const Request*> distinct;
  {
    std::map<std::pair<std::string, std::vector<std::string>>, size_t> index;
    for (Request& r : seq) {
      auto [it, added] = index.emplace(std::make_pair(r.op, r.args),
                                       distinct.size());
      if (added) distinct.push_back(&r);
      r.distinct = it->second;
    }
  }
  uint64_t digest = Fnv1a("");
  for (const Request& r : seq) {
    digest = Fnv1a(service::MakeRequest(r.op, r.args).Serialize() + "\n",
                   digest);
  }

  // `lipstick serve` arms the metrics registry; one worker; serve_cold is
  // `--cache 0`, serve_hot the default capacity.
  lipstick::obs::MetricsRegistry::Global().Enable();
  service::ServerOptions options;
  options.workers = 1;
  if (!hot) options.cache_entries = 0;
  if (hot && distinct.size() >= options.cache_entries) {
    report->Op(false, "hot request set must fit the response cache");
    return 1;
  }

  // The timed phase is cut into segments, each served by a fresh set-up,
  // so set-up samples spread over the run like every other metric.
  ServeStats st;
  const int segments = opts.smoke ? 2 : 15;
  const int sends = hot ? kHotSends : 1;  // per sample
  std::vector<std::string> expected;
  double bytes_per_request = 0, nodes = 0, edges = 0, memory_bytes = 0;
  service::ResponseCache replay_cache(options.cache_entries);
  const int64_t start = NowNs();
  for (int segment = 0; segment < segments && report->correct(); ++segment) {
    ServeSetup live;
    {
      Span setup(&log, "bench.setup");
      Status set_up = SetUp(pg_path, options, &log, &live, &st.registry_ms);
      st.e2e.setup_s.Add(setup.End() / 1e3);
      report->Op(set_up.ok(), StrCat("serve set-up: ", set_up.ToString()));
      if (!set_up.ok()) return 1;
    }
    auto loaded = live.registry->Get(kGraphName);
    report->Op(loaded.ok(), "registry lookup");
    if (!loaded.ok()) return 1;
    // Heap probes at phase boundaries, each right after a ping so the
    // server holds no response of a larger request.
    auto sample_heap = [&] {
      report->Op(live.client.Query("ping", {}).ok(), "ping");
      st.e2e.heap.Sample();
    };
    sample_heap();

    if (segment == 0) {
      const ProvenanceGraph& graph = *(*loaded)->graph;
      nodes = static_cast<double>(graph.num_nodes());
      edges = static_cast<double>(graph.num_edges());
      memory_bytes = static_cast<double>(graph.ComputeMemoryStats().total());
      std::printf("%s: graph nodes=%zu edges=%zu; %zu requests per pass, %zu "
                  "distinct, digest=%s\n",
                  opts.workload.c_str(), graph.num_nodes(), graph.num_edges(),
                  seq.size(), distinct.size(), Hex64(digest).c_str());
      // Expected texts: the local rendering path on the same snapshot.
      for (const Request* r : distinct) {
        auto text =
            service::ExecuteReadQuery((*loaded)->snapshot, r->op, r->args, 1);
        report->Op(text.ok(), StrCat("local ", r->op));
        expected.push_back(text.ok() ? *text : std::string());
      }
      for (const Request& r : seq) {
        bytes_per_request += static_cast<double>(expected[r.distinct].size());
      }
      bytes_per_request /= static_cast<double>(seq.size());
      // The replay's cache holds what the server's holds after warm-up.
      for (const Request* r : distinct) {
        auto parsed = service::ParseQuery(r->op, r->args);
        if (!parsed.ok()) continue;
        replay_cache.Put(service::ResponseCache::Key((*loaded)->name,
                                                     (*loaded)->epoch,
                                                     parsed->canonical, {}),
                         expected[r->distinct]);
      }
    }

    // Warm-up: one pass over the wire (fills the cache on serve_hot); its
    // samples stay out of the statistics.
    for (const Request& r : seq) {
      auto text = live.client.Query(r.op, r.args);
      report->Op(text.ok() && *text == expected[r.distinct],
                 StrCat("warm-up ", r.op));
    }
    sample_heap();
    const service::Server::StatsSnapshot before = live.server->Stats();

    // One closed-loop connection until the segment's share of the time is
    // up, resuming the sequence where the last segment stopped.
    const double segment_end = opts.seconds * (segment + 1) / segments;
    for (uint64_t n = 0;
         report->correct() &&
         (n == 0 || static_cast<double>(NowNs() - start) / 1e9 < segment_end);
         ++n) {
      const Request& r = seq[st.samples % seq.size()];
      ++st.samples;
      Span request(&log, "bench.request", st.samples);
      double us = 0;
      for (int k = 0; k < sends; ++k) {
        double one = 0;
        auto text = Timed(&log, "service.rpc", &one,
                          [&] { return live.client.Query(r.op, r.args); });
        report->Op(text.ok() && *text == expected[r.distinct],
                   "wire response differs from the local rendering");
        us = k == 0 ? one : std::min(us, one);
      }
      st.rtt_us.Add(us);
      st.class_us[r.cls].Add(us);
      if (!log.enabled()) continue;
      Replay rep = ReplayRequest(r, **loaded, &replay_cache,
                                 expected[r.distinct], &log);
      report->Op(rep.ok, "in-process replay differs from the local rendering");
      st.encode_us.Add(rep.encode_us);
      st.decode_us.Add(rep.decode_us);
      st.parse_us.Add(rep.parse_us);
      st.probe_us.Add(rep.probe_us);
      st.exec_us.Add(rep.exec_us);
      st.class_exec_us[r.cls].Add(rep.exec_us);
      if (r.cls == kPipeline && !hot) {
        st.pipeline_view_us.Add(rep.pipeline_view_us);
      }
      request.End();
      if (st.samples % kClasses == 0) {
        double ping_us = 0;
        auto pong = Timed(&log, "service.ping", &ping_us,
                          [&] { return live.client.Query("ping", {}); });
        report->Op(pong.ok(), "ping");
        st.ping_us.Add(ping_us);
      }
    }
    const service::Server::StatsSnapshot after = live.server->Stats();
    st.hits += after.cache_hits - before.cache_hits;
    st.misses += after.cache_misses - before.cache_misses;
    sample_heap();
    TearDown(&live);
  }
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  const uint64_t completed = st.samples * sends;
  const double hit_ratio =
      st.hits + st.misses > 0 ? static_cast<double>(st.hits) /
                                    static_cast<double>(st.hits + st.misses)
                              : 0;
  report->Op(hot ? st.misses == 0 && st.hits == completed : st.hits == 0,
             StrCat("cache hit ratio ", hit_ratio, " over the timed phase"));
  const Samples& rtt = st.rtt_us;
  std::printf("timed: %llu request(s) in %.2f s with %d set-up(s); cache "
              "hits %llu misses %llu\n",
              static_cast<unsigned long long>(completed), elapsed, segments,
              static_cast<unsigned long long>(st.hits),
              static_cast<unsigned long long>(st.misses));

  std::printf("round trip (us): p90 %.1f, p99 %.1f over the mix; p50",
              rtt.Quantile(0.9), rtt.Quantile(0.99));
  for (int c = 0; c < kClasses; ++c) {
    std::printf(" %s %.1f", kClassNames[c], st.class_us[c].Median());
  }
  std::printf("\n");
  for (double us : rtt.values()) st.e2e.op_ms.Add(us / 1e3);
  std::error_code size_error;
  const double pg_bytes =
      static_cast<double>(std::filesystem::file_size(pg_path, size_error));
  st.e2e.disk_bytes_per_node = pg_bytes / nodes;
  ReportEndToEnd(st.e2e, opts.trace, report);
  if (!opts.trace) return 0;

  // Traced: the graph layers of set-up, measured on twins of the load.
  Samples capture_us, provio_load_ms, seal_ms;
  for (int k = 0; k < segments; ++k) {
    double us = 0;
    auto twin = Timed(&log, "provio.load", &us,
                      [&] { return lipstick::LoadGraphFromFile(pg_path); });
    provio_load_ms.Add(us / 1e3);
    report->Op(twin.ok(), "twin load");
    if (!twin.ok()) break;
    Timed(&log, "graph.seal", &us, [&] {
      twin->Seal();
      return 0;
    });
    seal_ms.Add(us / 1e3);
    auto shared = std::make_shared<const ProvenanceGraph>(std::move(*twin));
    Timed(&log, "snapshot.capture", &us,
          [&] { return GraphSnapshot::Capture(shared).ok(); });
    capture_us.Add(us);
  }

  // Layer split of the round trips, position by position: what the replay
  // does not account for is server and transport time.
  const Samples& encode = st.encode_us;
  const Samples& decode = st.decode_us;
  const Samples& parse = st.parse_us;
  const Samples& probe = st.probe_us;
  const Samples& exec = st.exec_us;
  Samples unattributed;
  double sum_rtt = 0, sum_protocol = 0, sum_plan = 0, sum_cache = 0,
         sum_exec = 0;
  for (size_t i = 0; i < rtt.size(); ++i) {
    const double protocol = encode.values()[i] + decode.values()[i];
    unattributed.Add(rtt.values()[i] - protocol - parse.values()[i] -
                     probe.values()[i] - exec.values()[i]);
    sum_rtt += rtt.values()[i];
    sum_protocol += protocol;
    sum_plan += parse.values()[i];
    sum_cache += probe.values()[i];
    sum_exec += exec.values()[i];
  }
  const double sum_unattributed = unattributed.Sum();
  std::printf("round trip split over %zu request(s) (%.1f ms):\n", rtt.size(),
              sum_rtt / 1e3);
  const std::map<std::string, double> split = {
      {"service.protocol", sum_protocol / 1e3}, {"plan", sum_plan / 1e3},
      {"service.cache", sum_cache / 1e3},       {"exec", sum_exec / 1e3},
      {"unattributed", sum_unattributed / 1e3}};
  for (const auto& [layer, ms] : split) {
    std::printf("  %-16s %10.1f ms  %5.1f%%\n", layer.c_str(), ms,
                sum_rtt > 0 ? 100 * ms * 1e3 / sum_rtt : 0.0);
  }
  std::printf("layers: registry.load_ms %.3f, snapshot.capture_us %.1f, "
              "plan.parse_us_p50 %.2f, service.cache.probe_us_p50 %.2f, "
              "service.protocol.encode_us_p50 %.2f, "
              "service.protocol.decode_us_p50 %.2f, "
              "service.transport.ping_us_p50 %.2f, "
              "service.server.unattributed_us_p50 %.2f\n",
              st.registry_ms.Median(), capture_us.Median(), parse.Median(),
              probe.Median(), encode.Median(), decode.Median(),
              st.ping_us.Median(), unattributed.Median());
  if (!hot) {
    std::printf("layers:");
    for (int c = 0; c < kClasses; ++c) {
      std::printf(" exec.%s_us_p50 %.1f,", kClassNames[c],
                  st.class_exec_us[c].Median());
    }
    std::printf(" exec.pipeline_view_us_p50 %.1f\n",
                st.pipeline_view_us.Median());
  }

  ReportLayerShares(split, report);
  report->Metric("graph.seal_ms", seal_ms.Median(), "ms");
  report->Metric("provio.load_ms", provio_load_ms.Median(), "ms");
  report->Metric("graph.nodes", nodes, "count");
  report->Metric("graph.edges", edges, "count");
  report->Metric("graph.memory_bytes_per_node", memory_bytes / nodes,
                 "B/node");
  report->Metric("provio.bytes_per_node", pg_bytes / nodes, "B/node");
  // No WAL is written or replayed here.
  report->Metric("wal.bytes_per_node", 0, "B/node");
  report->Metric("wal.records_per_node", 0, "records/node");
  report->Metric("recovery.records_applied", 0, "count");
  report->Metric("exec.bytes_per_request", bytes_per_request, "B/request");
  report->Metric("service.cache.hit_ratio", hit_ratio, "ratio");
  if (!log.WriteChromeTrace(opts.trace_dir + "/" + opts.workload + "-seed" +
                            std::to_string(opts.seed) + ".json")) {
    report->Op(false, "write trace");
  }
  return 0;
}

}  // namespace perfbench
