#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "test_util.h"
#include "workflow/executor.h"
#include "workflow/module.h"
#include "workflow/workflow.h"

namespace lipstick {
namespace {

using ::lipstick::testing::I;
using ::lipstick::testing::MakeSchema;
using ::lipstick::testing::T;

SchemaPtr NumSchema() { return MakeSchema({{"x", FieldType::Int()}}); }

/// Every test starts and ends with a disarmed tracer/registry with clean
/// values, so tests never leak observability state into each other.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(); }
  void TearDown() override { Reset(); }
  static void Reset() {
    // Start() clears prior events; Stop() disarms again, leaving an empty
    // disarmed tracer for the next test.
    obs::Tracer::Global().Start();
    obs::Tracer::Global().Stop();
    obs::MetricsRegistry::Global().Disable();
    obs::MetricsRegistry::Global().ResetValues();
  }
};

/// ------------------------------- JSON ----------------------------------

TEST_F(ObsTest, JsonParseSerializeRoundTrip) {
  const char* doc =
      R"({"a":1,"b":-2.5,"c":"hi \"there\"","d":[true,false,null],)"
      R"("e":{"nested":[1,2,3]},"f":1e3})";
  auto parsed = obs::ParseJson(doc);
  LIPSTICK_ASSERT_OK(parsed.status());
  auto reparsed = obs::ParseJson(parsed->Serialize());
  LIPSTICK_ASSERT_OK(reparsed.status());
  EXPECT_TRUE(parsed->Equals(*reparsed));
  EXPECT_EQ(parsed->Find("a")->number(), 1);
  EXPECT_EQ(parsed->Find("c")->str(), "hi \"there\"");
  EXPECT_EQ(parsed->Find("d")->array().size(), 3u);
  EXPECT_EQ(parsed->Find("f")->number(), 1000);
}

TEST_F(ObsTest, JsonRejectsMalformed) {
  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("[1,]").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(obs::ParseJson("nul").ok());
  // Malformed string literals, with the message and offset each reports.
  const std::pair<const char*, const char*> strings[] = {
      {"\"unterminated", "json: unterminated string at offset 13"},
      {"\"ends in a backslash\\", "json: unterminated string at offset 21"},
      {"\"bad \\x escape\"", "json: bad escape character at offset 7"},
      {"\"truncated \\u12", "json: truncated \\u escape at offset 13"},
      {"\"bad \\u12g4\"", "json: bad \\u escape at offset 10"},
      {"[\"ok\",\"a long plain run then \\q\"]",
       "json: bad escape character at offset 31"},
  };
  for (const auto& [text, message] : strings) {
    Result<obs::JsonValue> doc = obs::ParseJson(text);
    ASSERT_FALSE(doc.ok()) << text;
    EXPECT_EQ(doc.status().message(), message) << text;
  }
}

/// The string escaper as it was written first, one byte at a time: the
/// reference the run-copying escaper must reproduce byte for byte.
std::string ReferenceEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Escape, serialize and parse back one string, against the reference.
void ExpectCodecMatchesReference(const std::string& s) {
  const std::string want = ReferenceEscape(s);
  EXPECT_EQ(obs::JsonEscape(s), want);
  std::string appended = "x";
  obs::JsonEscape(s, &appended);
  EXPECT_EQ(appended, "x" + want);
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set(s, obs::JsonValue::Str(s));
  const std::string text = doc.Serialize();
  EXPECT_EQ(text, "{\"" + want + "\":\"" + want + "\"}");
  Result<obs::JsonValue> back = obs::ParseJson(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->members().size(), 1u);
  EXPECT_EQ(back->members()[0].first, s);
  EXPECT_EQ(back->members()[0].second.str(), s);
}

TEST_F(ObsTest, JsonStringCodecMatchesBytewiseReference) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    SCOPED_TRACE(b);
    ExpectCodecMatchesReference(one);
    all += one;
  }
  ExpectCodecMatchesReference(all);
  ExpectCodecMatchesReference("");
  ExpectCodecMatchesReference("\"\"\\\\\"quoted\\path\"");
  // Multi-byte UTF-8 passes through unescaped: 2-, 3- and 4-byte forms.
  ExpectCodecMatchesReference(
      "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80");
  // One escapable byte at every offset 0..16 of a longer plain run, so
  // it lands in every position of a scanned word and in the tail.
  for (char special : {'"', '\\', '\n', '\t', '\x01', '\x1f'}) {
    for (size_t len = 1; len <= 40; ++len) {
      for (size_t at = 0; at <= 16 && at < len; ++at) {
        std::string s(len, 'a');
        s[at] = special;
        SCOPED_TRACE(::testing::Message() << "len=" << len << " at=" << at
                                          << " byte=" << int(special));
        ExpectCodecMatchesReference(s);
      }
    }
  }
  // Seeded random strings, weighted toward the bytes that need escapes.
  Rng rng(17);
  const std::string specials = "\"\\\n\r\t\x01\x1f\x7f\x80\xff ";
  for (int i = 0; i < 2000; ++i) {
    std::string s(static_cast<size_t>(rng.Uniform(0, 48)), ' ');
    for (char& c : s) {
      c = rng.Chance(0.2) ? specials[rng.Uniform(0, specials.size() - 1)]
                          : static_cast<char>(rng.Uniform(0, 255));
    }
    ExpectCodecMatchesReference(s);
  }
}

/// ------------------------------ metrics --------------------------------

TEST_F(ObsTest, MetricsDisarmedRecordsNothing) {
  auto& m = obs::MetricsRegistry::Global();
  obs::MetricId c = m.RegisterCounter("test.disarmed_counter");
  m.CounterAdd(c, 5);
  for (const auto& [name, v] : m.Snap().counters) {
    if (name == "test.disarmed_counter") {
      EXPECT_EQ(v, 0u);
    }
  }
}

TEST_F(ObsTest, MetricsCountersGaugesHistograms) {
  auto& m = obs::MetricsRegistry::Global();
  obs::MetricId c = m.RegisterCounter("test.counter");
  obs::MetricId g = m.RegisterGauge("test.gauge");
  obs::MetricId h = m.RegisterHistogram("test.hist_us");
  // Registration is idempotent per name.
  EXPECT_EQ(c, m.RegisterCounter("test.counter"));

  m.Enable();
  m.CounterAdd(c, 2);
  m.CounterAdd(c);
  m.GaugeSet(g, -7);
  for (double v : {1.0, 3.0, 100.0, 1000.0}) m.Observe(h, v);
  m.Disable();

  auto snap = m.Snap();
  uint64_t counter = 0;
  int64_t gauge = 0;
  bool gauge_seen = false;
  for (const auto& [name, v] : snap.counters) {
    if (name == "test.counter") counter = v;
  }
  for (const auto& [name, v] : snap.gauges) {
    if (name == "test.gauge") {
      gauge = v;
      gauge_seen = true;
    }
  }
  EXPECT_EQ(counter, 3u);
  EXPECT_TRUE(gauge_seen);
  EXPECT_EQ(gauge, -7);
  for (const auto& hist : snap.histograms) {
    if (hist.name != "test.hist_us") continue;
    EXPECT_EQ(hist.count, 4u);
    EXPECT_DOUBLE_EQ(hist.sum, 1104.0);
    EXPECT_DOUBLE_EQ(hist.min, 1.0);
    EXPECT_DOUBLE_EQ(hist.max, 1000.0);
    // Approximate: quantiles resolve to log2-bucket midpoints.
    EXPECT_GE(hist.ApproxQuantile(0.99), 64.0);
    EXPECT_LE(hist.ApproxQuantile(0.5), 64.0);
  }
}

TEST_F(ObsTest, MetricsRenderJsonParses) {
  auto& m = obs::MetricsRegistry::Global();
  obs::MetricId c = m.RegisterCounter("test.render_counter");
  obs::MetricId h = m.RegisterHistogram("test.render_us");
  m.Enable();
  m.CounterAdd(c, 41);
  m.Observe(h, 12.5);
  m.Disable();

  auto doc = obs::ParseJson(m.RenderJson());
  LIPSTICK_ASSERT_OK(doc.status());
  const obs::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("test.render_counter"), nullptr);
  EXPECT_EQ(counters->Find("test.render_counter")->number(), 41);
  const obs::JsonValue* hists = doc->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const obs::JsonValue* hist = hists->Find("test.render_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->number(), 1);
  EXPECT_EQ(hist->Find("sum")->number(), 12.5);
  // Text rendering mentions the metric too.
  EXPECT_NE(m.RenderText().find("test.render_counter"),
            std::string::npos);
}

TEST_F(ObsTest, MetricsShardedWritersAggregate) {
  auto& m = obs::MetricsRegistry::Global();
  obs::MetricId c = m.RegisterCounter("test.sharded_counter");
  obs::MetricId h = m.RegisterHistogram("test.sharded_us");
  m.Enable();
  constexpr int kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        m.CounterAdd(c);
        m.Observe(h, 2.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  m.Disable();

  auto snap = m.Snap();
  for (const auto& [name, v] : snap.counters) {
    if (name == "test.sharded_counter") {
      EXPECT_EQ(v, uint64_t{kThreads} * kPerThread);
    }
  }
  for (const auto& hist : snap.histograms) {
    if (hist.name != "test.sharded_us") continue;
    EXPECT_EQ(hist.count, uint64_t{kThreads} * kPerThread);
    EXPECT_DOUBLE_EQ(hist.sum, 2.0 * kThreads * kPerThread);
  }
}

/// ------------------------------- tracer --------------------------------

TEST_F(ObsTest, SpanDisarmedIsInactiveAndFree) {
  obs::ObsSpan span("test", "never.recorded");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  EXPECT_EQ(obs::Tracer::Global().num_events(), 0u);
}

TEST_F(ObsTest, SpansNestPerThread) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  uint64_t outer_id = 0, inner_id = 0;
  {
    obs::ObsSpan outer("test", "outer");
    outer_id = outer.id();
    EXPECT_EQ(obs::ObsSpan::Current(), outer_id);
    {
      obs::ObsSpan inner("test", "inner");
      inner_id = inner.id();
      EXPECT_EQ(obs::ObsSpan::Current(), inner_id);
    }
    EXPECT_EQ(obs::ObsSpan::Current(), outer_id);
  }
  tracer.Stop();
  EXPECT_EQ(obs::ObsSpan::Current(), 0u);

  auto doc = obs::ParseJson(tracer.ExportJson());
  LIPSTICK_ASSERT_OK(doc.status());
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  uint64_t inner_parent = 0, outer_parent = 99;
  for (const obs::JsonValue& e : events->array()) {
    const obs::JsonValue* name = e.Find("name");
    if (name == nullptr) continue;
    const obs::JsonValue* span_args = e.Find("args");
    if (name->str() == "inner") {
      inner_parent = uint64_t(span_args->Find("parent")->number());
    } else if (name->str() == "outer") {
      outer_parent = uint64_t(span_args->Find("parent")->number());
    }
  }
  EXPECT_EQ(inner_parent, outer_id);
  EXPECT_EQ(outer_parent, 0u);
}

TEST_F(ObsTest, TraceExportIsValidChromeTraceJson) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  {
    obs::ObsSpan span("test", "with \"quotes\" and \\slashes\\");
    span.Arg("str", std::string_view("a\nb"));
    span.Arg("count", uint64_t{42});
    span.Arg("delta", -1.5);
  }
  tracer.Stop();

  std::string json = tracer.ExportJson();
  auto doc = obs::ParseJson(json);
  LIPSTICK_ASSERT_OK(doc.status());
  EXPECT_EQ(doc->Find("displayTimeUnit")->str(), "ms");
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  bool found = false;
  for (const obs::JsonValue& e : events->array()) {
    if (e.Find("ph")->str() != "X") continue;
    // Complete events carry the required Chrome trace_event fields.
    EXPECT_NE(e.Find("name"), nullptr);
    EXPECT_NE(e.Find("cat"), nullptr);
    EXPECT_NE(e.Find("ts"), nullptr);
    EXPECT_NE(e.Find("dur"), nullptr);
    EXPECT_NE(e.Find("pid"), nullptr);
    EXPECT_NE(e.Find("tid"), nullptr);
    if (e.Find("name")->str() == "with \"quotes\" and \\slashes\\") {
      found = true;
      const obs::JsonValue* span_args = e.Find("args");
      EXPECT_EQ(span_args->Find("str")->str(), "a\nb");
      EXPECT_EQ(span_args->Find("count")->number(), 42);
      EXPECT_EQ(span_args->Find("delta")->number(), -1.5);
    }
  }
  EXPECT_TRUE(found);

  // Golden round-trip: reserialize the parsed document and re-parse; the
  // two documents must be structurally identical.
  auto reparsed = obs::ParseJson(doc->Serialize());
  LIPSTICK_ASSERT_OK(reparsed.status());
  EXPECT_TRUE(doc->Equals(*reparsed));
}

/// --------------------- executor integration ----------------------------

/// Diamond workflow (in -> a, b -> m) for executor instrumentation tests.
Workflow BuildDiamond() {
  Workflow w;
  auto source = MakeModule("source", {{"Ext", NumSchema()}}, {},
                           {{"Out", NumSchema()}}, "",
                           "Out = FOREACH Ext GENERATE x;");
  EXPECT_TRUE(source.ok());
  EXPECT_TRUE(w.AddModule(std::move(*source)).ok());
  auto doubler = MakeModule("doubler", {{"In", NumSchema()}}, {},
                            {{"Out", NumSchema()}}, "",
                            "Out = FOREACH In GENERATE x * 2 AS x;");
  EXPECT_TRUE(doubler.ok());
  EXPECT_TRUE(w.AddModule(std::move(*doubler)).ok());
  auto merge = MakeModule("merge", {{"A", NumSchema()}, {"B", NumSchema()}},
                          {}, {{"Out", NumSchema()}}, "",
                          "Out = UNION A, B;");
  EXPECT_TRUE(merge.ok());
  EXPECT_TRUE(w.AddModule(std::move(*merge)).ok());
  EXPECT_TRUE(w.AddNode("in", "source").ok());
  EXPECT_TRUE(w.AddNode("a", "doubler").ok());
  EXPECT_TRUE(w.AddNode("b", "doubler").ok());
  EXPECT_TRUE(w.AddNode("m", "merge").ok());
  EXPECT_TRUE(w.AddEdge("in", "a", {EdgeRelation{"Out", "In"}}).ok());
  EXPECT_TRUE(w.AddEdge("in", "b", {EdgeRelation{"Out", "In"}}).ok());
  EXPECT_TRUE(w.AddEdge("a", "m", {EdgeRelation{"Out", "A"}}).ok());
  EXPECT_TRUE(w.AddEdge("b", "m", {EdgeRelation{"Out", "B"}}).ok());
  return w;
}

WorkflowInputs DiamondInputs() {
  WorkflowInputs inputs;
  Bag ext;
  for (int i = 0; i < 10; ++i) ext.Add(T({I(i)}));
  inputs["in"]["Ext"] = std::move(ext);
  return inputs;
}

TEST_F(ObsTest, ParallelExecutorSpansCompleteAndParented) {
  Workflow w = BuildDiamond();
  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());

  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  ProvenanceGraph graph;
  auto outputs = exec.Execute(DiamondInputs(), &graph, 4);
  LIPSTICK_ASSERT_OK(outputs.status());
  tracer.Stop();

  auto doc = obs::ParseJson(tracer.ExportJson());
  LIPSTICK_ASSERT_OK(doc.status());

  uint64_t execute_id = 0;
  std::set<std::string> node_names;
  std::vector<uint64_t> node_parents;
  size_t attempt_events = 0;
  for (const obs::JsonValue& e : doc->Find("traceEvents")->array()) {
    const obs::JsonValue* ph = e.Find("ph");
    if (ph == nullptr || ph->str() != "X") continue;
    const std::string& cat = e.Find("cat")->str();
    const obs::JsonValue* span_args = e.Find("args");
    // Every complete event is closed: it has a finite duration.
    EXPECT_GE(e.Find("dur")->number(), 0.0);
    if (cat == "executor") {
      execute_id = uint64_t(span_args->Find("span")->number());
    } else if (cat == "executor.node") {
      node_names.insert(e.Find("name")->str());
      node_parents.push_back(uint64_t(span_args->Find("parent")->number()));
    } else if (cat == "executor.attempt") {
      ++attempt_events;
    }
  }
  // One span per workflow node, each parented under the execute span even
  // though they ran on 4 worker threads.
  EXPECT_EQ(node_names, (std::set<std::string>{"in", "a", "b", "m"}));
  ASSERT_NE(execute_id, 0u);
  for (uint64_t p : node_parents) EXPECT_EQ(p, execute_id);
  EXPECT_EQ(attempt_events, 4u);
}

TEST_F(ObsTest, ExecutorMetricsCountNodesAndProvenance) {
  Workflow w = BuildDiamond();
  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());

  auto& m = obs::MetricsRegistry::Global();
  m.Enable();
  ProvenanceGraph graph;
  auto outputs = exec.Execute(DiamondInputs(), &graph, 4);
  LIPSTICK_ASSERT_OK(outputs.status());
  graph.Seal();
  m.Disable();

  uint64_t nodes_run = 0, executions = 0, prov_appended = 0, failures = 1;
  for (const auto& [name, v] : m.Snap().counters) {
    if (name == "executor.nodes_run") nodes_run = v;
    if (name == "executor.executions") executions = v;
    if (name == "provenance.nodes_appended") prov_appended = v;
    if (name == "executor.node_failures") failures = v;
  }
  EXPECT_EQ(nodes_run, 4u);
  EXPECT_EQ(executions, 1u);
  EXPECT_EQ(failures, 0u);
  // Every provenance node the workers appended is accounted for.
  EXPECT_EQ(prov_appended, graph.num_nodes());

  // Seal() recorded graph-shape gauges.
  int64_t gauge_nodes = -1;
  for (const auto& [name, v] : m.Snap().gauges) {
    if (name == "provenance.nodes") gauge_nodes = v;
  }
  EXPECT_EQ(gauge_nodes, int64_t(graph.num_nodes()));
}

TEST_F(ObsTest, DisarmedExecutionRecordsNothingAndStaysCheap) {
  Workflow w = BuildDiamond();
  WorkflowExecutor exec(&w, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());

  // Warm-up, then measure a disarmed run: no events, no metric values.
  auto outputs = exec.Execute(DiamondInputs(), nullptr, 4);
  LIPSTICK_ASSERT_OK(outputs.status());

  WallTimer timer;
  outputs = exec.Execute(DiamondInputs(), nullptr, 4);
  double disarmed_seconds = timer.ElapsedSeconds();
  LIPSTICK_ASSERT_OK(outputs.status());

  EXPECT_EQ(obs::Tracer::Global().num_events(), 0u);
  for (const auto& [name, v] : obs::MetricsRegistry::Global().Snap().counters) {
    EXPECT_EQ(v, 0u) << name;
  }
  // The disarmed hooks are relaxed atomic loads; a 4-node diamond on 10
  // tuples crosses ~20 hook sites. Even a glacial CI machine finishes in
  // well under a second — this guards against a hook accidentally doing
  // real work (allocation, locking, I/O) when disarmed.
  EXPECT_LT(disarmed_seconds, 1.0);
}

}  // namespace
}  // namespace lipstick
