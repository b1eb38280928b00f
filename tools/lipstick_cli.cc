// lipstick — command-line front end: run workflow definition files with
// provenance tracking, and query saved provenance graphs (the standalone
// "Query Processor" of the paper's architecture, Section 5.1).
//
// Usage:
//   lipstick lint <workflow.wf> [--json]
//   lipstick analyze <workflow.wf> [--execs N] [--input node.Rel=file.csv]...
//                [--state instance.Rel=file.csv]... [--json]
//   lipstick validate <workflow.wf | graph.pg>
//   lipstick run <workflow.wf> [--execs N] [--input node.Rel=file.csv]...
//                [--state instance.Rel=file.csv]... [--graph out.pg]
//                [--workers N] [--print-outputs]
//                [--wal <dir>] [--wal-fsync never|commit|savepoint]
//   lipstick recover <wal-dir> [--out g.pg] [--keep-uncommitted] [--repair]
//   lipstick query <graph.pg> stats
//   lipstick query <graph.pg> find [--label L] [--role R] [--payload S]
//   lipstick query <graph.pg> expr <node-id>
//   lipstick query <graph.pg> depends <target-id> <source-id>
//   lipstick query <graph.pg> subgraph <node-id>[,<node-id>...] [up|down]
//   lipstick query <graph.pg> delete <node-id>[,<node-id>...]
//   lipstick query <graph.pg> zoomout <module> [<module>...]
//   lipstick query <graph.pg> restrict [--label L] [--role R] [--payload S]
//   lipstick query <graph.pg> dot --out graph.dot
//   lipstick query <graph.pg> opm --out graph.xml
//   lipstick query <graph.pg> "zoomout m1,m2 | subgraph 42 | stats"
//   lipstick explain <graph.pg> <query...> [--json]
//   lipstick query <graph.pg> --batch <queries.txt> [--threads N]
//   lipstick serve [name=]graph.pg... [--host H] [--port P] [--workers N]
//                  [--queue-depth N] [--deadline-ms D] [--cache N]
//   lipstick query --connect host:port [--graph NAME] [--deadline-ms D]
//                  stats|find|expr|depends|subgraph|zoomout|restrict|
//                  delete|ping|graphs|reload|metricz ... |
//                  --batch <queries.txt>
//
// `--batch` runs one read-only query per line (single ops or `|`
// pipelines; blank lines and # comments skipped, errors report 1-based
// line numbers), `--threads N` lines at a time over one shared snapshot.
// `--threads` applies only to a local `--batch`: a remote batch runs its
// lines one at a time over one connection, and `--connect` refuses it.
//
// A `|` anywhere in the query folds the whole command line into one
// pipeline plan: view stages (zoomout, subgraph, restrict, delete) compose
// into a single mask without intermediate materialization, then an
// optional terminal (stats, find, expr, depends) renders over it. A view
// stage is a query like any other: it prints the same summary line
// one-shot, in --batch and over --connect, and never changes the graph
// file. `--out f` on a query whose last stage is a view stage also saves
// that view: f ending in .pg gets the materialized graph (provio), any
// other f gets Graphviz dot.
// `explain` prints the optimized plan with predicted cardinalities
// instead of running it.
//
// `serve` runs the long-lived query daemon of the service layer; `query
// --connect` talks to it over the length-prefixed JSON protocol and
// prints byte-identical output to local mode, so the same golden files
// check both paths (tools/check.sh `integration`).
//
// Workflows that rely on C++ UDFs cannot be run from the CLI (register
// them via the library API instead); everything else works end to end.

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "analysis/dataflow.h"
#include "analysis/diagnostics.h"
#include "analysis/graph_validator.h"
#include "analysis/workflow_linter.h"
#include "obs/json.h"
#include "common/fault.h"
#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "provenance/dot.h"
#include "provenance/opm.h"
#include "provenance/provio.h"
#include "provenance/query.h"
#include "provenance/recovery.h"
#include "provenance/wal.h"
#include "provenance/semiring.h"
#include "provenance/snapshot.h"
#include "provenance/subgraph.h"
#include "provenance/traverse.h"
#include "provenance/view.h"
#include "relational/csv.h"
#include "service/client.h"
#include "service/ops.h"
#include "service/protocol.h"
#include "service/registry.h"
#include "service/server.h"
#include "workflow/executor.h"
#include "workflow/wfdsl.h"

using namespace lipstick;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "lipstick: %s\n", message.c_str());
  return 1;
}

int FailUsage() {
  std::fprintf(stderr,
               "usage: lipstick lint <workflow.wf> [--json]\n"
               "       lipstick analyze <workflow.wf> [--execs N] "
               "[--input node.Rel=f.csv]... [--state inst.Rel=f.csv]... "
               "[--interval] [--json]\n"
               "       lipstick validate <workflow.wf | graph.pg>\n"
               "       lipstick run <workflow.wf> [--execs N] "
               "[--input node.Rel=f.csv]... [--state inst.Rel=f.csv]... "
               "[--graph out.pg] [--workers N] [--print-outputs] "
               "[--wal <dir>] [--wal-fsync never|commit|savepoint]\n"
               "       lipstick recover <wal-dir> [--out g.pg] "
               "[--keep-uncommitted] [--repair]\n"
               "       lipstick query <graph.pg> stats|find|expr|depends|"
               "subgraph|delete|zoomout|restrict|dot|opm|validate ...\n"
               "       lipstick query <graph.pg> \"<stage> | <stage> | ...\" "
               "[--out f]\n"
               "       lipstick explain <graph.pg> <query...> [--json]\n"
               "       lipstick query <graph.pg> --batch <queries.txt> "
               "[--threads N]\n"
               "       lipstick serve [name=]graph.pg... [--host H] "
               "[--port P] [--workers N] [--queue-depth N] [--deadline-ms D] "
               "[--cache N]\n"
               "       lipstick query --connect host:port [--graph NAME] "
               "[--deadline-ms D] <op> ... | --batch <queries.txt>\n");
  return 2;
}

struct Binding {
  std::string owner;     // node id or instance name
  std::string relation;  // relation name
  std::string path;      // csv file
};

/// Parses "owner.Relation=path".
Result<Binding> ParseBinding(const std::string& arg) {
  size_t eq = arg.find('=');
  size_t dot = arg.find('.');
  if (eq == std::string::npos || dot == std::string::npos || dot > eq) {
    return Status::InvalidArgument(
        StrCat("expected owner.Relation=file.csv, got '", arg, "'"));
  }
  return Binding{arg.substr(0, dot), arg.substr(dot + 1, eq - dot - 1),
                 arg.substr(eq + 1)};
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Prints the sink and returns the process exit code: nonzero when any
/// finding is a warning or worse (the check.sh lint gate keys on this).
int ReportDiagnostics(analysis::DiagnosticSink* sink, const std::string& file,
                      bool json) {
  sink->Sort();
  std::string rendered = json ? sink->RenderJson(file) : sink->RenderText(file);
  std::fputs(rendered.c_str(), stdout);
  size_t errors = sink->CountAtLeast(analysis::Severity::kError);
  size_t flagged = sink->CountAtLeast(analysis::Severity::kWarning);
  if (!json) {
    std::printf("%s: %zu error(s), %zu warning(s), %zu note(s)\n",
                file.c_str(), errors, flagged - errors,
                sink->size() - flagged);
  }
  return flagged > 0 ? 1 : 0;
}

int CmdLint(const std::vector<std::string>& args) {
  if (args.empty()) return FailUsage();
  bool json = false;
  std::string path;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      json = true;
    } else if (path.empty()) {
      path = arg;
    } else {
      return Fail(StrCat("unknown lint argument '", arg, "'"));
    }
  }
  if (path.empty()) return FailUsage();
  Result<Workflow> wf = ParseWorkflowFile(path);
  if (!wf.ok()) return Fail(wf.status().ToString());
  pig::UdfRegistry udfs;
  analysis::DiagnosticSink sink;
  analysis::LintWorkflow(*wf, &udfs, &sink);
  return ReportDiagnostics(&sink, path, json);
}

/// Renders a cardinality interval as JSON: {"lo": N, "hi": M} with a null
/// hi when the interval is unbounded, plus "exact" for quick consumers.
std::string CardJson(const analysis::CardInterval& c) {
  std::string out = StrCat("{\"lo\":", c.lo, ",\"hi\":");
  if (c.hi == analysis::kCardInf) {
    out += "null";
  } else {
    out += StrCat(c.hi);
  }
  out += StrCat(",\"exact\":", c.exact() ? "true" : "false", "}");
  return out;
}

int CmdAnalyze(const std::vector<std::string>& args) {
  if (args.empty()) return FailUsage();
  const std::string& wf_path = args[0];
  int execs = 1;
  bool json = false;
  bool force_interval = false;
  std::vector<Binding> inputs, states;
  for (size_t i = 1; i < args.size(); ++i) {
    auto need_value = [&](const char* flag) -> Result<std::string> {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument(StrCat(flag, " needs a value"));
      }
      return args[++i];
    };
    if (args[i] == "--execs") {
      auto v = need_value("--execs");
      if (!v.ok()) return Fail(v.status().ToString());
      execs = std::atoi(v->c_str());
    } else if (args[i] == "--json") {
      json = true;
    } else if (args[i] == "--interval") {
      force_interval = true;
    } else if (args[i] == "--input" || args[i] == "--state") {
      bool is_input = args[i] == "--input";
      auto v = need_value(is_input ? "--input" : "--state");
      if (!v.ok()) return Fail(v.status().ToString());
      Result<Binding> binding = ParseBinding(*v);
      if (!binding.ok()) return Fail(binding.status().ToString());
      (is_input ? inputs : states).push_back(std::move(*binding));
    } else {
      return Fail(StrCat("unknown analyze flag '", args[i], "'"));
    }
  }

  std::error_code ec;
  if (std::filesystem::is_directory(wf_path, ec)) {
    return Fail(StrCat(wf_path, " is a directory, not a workflow file"));
  }
  Result<Workflow> wf = ParseWorkflowFile(wf_path);
  if (!wf.ok()) return Fail(wf.status().ToString());
  pig::UdfRegistry udfs;

  analysis::AnalyzeOptions opt;
  opt.executions = execs;
  opt.force_interval = force_interval;
  opt.udfs = &udfs;
  for (const Binding& b : states) {
    const ModuleSpec* spec = nullptr;
    for (const WorkflowNode& node : wf->nodes()) {
      if (node.instance == b.owner) {
        auto found = wf->FindModule(node.module);
        if (found.ok()) spec = *found;
      }
    }
    if (spec == nullptr) {
      return Fail(StrCat("--state: unknown instance '", b.owner, "'"));
    }
    auto schema_it = spec->state_schemas.find(b.relation);
    if (schema_it == spec->state_schemas.end()) {
      return Fail(StrCat("--state: module ", spec->name,
                         " has no state relation '", b.relation, "'"));
    }
    Result<Bag> bag = ReadCsvFile(b.path, *schema_it->second);
    if (!bag.ok()) return Fail(bag.status().ToString());
    opt.initial_state[b.owner][b.relation] = std::move(*bag);
  }
  for (const Binding& b : inputs) {
    Result<const WorkflowNode*> node = wf->FindNode(b.owner);
    if (!node.ok()) return Fail(node.status().ToString());
    Result<const ModuleSpec*> spec = wf->FindModule((*node)->module);
    if (!spec.ok()) return Fail(spec.status().ToString());
    auto schema_it = (*spec)->input_schemas.find(b.relation);
    if (schema_it == (*spec)->input_schemas.end()) {
      return Fail(StrCat("--input: module ", (*spec)->name,
                         " has no input relation '", b.relation, "'"));
    }
    Result<Bag> bag = ReadCsvFile(b.path, *schema_it->second);
    if (!bag.ok()) return Fail(bag.status().ToString());
    opt.inputs[b.owner][b.relation] = std::move(*bag);
  }

  analysis::DiagnosticSink sink;
  analysis::LintWorkflow(*wf, &udfs, &sink);
  Result<analysis::WorkflowFacts> facts =
      analysis::AnalyzeDataflow(*wf, opt, &sink);
  if (!facts.ok()) return Fail(facts.status().ToString());
  analysis::CostReport cost = analysis::PredictCost(*facts);
  sink.Sort();
  const char* mode = facts->concrete ? "concrete" : "interval";

  if (json) {
    std::string out = "{";
    out += StrCat("\"file\":\"", obs::JsonEscape(wf_path), "\",");
    out += StrCat("\"mode\":\"", mode, "\",");
    out += StrCat("\"executions\":", facts->executions, ",");
    out += StrCat("\"diagnostics\":", sink.RenderJson(wf_path), ",");
    out += StrCat("\"cost\":{\"nodes\":", CardJson(cost.nodes),
                  ",\"edges\":", CardJson(cost.edges),
                  ",\"est_nodes\":", static_cast<uint64_t>(cost.est_nodes),
                  ",\"est_edges\":", static_cast<uint64_t>(cost.est_edges),
                  ",\"bytes\":{\"columns\":", CardJson(cost.column_bytes),
                  ",\"edge_arena\":", CardJson(cost.edge_arena_bytes),
                  ",\"csr\":", CardJson(cost.csr_bytes),
                  ",\"values\":", CardJson(cost.value_bytes),
                  ",\"interner\":", CardJson(cost.interner_bytes),
                  ",\"invocations\":", CardJson(cost.invocation_bytes),
                  ",\"total\":", CardJson(cost.total_bytes),
                  ",\"est\":", cost.est_bytes, "},\"per_node\":[");
    for (size_t i = 0; i < cost.per_node.size(); ++i) {
      const analysis::ModuleCost& mc = cost.per_node[i];
      if (i > 0) out += ",";
      out += StrCat("{\"node\":\"", obs::JsonEscape(mc.node_id),
                    "\",\"module\":\"", obs::JsonEscape(mc.module),
                    "\",\"instance\":\"", obs::JsonEscape(mc.instance),
                    "\",\"invocations\":", mc.invocations,
                    ",\"nodes\":", CardJson(mc.nodes),
                    ",\"edges\":", CardJson(mc.edges), "}");
    }
    out += "]},\"relations\":{";
    bool first_node = true;
    for (const auto& [node_id, rels] : facts->relations) {
      if (!first_node) out += ",";
      first_node = false;
      out += StrCat("\"", obs::JsonEscape(node_id), "\":{");
      bool first_rel = true;
      for (const auto& [rel_name, rf] : rels) {
        if (!first_rel) out += ",";
        first_rel = false;
        out += StrCat("\"", obs::JsonEscape(rel_name),
                      "\":{\"card\":", CardJson(rf.card.total),
                      ",\"est\":", static_cast<uint64_t>(rf.est),
                      ",\"schema\":\"",
                      obs::JsonEscape(rf.schema ? rf.schema->ToString() : ""),
                      "\"}");
      }
      out += "}";
    }
    out += "},\"deletion\":[";
    for (size_t i = 0; i < facts->deletion.size(); ++i) {
      const analysis::DeletionFact& d = facts->deletion[i];
      if (i > 0) out += ",";
      out += StrCat("{\"node\":\"", obs::JsonEscape(d.node_id),
                    "\",\"relation\":\"", obs::JsonEscape(d.relation),
                    "\",\"classification\":\"",
                    d.amplifying ? "amplifying" : "safe",
                    "\",\"reaches_state\":",
                    d.reaches_state ? "true" : "false", ",\"reason\":\"",
                    obs::JsonEscape(d.reason), "\"}");
    }
    out += "],\"notes\":[";
    for (size_t i = 0; i < facts->notes.size(); ++i) {
      if (i > 0) out += ",";
      out += StrCat("\"", obs::JsonEscape(facts->notes[i]), "\"");
    }
    out += "]}\n";
    std::fputs(out.c_str(), stdout);
    return sink.CountAtLeast(analysis::Severity::kWarning) > 0 ? 1 : 0;
  }

  std::printf("analysis of %s: %s mode, %d execution(s)\n", wf_path.c_str(),
              mode, facts->executions);
  std::fputs(sink.RenderText(wf_path).c_str(), stdout);

  std::printf("\nrelation facts:\n");
  for (const auto& [node_id, rels] : facts->relations) {
    std::printf("  %s:\n", node_id.c_str());
    for (const auto& [rel_name, rf] : rels) {
      std::printf("    %-16s card %-12s est %-8.0f %s\n", rel_name.c_str(),
                  rf.card.total.ToString().c_str(), rf.est,
                  rf.schema ? rf.schema->ToString().c_str() : "(no schema)");
    }
  }

  std::printf("\npredicted provenance (per workflow node):\n");
  std::printf("  %-16s %-12s %-14s %-14s\n", "node", "invocations", "nodes",
              "edges");
  for (const analysis::ModuleCost& mc : cost.per_node) {
    std::printf("  %-16s %-12d %-14s %-14s\n", mc.node_id.c_str(),
                mc.invocations, mc.nodes.ToString().c_str(),
                mc.edges.ToString().c_str());
  }
  std::printf("  %-16s %-12s %-14s %-14s\n", "total", "",
              cost.nodes.ToString().c_str(), cost.edges.ToString().c_str());
  if (!facts->concrete) {
    std::printf("  point estimate: %.0f nodes, %.0f edges\n", cost.est_nodes,
                cost.est_edges);
  }

  std::printf("\npredicted bytes (columnar layout):\n");
  auto row = [](const char* label, const analysis::CardInterval& c) {
    std::printf("  %-16s %s\n", label, c.ToString().c_str());
  };
  row("columns", cost.column_bytes);
  row("edge arena", cost.edge_arena_bytes);
  row("csr index", cost.csr_bytes);
  row("values", cost.value_bytes);
  row("interner", cost.interner_bytes);
  row("invocations", cost.invocation_bytes);
  row("total", cost.total_bytes);
  std::printf("  %-16s %llu\n", "point estimate",
              static_cast<unsigned long long>(cost.est_bytes));

  std::printf("\ndeletion propagation:\n");
  if (facts->deletion.empty()) {
    std::printf("  (no workflow inputs)\n");
  }
  for (const analysis::DeletionFact& d : facts->deletion) {
    if (d.amplifying) {
      std::printf("  %s.%s: amplifying — %s\n", d.node_id.c_str(),
                  d.relation.c_str(), d.reason.c_str());
    } else {
      std::printf("  %s.%s: safe%s\n", d.node_id.c_str(), d.relation.c_str(),
                  d.reaches_state ? " (accumulates in state)" : "");
    }
  }
  for (const std::string& note : facts->notes) {
    std::printf("note: %s\n", note.c_str());
  }
  return sink.CountAtLeast(analysis::Severity::kWarning) > 0 ? 1 : 0;
}

int CmdValidateGraph(const std::string& path) {
  Result<ProvenanceGraph> graph = LoadGraphFromFile(path);
  if (!graph.ok()) return Fail(graph.status().ToString());
  graph->Seal();
  analysis::DiagnosticSink sink;
  analysis::ValidateGraph(*graph, &sink);
  int rc = ReportDiagnostics(&sink, path, /*json=*/false);
  if (rc == 0) {
    std::printf("graph OK: %zu alive node(s), %zu edge(s), %zu invocation(s)\n",
                graph->num_alive(), graph->num_edges(),
                graph->num_live_invocations());
  }
  return rc;
}

int CmdValidate(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Fail(StrCat(path, " is a directory, not a workflow or graph file"));
  }
  if (EndsWith(path, ".pg")) return CmdValidateGraph(path);
  Result<Workflow> wf = ParseWorkflowFile(path);
  if (!wf.ok()) return Fail(wf.status().ToString());
  pig::UdfRegistry udfs;
  Status st = wf->Validate(&udfs);
  if (!st.ok()) return Fail(st.ToString());
  Result<std::vector<std::string>> topo = wf->TopologicalOrder();
  std::printf("workflow OK: %zu nodes, %zu edges\n", wf->nodes().size(),
              wf->edges().size());
  std::printf("inputs:  %s\n", Join(wf->InputNodes(), ", ").c_str());
  std::printf("outputs: %s\n", Join(wf->OutputNodes(), ", ").c_str());
  std::printf("order:   %s\n", Join(*topo, " -> ").c_str());
  return 0;
}

int CmdRun(const std::vector<std::string>& args) {
  if (args.empty()) return FailUsage();
  const std::string& wf_path = args[0];
  int execs = 1;
  int workers = 1;
  bool print_outputs = false;
  std::string graph_path;
  std::string trace_path;    // --trace: Chrome trace_event JSON
  std::string metrics_path;  // --metrics: metrics registry JSON
  std::string wal_dir;       // --wal: crash-safe provenance log directory
  FsyncPolicy wal_fsync = FsyncPolicy::kOnSavepoint;
  std::vector<Binding> inputs, states;
  for (size_t i = 1; i < args.size(); ++i) {
    auto need_value = [&](const char* flag) -> Result<std::string> {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument(StrCat(flag, " needs a value"));
      }
      return args[++i];
    };
    if (args[i] == "--execs") {
      auto v = need_value("--execs");
      if (!v.ok()) return Fail(v.status().ToString());
      execs = std::atoi(v->c_str());
    } else if (args[i] == "--workers") {
      auto v = need_value("--workers");
      if (!v.ok()) return Fail(v.status().ToString());
      workers = std::atoi(v->c_str());
    } else if (args[i] == "--graph") {
      auto v = need_value("--graph");
      if (!v.ok()) return Fail(v.status().ToString());
      graph_path = *v;
    } else if (args[i] == "--trace") {
      auto v = need_value("--trace");
      if (!v.ok()) return Fail(v.status().ToString());
      trace_path = *v;
    } else if (args[i] == "--metrics") {
      auto v = need_value("--metrics");
      if (!v.ok()) return Fail(v.status().ToString());
      metrics_path = *v;
    } else if (args[i] == "--wal") {
      auto v = need_value("--wal");
      if (!v.ok()) return Fail(v.status().ToString());
      wal_dir = *v;
    } else if (args[i] == "--wal-fsync") {
      auto v = need_value("--wal-fsync");
      if (!v.ok()) return Fail(v.status().ToString());
      if (*v == "never") {
        wal_fsync = FsyncPolicy::kNever;
      } else if (*v == "commit") {
        wal_fsync = FsyncPolicy::kOnCommit;
      } else if (*v == "savepoint") {
        wal_fsync = FsyncPolicy::kOnSavepoint;
      } else {
        return Fail(StrCat("--wal-fsync: unknown policy '", *v,
                           "' (expected never|commit|savepoint)"));
      }
    } else if (args[i] == "--input" || args[i] == "--state") {
      bool is_input = args[i] == "--input";
      auto v = need_value(is_input ? "--input" : "--state");
      if (!v.ok()) return Fail(v.status().ToString());
      Result<Binding> binding = ParseBinding(*v);
      if (!binding.ok()) return Fail(binding.status().ToString());
      (is_input ? inputs : states).push_back(std::move(*binding));
    } else if (args[i] == "--print-outputs") {
      print_outputs = true;
    } else {
      return Fail(StrCat("unknown flag '", args[i], "'"));
    }
  }

  std::error_code ec;
  if (std::filesystem::is_directory(wf_path, ec)) {
    return Fail(StrCat(wf_path, " is a directory, not a workflow file"));
  }
  Result<Workflow> wf = ParseWorkflowFile(wf_path);
  if (!wf.ok()) return Fail(wf.status().ToString());
  pig::UdfRegistry udfs;
  WorkflowExecutor executor(&*wf, &udfs);
  Status st = executor.Initialize();
  if (!st.ok()) return Fail(st.ToString());

  // Initial state from CSV files.
  for (const Binding& b : states) {
    // Find the schema through any node bound to this instance.
    const ModuleSpec* spec = nullptr;
    for (const WorkflowNode& node : wf->nodes()) {
      if (node.instance == b.owner) {
        auto found = wf->FindModule(node.module);
        if (found.ok()) spec = *found;
      }
    }
    if (spec == nullptr) {
      return Fail(StrCat("--state: unknown instance '", b.owner, "'"));
    }
    auto schema_it = spec->state_schemas.find(b.relation);
    if (schema_it == spec->state_schemas.end()) {
      return Fail(StrCat("--state: module ", spec->name,
                         " has no state relation '", b.relation, "'"));
    }
    Result<Bag> bag = ReadCsvFile(b.path, *schema_it->second);
    if (!bag.ok()) return Fail(bag.status().ToString());
    st = executor.SetInitialState(b.owner, b.relation, std::move(*bag));
    if (!st.ok()) return Fail(st.ToString());
  }

  // Inputs (replayed identically on every execution).
  WorkflowInputs workflow_inputs;
  for (const Binding& b : inputs) {
    Result<const WorkflowNode*> node = wf->FindNode(b.owner);
    if (!node.ok()) return Fail(node.status().ToString());
    Result<const ModuleSpec*> spec = wf->FindModule((*node)->module);
    if (!spec.ok()) return Fail(spec.status().ToString());
    auto schema_it = (*spec)->input_schemas.find(b.relation);
    if (schema_it == (*spec)->input_schemas.end()) {
      return Fail(StrCat("--input: module ", (*spec)->name,
                         " has no input relation '", b.relation, "'"));
    }
    Result<Bag> bag = ReadCsvFile(b.path, *schema_it->second);
    if (!bag.ok()) return Fail(bag.status().ToString());
    workflow_inputs[b.owner][b.relation] = std::move(*bag);
  }

  // Observability: arm the tracer / metrics registry around the execution
  // loop when requested; both stay disarmed (no overhead) otherwise.
  if (!trace_path.empty()) obs::Tracer::Global().Start();
  if (!metrics_path.empty()) obs::MetricsRegistry::Global().Enable();

  ProvenanceGraph graph;
  // --wal implies provenance tracking: the log records graph mutations.
  ProvenanceGraph* graph_ptr =
      (graph_path.empty() && wal_dir.empty()) ? nullptr : &graph;
  std::unique_ptr<Wal> wal;
  if (!wal_dir.empty()) {
    WalOptions wal_options;
    wal_options.fsync = wal_fsync;
    Result<std::unique_ptr<Wal>> opened = Wal::Open(wal_dir, wal_options);
    if (!opened.ok()) return Fail(opened.status().ToString());
    wal = std::move(*opened);
    st = wal->Attach(&graph, executor.executions_run());
    if (!st.ok()) return Fail(st.ToString());
    ExecutionOptions options = executor.default_options();
    options.durability = wal.get();
    executor.set_default_options(options);
  }
  WorkflowOutputs last_outputs;
  for (int e = 0; e < execs; ++e) {
    Result<WorkflowOutputs> outputs =
        executor.Execute(workflow_inputs, graph_ptr, workers);
    if (!outputs.ok()) return Fail(outputs.status().ToString());
    last_outputs = std::move(*outputs);
  }
  if (wal != nullptr) {
    Status wal_status = wal->status();
    st = wal->Close();
    if (!st.ok()) return Fail(st.ToString());
    if (!wal_status.ok()) return Fail(wal_status.ToString());
    std::printf("wal: %llu record(s), %llu byte(s) -> %s\n",
                static_cast<unsigned long long>(wal->records_appended()),
                static_cast<unsigned long long>(wal->bytes_appended()),
                wal_dir.c_str());
  }
  std::printf("ran %d execution(s) of %zu node(s)\n", execs,
              wf->nodes().size());

  if (print_outputs) {
    for (const std::string& node_id : wf->OutputNodes()) {
      auto it = last_outputs.find(node_id);
      if (it == last_outputs.end()) continue;
      for (const auto& [rel_name, rel] : it->second) {
        std::printf("%s.%s = %s\n", node_id.c_str(), rel_name.c_str(),
                    rel.bag.ToString().c_str());
      }
    }
  }
  if (graph_ptr != nullptr) {
    graph.Seal();
    st = SaveGraphToFile(graph, graph_path);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("provenance graph: %zu nodes -> %s\n", graph.num_nodes(),
                graph_path.c_str());
  }

  // Export after the graph save so Seal() spans/metrics are captured.
  if (!trace_path.empty()) {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Stop();
    st = tracer.WriteJsonToFile(trace_path);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("trace: %zu event(s) -> %s (load in about:tracing or "
                "ui.perfetto.dev)\n",
                tracer.num_events(), trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    metrics.Disable();
    std::string json = metrics.RenderJson();
    std::FILE* f = std::fopen(metrics_path.c_str(), "wb");
    if (f == nullptr || std::fwrite(json.data(), 1, json.size(), f) !=
                            json.size()) {
      if (f != nullptr) std::fclose(f);
      return Fail(StrCat("cannot write metrics to '", metrics_path, "'"));
    }
    std::fclose(f);
    std::printf("metrics: %s\n", metrics_path.c_str());
  }
  return 0;
}

int CmdRecover(const std::vector<std::string>& args) {
  if (args.empty()) return FailUsage();
  const std::string& wal_dir = args[0];
  std::string out_path;
  RecoveryOptions options;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--out") {
      if (i + 1 >= args.size()) return Fail("--out needs a value");
      out_path = args[++i];
    } else if (args[i] == "--keep-uncommitted") {
      options.keep_uncommitted = true;
    } else if (args[i] == "--repair") {
      options.repair = true;
    } else {
      return Fail(StrCat("unknown recover flag '", args[i], "'"));
    }
  }
  RecoveryReport report;
  Result<ProvenanceGraph> graph = RecoverGraph(wal_dir, &report, options);
  if (!graph.ok()) return Fail(graph.status().ToString());
  std::fputs(report.ToString().c_str(), stdout);
  graph->Seal();
  analysis::DiagnosticSink sink;
  analysis::ValidateGraph(*graph, &sink);
  if (sink.CountAtLeast(analysis::Severity::kWarning) > 0) {
    sink.Sort();
    std::fputs(sink.RenderText(wal_dir).c_str(), stdout);
    return Fail("recovered graph failed validation");
  }
  std::printf("recovered graph OK: %zu alive node(s), %zu invocation(s)\n",
              graph->num_alive(), graph->num_live_invocations());
  if (!out_path.empty()) {
    Status st = SaveGraphToFile(*graph, out_path);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

/// Query subcommands, recognized before the graph file is touched so an
/// unknown op fails fast with a one-line diagnostic (mirroring `recover`).
bool KnownQueryOp(const std::string& op) {
  static const std::set<std::string> kOps = {
      "stats",   "find",     "expr", "depends", "subgraph", "delete",
      "zoomout", "restrict", "dot",  "opm",     "validate", "explain"};
  return kOps.count(op) > 0;
}

/// True when any token carries a `|`: the whole command line is one
/// pipeline plan and travels as a single op string.
bool HasPipe(const std::vector<std::string>& tokens) {
  for (const std::string& t : tokens) {
    if (t.find('|') != std::string::npos) return true;
  }
  return false;
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

/// One batch-file query plus where it came from: per-line errors cite the
/// 1-based line number in the original file, not the post-skip index.
struct BatchLine {
  size_t line_no = 0;
  std::string text;
};

/// Loads a batch file: one query per line, blank lines and # comments
/// skipped. Shared by the local and remote batch drivers.
Result<std::vector<BatchLine>> ReadBatchLines(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError(StrCat("cannot read batch file '", path, "'"));
  }
  std::vector<BatchLine> lines;
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    lines.push_back(BatchLine{line_no, line.substr(first)});
  }
  return lines;
}

/// Prints batch results in input order under "## <query>" headers. Failed
/// lines render through the protocol error envelope ("error: <code>:
/// <message>" — identical whether the query ran locally or server-side)
/// plus the 1-based source line number, and make the exit code nonzero;
/// all lines still run and report.
int ReportBatch(const std::vector<BatchLine>& lines,
                const std::vector<std::string>& outputs,
                const std::vector<Status>& errors) {
  size_t failures = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::printf("## %s\n", lines[i].text.c_str());
    if (errors[i].ok()) {
      std::fputs(outputs[i].c_str(), stdout);
    } else {
      std::printf("%s (line %zu)\n", service::ErrorLine(errors[i]).c_str(),
                  lines[i].line_no);
      ++failures;
    }
  }
  if (failures > 0) {
    return Fail(StrCat(failures, " of ", lines.size(),
                       " batch queries failed"));
  }
  std::printf("(%zu batch queries OK)\n", lines.size());
  return 0;
}

/// The local `--batch` driver: one read-only query per line, run
/// concurrently over a single shared snapshot on `threads` workers.
int RunBatch(const GraphSnapshot& snap, const std::string& batch_path,
             int threads) {
  Result<std::vector<BatchLine>> lines = ReadBatchLines(batch_path);
  if (!lines.ok()) return Fail(lines.status().ToString());
  std::vector<std::string> outputs(lines->size());
  std::vector<Status> errors(lines->size());
  // Whole lines run concurrently. The whole line travels as the op string
  // — the plan parser splits it, so pipelines need no special case.
  ParallelFor(lines->size(), threads, [&](size_t begin, size_t end, int) {
    for (size_t i = begin; i < end; ++i) {
      Result<std::string> text =
          service::ExecuteReadQuery(snap, (*lines)[i].text, {}, /*threads=*/1);
      if (text.ok()) {
        outputs[i] = std::move(*text);
      } else {
        errors[i] = text.status();
      }
    }
  });
  return ReportBatch(*lines, outputs, errors);
}

/// The remote `--batch` driver: same file format, same report, but each
/// line is a round-trip to the daemon over one connection.
int RunRemoteBatch(service::ServiceClient* client,
                   const std::string& batch_path, const std::string& graph,
                   double deadline_ms) {
  Result<std::vector<BatchLine>> lines = ReadBatchLines(batch_path);
  if (!lines.ok()) return Fail(lines.status().ToString());
  std::vector<std::string> outputs(lines->size());
  std::vector<Status> errors(lines->size());
  for (size_t i = 0; i < lines->size(); ++i) {
    // Pipelines travel whole in the op field; plain lines tokenize so the
    // server's exact-name admin dispatch (ping, reload, ...) still works.
    std::string op = (*lines)[i].text;
    std::vector<std::string> qargs;
    if (op.find('|') == std::string::npos) {
      std::istringstream ts(op);
      std::vector<std::string> tokens;
      std::string tok;
      while (ts >> tok) tokens.push_back(tok);
      op = tokens[0];
      qargs.assign(tokens.begin() + 1, tokens.end());
    }
    Result<std::string> text = client->Query(op, qargs, graph, deadline_ms);
    if (text.ok()) {
      outputs[i] = std::move(*text);
    } else {
      errors[i] = text.status();
    }
  }
  return ReportBatch(*lines, outputs, errors);
}

/// Remote mode: `query --connect host:port <op> ...`. The server renders
/// the text, the client prints it verbatim — byte-identical to local mode.
int CmdQueryRemote(const std::string& endpoint,
                   const std::vector<std::string>& rest,
                   const std::string& graph, double deadline_ms,
                   const std::string& batch_path) {
  Result<service::ServiceClient> client =
      service::ServiceClient::Connect(endpoint);
  if (!client.ok()) return Fail(client.status().ToString());
  if (!batch_path.empty()) {
    return RunRemoteBatch(&*client, batch_path, graph, deadline_ms);
  }
  if (rest.empty()) return FailUsage();
  std::string op = rest[0];
  std::vector<std::string> qargs(rest.begin() + 1, rest.end());
  if (HasPipe(rest)) {
    // Whole pipeline in the op field, same as local mode.
    op = JoinTokens(rest);
    qargs.clear();
  }
  Result<std::string> text = client->Query(op, qargs, graph, deadline_ms);
  if (!text.ok()) {
    std::fprintf(stderr, "lipstick: %s\n",
                 service::ErrorLine(text.status()).c_str());
    return 1;
  }
  std::fputs(text->c_str(), stdout);
  return 0;
}

int CmdQuery(const std::vector<std::string>& args) {
  if (args.empty()) return FailUsage();
  std::vector<std::string> rest = args;

  // Global flags, accepted anywhere.
  int threads = 0;  // 0: --threads not given
  std::string out_path;
  std::string batch_path;
  std::string connect;     // --connect host:port = remote mode
  std::string graph_name;  // --graph: server-side graph selector
  double deadline_ms = 0;  // --deadline-ms: server-side query deadline
  for (size_t i = 0; i < rest.size();) {
    if (rest[i] == "--threads") {
      if (i + 1 >= rest.size()) return Fail("--threads needs a value");
      char* end = nullptr;
      long v = std::strtol(rest[i + 1].c_str(), &end, 10);
      if (end == rest[i + 1].c_str() || *end != '\0' || v < 1 || v > 256) {
        return Fail(StrCat("--threads: bad thread count '", rest[i + 1], "'"));
      }
      threads = static_cast<int>(v);
      rest.erase(rest.begin() + i, rest.begin() + i + 2);
    } else if (rest[i] == "--batch") {
      if (i + 1 >= rest.size()) return Fail("--batch needs a file");
      batch_path = rest[i + 1];
      rest.erase(rest.begin() + i, rest.begin() + i + 2);
    } else if (rest[i] == "--out") {
      if (i + 1 >= rest.size()) return Fail("--out needs a value");
      out_path = rest[i + 1];
      rest.erase(rest.begin() + i, rest.begin() + i + 2);
    } else if (rest[i] == "--connect") {
      if (i + 1 >= rest.size()) return Fail("--connect needs host:port");
      connect = rest[i + 1];
      rest.erase(rest.begin() + i, rest.begin() + i + 2);
    } else if (rest[i] == "--graph") {
      if (i + 1 >= rest.size()) return Fail("--graph needs a name");
      graph_name = rest[i + 1];
      rest.erase(rest.begin() + i, rest.begin() + i + 2);
    } else if (rest[i] == "--deadline-ms") {
      if (i + 1 >= rest.size()) return Fail("--deadline-ms needs a value");
      deadline_ms = std::atof(rest[i + 1].c_str());
      rest.erase(rest.begin() + i, rest.begin() + i + 2);
    } else {
      ++i;
    }
  }

  if (threads != 0 && batch_path.empty()) {
    return Fail("--threads applies only to --batch");
  }
  if (!connect.empty()) {
    if (!out_path.empty()) {
      return Fail("--out is not supported with --connect");
    }
    if (threads != 0) {
      return Fail("--threads is not supported with --connect");
    }
    return CmdQueryRemote(connect, rest, graph_name, deadline_ms, batch_path);
  }

  if (rest.empty()) return FailUsage();
  const std::string path = rest[0];
  rest.erase(rest.begin());

  // Reject unknown subcommands and unreadable paths before the loader
  // runs: one-line diagnostics, nonzero exit, no partial output.
  std::string op;
  bool pipeline = false;
  if (batch_path.empty()) {
    if (rest.empty()) return FailUsage();
    op = rest[0];
    rest.erase(rest.begin());
    // A `|` anywhere (quoted as one shell word or split across several)
    // folds the whole command line into one pipeline op; its stages are
    // validated by the plan parser after the graph loads.
    pipeline = op.find('|') != std::string::npos || HasPipe(rest);
    if (pipeline) {
      if (!rest.empty()) op = StrCat(op, " ", JoinTokens(rest));
      rest.clear();
    } else if (!KnownQueryOp(op)) {
      return Fail(StrCat("unknown query operation '", op, "'"));
    }
  }
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Fail(StrCat("cannot read graph file '", path, "'"));
  }

  Result<ProvenanceGraph> graph = LoadGraphFromFile(path);
  if (!graph.ok()) return Fail(graph.status().ToString());
  graph->Seal();

  Result<GraphSnapshot> snap = GraphSnapshot::Capture(*graph);
  if (!snap.ok()) return Fail(snap.status().ToString());

  if (!batch_path.empty()) {
    return RunBatch(*snap, batch_path, std::max(threads, 1));
  }
  if (op == "opm") {
    if (out_path.empty()) return Fail("opm requires --out <file>");
    std::ofstream xml(out_path);
    if (!xml.is_open()) {
      return Fail(StrCat("cannot open ", out_path, " for writing"));
    }
    Status st = WriteOpmXml(*snap, xml);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s (coarse-grained OPM view)\n", out_path.c_str());
    return 0;
  }
  if (op == "validate") {
    analysis::DiagnosticSink sink;
    analysis::ValidateGraph(*snap, &sink);
    return ReportDiagnostics(&sink, args[0], /*json=*/false);
  }
  if (op == "dot") {
    if (out_path.empty()) return Fail("dot requires --out <file>");
    std::ofstream dot(out_path);
    if (!dot.is_open()) {
      return Fail(StrCat("cannot open ", out_path, " for writing"));
    }
    Status st = WriteDot(GraphView::MakeIdentity(*snap), dot);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  }

  // Every other op is a read query, a single stage or a pipeline, and
  // prints what it prints on every other surface.
  Result<service::ParsedQuery> parsed = service::ParseQuery(op, rest);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  Result<std::string> text = service::ExecuteParsedQuery(*snap, *parsed, 1);
  if (!text.ok()) return Fail(text.status().ToString());
  std::fputs(text->c_str(), stdout);
  // --out saves the view a plan ending in a view stage leaves: a .pg path
  // gets the materialized graph, any other path dot. A terminal leaves no
  // graph to save, so --out is ignored there.
  const Plan& plan = parsed->optimized.plan;
  if (out_path.empty() || parsed->is_explain || plan.HasTerminal()) return 0;
  Result<GraphView> view = BuildPlanView(*snap, plan);
  if (!view.ok()) return Fail(view.status().ToString());
  Status st;
  if (EndsWith(out_path, ".pg")) {
    Result<ProvenanceGraph> materialized = view->Materialize();
    st = materialized.ok() ? SaveGraphToFile(*materialized, out_path)
                           : materialized.status();
  } else {
    st = WriteDotToFile(*view, out_path);
  }
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

/// `lipstick explain <graph.pg> <query...> [--json]`: parse + optimize the
/// query and print the plan with the cost model's predictions, without
/// executing it. Sugar for `query <graph.pg> explain ...`.
int CmdExplain(const std::vector<std::string>& args) {
  if (args.size() < 2) return FailUsage();
  const std::string path = args[0];
  std::vector<std::string> rest(args.begin() + 1, args.end());
  // `--json` rides as an arg token; the query itself folds into the op
  // string so quoted pipelines re-tokenize in the plan parser.
  std::vector<std::string> qargs;
  if (!rest.empty() && rest.back() == "--json") {
    qargs.push_back("--json");
    rest.pop_back();
  }
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Fail(StrCat("cannot read graph file '", path, "'"));
  }
  Result<ProvenanceGraph> graph = LoadGraphFromFile(path);
  if (!graph.ok()) return Fail(graph.status().ToString());
  graph->Seal();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(*graph);
  if (!snap.ok()) return Fail(snap.status().ToString());
  Result<std::string> text = service::ExecuteReadQuery(
      *snap, StrCat("explain ", JoinTokens(rest)), qargs, /*threads=*/1);
  if (!text.ok()) return Fail(text.status().ToString());
  std::fputs(text->c_str(), stdout);
  return 0;
}

// ---------------------------------------------------------------------
// serve: the long-lived multi-client provenance query daemon.
// ---------------------------------------------------------------------

/// Self-pipe for async-signal-safe shutdown: the handler only write()s a
/// byte; the main thread blocks on the read end and runs the drain.
int g_signal_pipe[2] = {-1, -1};

extern "C" void HandleStopSignal(int /*signum*/) {
  char byte = 0;
  // Best-effort: a full pipe means a stop is already pending.
  [[maybe_unused]] ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

int CmdServe(const std::vector<std::string>& args) {
  if (args.empty()) return FailUsage();
  service::ServerOptions options;
  std::vector<std::pair<std::string, std::string>> specs;  // name, path
  for (size_t i = 0; i < args.size(); ++i) {
    auto need_value = [&](const char* flag) -> Result<std::string> {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument(StrCat(flag, " needs a value"));
      }
      return args[++i];
    };
    if (args[i] == "--host") {
      auto v = need_value("--host");
      if (!v.ok()) return Fail(v.status().ToString());
      options.host = *v;
    } else if (args[i] == "--port") {
      auto v = need_value("--port");
      if (!v.ok()) return Fail(v.status().ToString());
      options.port = std::atoi(v->c_str());
    } else if (args[i] == "--workers") {
      auto v = need_value("--workers");
      if (!v.ok()) return Fail(v.status().ToString());
      options.workers = std::atoi(v->c_str());
    } else if (args[i] == "--queue-depth") {
      auto v = need_value("--queue-depth");
      if (!v.ok()) return Fail(v.status().ToString());
      options.queue_depth = static_cast<size_t>(std::atoi(v->c_str()));
    } else if (args[i] == "--deadline-ms") {
      auto v = need_value("--deadline-ms");
      if (!v.ok()) return Fail(v.status().ToString());
      options.default_deadline_ms = std::atof(v->c_str());
    } else if (args[i] == "--cache") {
      auto v = need_value("--cache");
      if (!v.ok()) return Fail(v.status().ToString());
      options.cache_entries = static_cast<size_t>(std::atoi(v->c_str()));
    } else if (!args[i].empty() && args[i][0] == '-') {
      return Fail(StrCat("unknown serve flag '", args[i], "'"));
    } else {
      // Graph spec: "name=path" or bare "path" (name = file stem).
      size_t eq = args[i].find('=');
      if (eq != std::string::npos) {
        specs.emplace_back(args[i].substr(0, eq), args[i].substr(eq + 1));
      } else {
        specs.emplace_back(
            std::filesystem::path(args[i]).stem().string(), args[i]);
      }
    }
  }
  if (specs.empty()) return Fail("serve needs at least one graph file");

  // The daemon runs with metrics armed: the whole point of `metricz` and
  // the latency histograms is observing a live server.
  obs::MetricsRegistry::Global().Enable();

  service::GraphRegistry registry;
  for (const auto& [name, path] : specs) {
    Status st = registry.LoadFile(name, path);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("serve: loaded graph '%s' from %s\n", name.c_str(),
                path.c_str());
  }

  service::Server server(&registry, options);
  Status st = server.Start();
  if (!st.ok()) return Fail(st.ToString());

  if (pipe(g_signal_pipe) != 0) return Fail("cannot create signal pipe");
  struct sigaction sa = {};
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  // The integration harness waits for this exact line (and parses the
  // port out of it when --port 0 asked for an ephemeral one).
  std::printf("serve: listening on %s:%d\n", server.host().c_str(),
              server.port());
  std::fflush(stdout);

  char byte;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("serve: draining...\n");
  std::fflush(stdout);
  server.Shutdown();
  service::Server::StatsSnapshot stats = server.Stats();
  std::printf("serve: drained, exiting (%llu connection(s), %llu "
              "request(s), %llu overloaded)\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.overloaded));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Whole-binary fault injection (LIPSTICK_FAULTS), for exercising the
  // failure paths from the command line; no-op when unset.
  Status faults = FaultInjector::Global().ArmFromEnv();
  if (!faults.ok()) return Fail(faults.ToString());
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return FailUsage();
  const std::string& cmd = args[0];
  std::vector<std::string> rest(args.begin() + 1, args.end());
  if (cmd == "lint") return CmdLint(rest);
  if (cmd == "analyze") return CmdAnalyze(rest);
  if (cmd == "validate" && rest.size() == 1) return CmdValidate(rest[0]);
  if (cmd == "run") return CmdRun(rest);
  if (cmd == "recover") return CmdRecover(rest);
  if (cmd == "query") return CmdQuery(rest);
  if (cmd == "explain") return CmdExplain(rest);
  if (cmd == "serve") return CmdServe(rest);
  return FailUsage();
}
