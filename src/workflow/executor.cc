#include "workflow/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>

#include "analysis/graph_validator.h"
#include "common/fault.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pig/interpreter.h"
#include "provenance/wal.h"

namespace lipstick {

namespace {

/// Metric ids for the executor's instrumentation hooks, registered once.
/// Recording is a no-op (one relaxed load) until obs is enabled.
struct ExecutorMetrics {
  obs::MetricId executions;     // committed + aborted Execute() calls
  obs::MetricId nodes_run;      // node invocations that produced a result
  obs::MetricId node_failures;  // nodes whose final attempt failed
  obs::MetricId retries;        // attempts beyond the first, across nodes
  obs::MetricId node_us;        // per-node wall time (all attempts)
  obs::MetricId queue_wait_us;  // ready-to-dispatch wait (parallel path)
  obs::MetricId prov_nodes;     // provenance nodes appended by node runs
  obs::MetricId shard_nodes;    // appended nodes per shard per execution

  static const ExecutorMetrics& Get() {
    static const ExecutorMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return ExecutorMetrics{
          r.RegisterCounter("executor.executions"),
          r.RegisterCounter("executor.nodes_run"),
          r.RegisterCounter("executor.node_failures"),
          r.RegisterCounter("executor.retries"),
          r.RegisterHistogram("executor.node_us"),
          r.RegisterHistogram("executor.queue_wait_us"),
          r.RegisterCounter("provenance.nodes_appended"),
          r.RegisterHistogram("executor.shard_nodes"),
      };
    }();
    return m;
  }
};

/// Steady-clock seconds, for queue-wait bookkeeping across threads.
double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Checks that nodes sharing a module instance are totally ordered by the
/// DAG, so state threading is deterministic and parallel execution safe.
Status CheckInstanceOrdering(const Workflow& wf) {
  // Reachability via DFS from each node (workflows are small).
  std::map<std::string, std::set<std::string>> reach;
  Result<std::vector<std::string>> topo = wf.TopologicalOrder();
  LIPSTICK_RETURN_IF_ERROR(topo.status());
  for (auto it = topo.value().rbegin(); it != topo.value().rend(); ++it) {
    std::set<std::string>& r = reach[*it];
    for (const WorkflowEdge* e : wf.OutgoingEdges(*it)) {
      r.insert(e->to);
      const std::set<std::string>& down = reach[e->to];
      r.insert(down.begin(), down.end());
    }
  }
  for (size_t i = 0; i < wf.nodes().size(); ++i) {
    for (size_t j = i + 1; j < wf.nodes().size(); ++j) {
      const WorkflowNode& a = wf.nodes()[i];
      const WorkflowNode& b = wf.nodes()[j];
      if (a.instance != b.instance) continue;
      if (!reach[a.id].count(b.id) && !reach[b.id].count(a.id)) {
        return Status::InvalidArgument(
            StrCat("nodes '", a.id, "' and '", b.id,
                   "' share instance '", a.instance,
                   "' but are not ordered by the DAG"));
      }
    }
  }
  return Status::OK();
}

/// Collects the input bags `node_id` receives over its in-edges, unioning
/// bags when several edges feed the same input relation. Edges from nodes
/// that produced no outputs (failed / skipped upstream under a lenient
/// failure policy) contribute nothing.
std::map<std::string, Bag> GatherEdgeInputs(const Workflow& wf,
                                            const std::string& node_id,
                                            const WorkflowOutputs& outputs) {
  std::map<std::string, Bag> in;
  for (const WorkflowEdge* e : wf.IncomingEdges(node_id)) {
    auto from_it = outputs.find(e->from);
    if (from_it == outputs.end()) continue;
    for (const EdgeRelation& rel : e->relations) {
      auto rel_it = from_it->second.find(rel.from_relation);
      if (rel_it == from_it->second.end()) continue;
      Bag& dst = in[rel.to_relation];
      for (const AnnotatedTuple& t : rel_it->second.bag) dst.Add(t);
    }
  }
  return in;
}

/// Backoff before attempt `attempt + 1` (1-based `attempt` just failed):
/// initial * multiplier^(attempt-1), capped, with symmetric jitter drawn
/// from the caller's deterministic stream.
double NextBackoffMs(const RetryPolicy& retry, int attempt, Rng* rng) {
  double backoff = retry.initial_backoff_ms;
  for (int i = 1; i < attempt; ++i) backoff *= retry.backoff_multiplier;
  backoff = std::min(backoff, retry.max_backoff_ms);
  if (retry.jitter > 0 && backoff > 0) {
    backoff *= 1.0 - retry.jitter + 2.0 * retry.jitter * rng->UniformDouble();
  }
  return backoff;
}

}  // namespace

const char* FailurePolicyToString(FailurePolicy policy) {
  switch (policy) {
    case FailurePolicy::kFailFast:
      return "fail-fast";
    case FailurePolicy::kSkipDownstream:
      return "skip-downstream";
    case FailurePolicy::kBestEffort:
      return "best-effort";
  }
  return "unknown";
}

Status WorkflowExecutor::Initialize() {
  LIPSTICK_RETURN_IF_ERROR(workflow_->Validate(udfs_));
  LIPSTICK_RETURN_IF_ERROR(CheckInstanceOrdering(*workflow_));
  LIPSTICK_ASSIGN_OR_RETURN(topo_order_, workflow_->TopologicalOrder());
  // Materialize a state map for every module identity (even stateless ones,
  // so Execute never inserts into state_ from worker threads) and empty
  // state instances for every state relation.
  for (const WorkflowNode& n : workflow_->nodes()) {
    auto& inst_state = state_[n.instance];
    LIPSTICK_ASSIGN_OR_RETURN(const ModuleSpec* spec,
                              workflow_->FindModule(n.module));
    for (const auto& [rel_name, schema] : spec->state_schemas) {
      auto& rel = inst_state[rel_name];
      if (rel.schema == nullptr) rel = Relation(rel_name, schema);
    }
  }
  initialized_ = true;
  return Status::OK();
}

Status WorkflowExecutor::SetInitialState(const std::string& instance,
                                         const std::string& relation,
                                         Bag bag) {
  if (!initialized_) return Status::Internal("Initialize() not called");
  auto inst_it = state_.find(instance);
  if (inst_it == state_.end()) {
    return Status::NotFound(StrCat("unknown module instance '", instance,
                                   "'"));
  }
  auto rel_it = inst_it->second.find(relation);
  if (rel_it == inst_it->second.end()) {
    return Status::NotFound(StrCat("instance '", instance,
                                   "' has no state relation '", relation,
                                   "'"));
  }
  rel_it->second.bag = std::move(bag);
  return Status::OK();
}

Result<const Relation*> WorkflowExecutor::GetState(
    const std::string& instance, const std::string& relation) const {
  auto inst_it = state_.find(instance);
  if (inst_it == state_.end()) {
    return Status::NotFound(StrCat("unknown module instance '", instance,
                                   "'"));
  }
  auto rel_it = inst_it->second.find(relation);
  if (rel_it == inst_it->second.end()) {
    return Status::NotFound(StrCat("instance '", instance,
                                   "' has no state relation '", relation,
                                   "'"));
  }
  return &rel_it->second;
}

/// Executes one node (one module invocation). Not a member to keep the
/// threading interface narrow: everything it touches is passed explicitly.
struct WorkflowExecutor::NodeRun {
  const Workflow* workflow;
  const pig::UdfRegistry* udfs;
  const WorkflowNode* node;
  const ModuleSpec* spec;
  const WorkflowInputs* external_inputs;
  // Module-identity state (owned by the executor; exclusive access is
  // guaranteed by DAG ordering of same-instance nodes).
  std::map<std::string, Relation>* state;
  uint32_t execution = 0;
  ShardWriter* writer = nullptr;  // null -> no tracking
  bool eager_state_nodes = false;
  const Deadline* deadline = nullptr;  // per-attempt budget; may be null
  // Invocation registered by the last Run() call, so a failed attempt's
  // record can be aborted (kNoInvocation when tracking is off).
  uint32_t last_invocation = kNoInvocation;
  // Rows per bound relation once Qout finished (NodeReport::relation_rows).
  std::map<std::string, size_t> relation_rows = {};

  Result<std::map<std::string, Relation>> Run(
      const std::map<std::string, Bag>& edge_inputs) {
    uint32_t inv = kNoInvocation;
    if (writer != nullptr) {
      inv = writer->BeginInvocation(spec->name, node->instance, execution);
      writer->set_current_invocation(inv);
    }
    last_invocation = inv;

    pig::Environment env;
    bool is_input_node = workflow->IncomingEdges(node->id).empty();

    // Bind input relations. Input-node tuples get workflow-input "I"
    // tokens; all input tuples are wrapped with "i" nodes ·(tuple, m).
    for (const auto& [rel_name, schema] : spec->input_schemas) {
      Bag bag;
      const Bag* source = nullptr;
      if (is_input_node) {
        auto node_it = external_inputs->find(node->id);
        if (node_it != external_inputs->end()) {
          auto rel_it = node_it->second.find(rel_name);
          if (rel_it != node_it->second.end()) source = &rel_it->second;
        }
      } else {
        auto it = edge_inputs.find(rel_name);
        if (it != edge_inputs.end()) source = &it->second;
      }
      if (source != nullptr) {
        bag.Reserve(source->size());
        size_t i = 0;
        for (const AnnotatedTuple& t : *source) {
          ProvAnnotation annot = t.annot;
          if (writer != nullptr) {
            NodeId base = annot;
            if (is_input_node || base == kNoProvenance) {
              base = writer->WorkflowInput(StrCat(
                  "I", execution, ".", node->id, ".", rel_name, "[", i, "]"));
            }
            annot = writer->ModuleInput(inv, base);
          }
          bag.Add(t.tuple, annot);
          ++i;
        }
      }
      env.Bind(rel_name, Relation(rel_name, schema, std::move(bag)));
    }

    // Move the state relations into the environment with their stored
    // annotations; tuples that have never been annotated get a one-time
    // base token, in place, so it persists. "s" nodes are created lazily
    // (only for tuples that contribute to derivations). The bags come back
    // after a successful run; a failed one leaves them moved-from, and the
    // caller restores the instance from its attempt copy or first-touch
    // snapshot (DESIGN.md §5a).
    std::vector<NodeId> state_tuples;
    std::string name;              // "<instance>.<rel>[<i>]", reused
    std::vector<StrId> payloads;   // one relation's new token names
    if (writer != nullptr) {
      size_t count = 0;
      for (const auto& entry : *state) count += entry.second.bag.size();
      state_tuples.reserve(count);
    }
    for (auto& [rel_name, rel] : *state) {
      if (writer != nullptr) {
        // Base tokens in bulk, per relation: the names are interned first,
        // in tuple order (a WAL packs them into one string run), then
        // appended as one run of tokens, so the strings and nodes get the
        // ids tokenizing tuple by tuple gives.
        std::vector<AnnotatedTuple>& tuples = rel.bag.mutable_tuples();
        payloads.clear();
        size_t prefix = 0;  // of `name`, once the first token needs it
        for (size_t i = 0; i < tuples.size(); ++i) {
          if (tuples[i].annot != kNoProvenance) continue;
          if (prefix == 0) {
            name = StrCat(node->instance, ".", rel_name, "[");
            prefix = name.size();
          }
          name.resize(prefix);
          name += StrCat(i, "]");
          payloads.push_back(writer->Intern(name));
        }
        NodeId token = payloads.empty()
                           ? kInvalidNode
                           : writer->Tokens(payloads, NodeRole::kStateBase);
        for (AnnotatedTuple& t : tuples) {
          if (t.annot == kNoProvenance) t.annot = token++;
          state_tuples.push_back(t.annot);
        }
      }
      env.Bind(rel_name, Relation(rel.name, rel.schema, std::move(rel.bag)));
    }
    if (writer != nullptr) {
      writer->BeginStateScope(inv, state_tuples);
      if (eager_state_nodes) {
        // Literal Section 3.2 construction: an "s" node per state tuple
        // per invocation, whether or not the tuple is ever used, in
        // state-tuple order.
        for (NodeId base : state_tuples) writer->ResolveParent(base);
      }
    }

    // Qstate then Qout; Qout sees the post-Qstate bindings.
    pig::Interpreter interp(udfs);
    Status status = interp.Run(spec->qstate, &env, writer, deadline);
    if (status.ok()) status = interp.Run(spec->qout, &env, writer, deadline);
    if (writer != nullptr) writer->EndStateScope();
    if (!status.ok()) {
      return status.WithContext(
          StrCat("node ", node->id, " (module ", spec->name, ", execution ",
                 execution, ")"));
    }
    for (const auto& [rel_name, rel] : env.relations()) {
      relation_rows.emplace_hint(relation_rows.end(), rel_name, rel.bag.size());
    }

    // Collect outputs, wrapping each tuple with an "o" node ·(tuple, m).
    std::map<std::string, Relation> outputs;
    for (const auto& [rel_name, schema] : spec->output_schemas) {
      Result<const Relation*> bound = env.Lookup(rel_name);
      if (!bound.ok()) {
        return Status::ExecutionError(
            StrCat("node ", node->id, ": Qout did not bind output '",
                   rel_name, "'"));
      }
      Relation out(rel_name, schema);
      out.bag.Reserve(bound.value()->bag.size());
      for (const AnnotatedTuple& t : bound.value()->bag) {
        ProvAnnotation annot = t.annot;
        if (writer != nullptr) {
          annot = writer->ModuleOutput(inv, annot);
        }
        out.bag.Add(t.tuple, annot);
      }
      outputs.emplace(rel_name, std::move(out));
    }

    // Move the new state back (annotations carried through). Outputs are
    // collected first: an output may read a state relation's bag.
    for (auto& [rel_name, rel] : *state) {
      if (Relation* bound = env.MutableLookup(rel_name)) {
        rel.bag = std::move(bound->bag);
      }
    }
    return outputs;
  }
};

/// Per-Execute bookkeeping shared between the scheduler and node runs.
struct WorkflowExecutor::ExecState {
  const WorkflowInputs* inputs = nullptr;
  ProvenanceGraph* graph = nullptr;
  const ExecutionOptions* options = nullptr;
  // Write-ahead log to mark invocation commits on, or null. Only set when
  // options->durability is attached to `graph` — logging commit records
  // against a log tracking a different graph would corrupt its history.
  Wal* wal = nullptr;
  uint32_t execution = 0;
  // Span id of the surrounding Execute() span, so worker-thread node spans
  // parent under it even though they run on different threads (0 when the
  // tracer is disarmed).
  uint64_t exec_span = 0;
  WorkflowOutputs outputs;
  // First-touch snapshots of module-instance state, keyed by instance:
  // taken before the first node of an instance runs, used to restore the
  // pre-execution state on a kFailFast abort.
  std::map<std::string, std::map<std::string, Relation>> snapshots;
  std::mutex mu;  // guards outputs, snapshots, last_node_times_
};

Status WorkflowExecutor::RunNodeWithRetries(const std::string& node_id,
                                            ExecState* exec,
                                            ShardWriter* writer,
                                            NodeReport* report_entry) {
  WallTimer timer;
  const WorkflowNode* node = workflow_->FindNode(node_id).value();
  LIPSTICK_ASSIGN_OR_RETURN(const ModuleSpec* spec,
                            workflow_->FindModule(node->module));
  std::map<std::string, Relation>* state = &state_.find(node->instance)->second;

  // Per-node (module invocation) span, explicitly parented under the
  // Execute() span because workers run on their own threads.
  obs::ObsSpan node_span("executor.node", node_id, exec->exec_span);
  if (node_span.active()) {
    node_span.Arg("module", spec->name);
    node_span.Arg("instance", node->instance);
    node_span.Arg("execution", static_cast<uint64_t>(exec->execution));
    if (report_entry->queue_wait_seconds > 0) {
      node_span.Arg("queue_wait_us", report_entry->queue_wait_seconds * 1e6);
    }
  }
  size_t prov_appended = 0;

  std::map<std::string, Bag> edge_inputs;
  {
    std::lock_guard<std::mutex> lock(exec->mu);
    // Copies nothing if an earlier node of this instance already
    // snapshotted it (first touch wins — that is the pre-execution state).
    exec->snapshots.try_emplace(node->instance, *state);
    edge_inputs = GatherEdgeInputs(*workflow_, node_id, exec->outputs);
  }

  const ExecutionOptions& options = *exec->options;
  const int max_attempts = std::max(1, options.retry.max_attempts);
  Rng jitter_rng(options.retry.seed ^
                 std::hash<std::string>{}(node_id) * 0x9e3779b97f4a7c15ull ^
                 exec->execution);

  // With no retries and fail-fast semantics, a failed attempt is followed
  // by a whole-execution rollback, which restores this instance from its
  // snapshot anyway — skip the redundant per-attempt copy on that (default)
  // path so transactional semantics stay free of extra state copies.
  const bool need_attempt_rollback =
      max_attempts > 1 ||
      options.failure_policy != FailurePolicy::kFailFast;

  Status st;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    report_entry->attempts = attempt;
    // Per-attempt rollback marks: the instance state as of this attempt,
    // and the extent of this task's own graph shard.
    std::map<std::string, Relation> state_copy;
    if (need_attempt_rollback) state_copy = *state;
    size_t shard_mark =
        writer != nullptr ? exec->graph->ShardSize(writer->shard()) : 0;

    Deadline deadline(options.node_timeout_seconds);
    NodeRun run{workflow_,       udfs_,  node,   spec,
                exec->inputs,    state,  exec->execution,
                writer,          eager_state_nodes_, &deadline};

    // Retry-attempt span; nests under the node span via thread-local
    // scoping (same thread).
    obs::ObsSpan attempt_span("executor.attempt", node_id);
    attempt_span.Arg("attempt", static_cast<uint64_t>(attempt));

    st = FaultInjector::Fire("executor.node", node_id);
    std::map<std::string, Relation> node_outputs;
    if (st.ok()) {
      Result<std::map<std::string, Relation>> result = run.Run(edge_inputs);
      if (!result.ok()) {
        st = result.status();
      } else if (deadline.Expired()) {
        st = Status::DeadlineExceeded(
            StrCat("node ", node_id, " exceeded its ",
                   options.node_timeout_seconds, "s budget (ran ",
                   deadline.elapsed_seconds(), "s)"));
      } else {
        node_outputs = std::move(result).value();
      }
    }
    attempt_span.Arg("ok", st.ok() ? std::string_view("true")
                                   : std::string_view("false"));
    attempt_span.End();

    if (st.ok()) {
      if (writer != nullptr) {
        prov_appended = exec->graph->ShardSize(writer->shard()) - shard_mark;
      }
      // Commit boundary: every record of this invocation is in the log
      // (hooks fire synchronously from the appending thread), so the
      // commit record makes it replayable as a unit.
      if (exec->wal != nullptr && run.last_invocation != kNoInvocation) {
        (void)exec->wal->CommitInvocation(run.last_invocation);
      }
      report_entry->invocation = run.last_invocation;
      report_entry->relation_rows = std::move(run.relation_rows);
      std::lock_guard<std::mutex> lock(exec->mu);
      exec->outputs.emplace(node_id, std::move(node_outputs));
      last_node_times_[node_id] = timer.ElapsedSeconds();
      break;
    }

    // The attempt failed (or timed out after producing outputs we must
    // discard): restore the instance state and discard the attempt's
    // provenance so nothing half-written survives into the merged graph.
    if (need_attempt_rollback) *state = std::move(state_copy);
    if (writer != nullptr) {
      exec->graph->KillShardTail(writer->shard(), shard_mark);
      if (run.last_invocation != kNoInvocation) {
        exec->graph->AbortInvocation(run.last_invocation);
      }
    }

    if (attempt < max_attempts) {
      double backoff_ms = NextBackoffMs(options.retry, attempt, &jitter_rng);
      if (backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
      }
    }
  }

  report_entry->status = st;
  report_entry->elapsed_seconds = timer.ElapsedSeconds();

  if (obs::MetricsRegistry::Enabled()) {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    const ExecutorMetrics& m = ExecutorMetrics::Get();
    metrics.CounterAdd(st.ok() ? m.nodes_run : m.node_failures);
    if (report_entry->attempts > 1) {
      metrics.CounterAdd(m.retries,
                         static_cast<uint64_t>(report_entry->attempts - 1));
    }
    metrics.Observe(m.node_us, report_entry->elapsed_seconds * 1e6);
    if (report_entry->queue_wait_seconds > 0) {
      metrics.Observe(m.queue_wait_us,
                      report_entry->queue_wait_seconds * 1e6);
    }
    if (prov_appended > 0) {
      metrics.CounterAdd(m.prov_nodes, prov_appended);
    }
  }
  if (node_span.active()) {
    node_span.Arg("attempts", static_cast<uint64_t>(report_entry->attempts));
    node_span.Arg("prov_nodes", static_cast<uint64_t>(prov_appended));
    node_span.Arg("ok", st.ok() ? std::string_view("true")
                                : std::string_view("false"));
  }
  return st;
}

Result<WorkflowOutputs> WorkflowExecutor::Execute(const WorkflowInputs& inputs,
                                                  ProvenanceGraph* graph,
                                                  int num_workers) {
  return Execute(inputs, graph, default_options_, nullptr, num_workers);
}

namespace {

/// Debug-build self-check, run after every committed execution: the graph
/// must satisfy the Section-3 structural invariants (analysis/
/// graph_validator.h) no matter which retry/rollback/parallel path built
/// it. Compiled out under NDEBUG — release builds pay nothing.
Status DebugValidateGraph(ProvenanceGraph* graph) {
#ifndef NDEBUG
  if (graph != nullptr) {
    graph->Seal();
    return analysis::CheckGraphInvariants(*graph);
  }
#else
  (void)graph;
#endif
  return Status::OK();
}

}  // namespace

Result<WorkflowOutputs> WorkflowExecutor::Execute(
    const WorkflowInputs& inputs, ProvenanceGraph* graph,
    const ExecutionOptions& options, ExecutionReport* report,
    int num_workers) {
  if (!initialized_) return Status::Internal("Initialize() not called");
  WallTimer total_timer;

  // Whole-execution span: worker-thread node spans parent under it via
  // ExecState::exec_span. Counter ticks for every call, committed or not.
  obs::ObsSpan execute_span("executor", "execute");
  obs::MetricsRegistry::Global().CounterAdd(ExecutorMetrics::Get().executions);
  if (execute_span.active()) {
    execute_span.Arg("execution", static_cast<uint64_t>(execution_count_));
    execute_span.Arg("workers", static_cast<int64_t>(num_workers));
    execute_span.Arg("policy", FailurePolicyToString(options.failure_policy));
    execute_span.Arg("tracking", graph != nullptr ? std::string_view("true")
                                                  : std::string_view("false"));
  }

  ExecState exec;
  exec.inputs = &inputs;
  exec.graph = graph;
  exec.options = &options;
  if (options.durability != nullptr && graph != nullptr &&
      options.durability->attached_graph() == graph) {
    exec.wal = options.durability;
  }
  exec.execution = execution_count_;
  exec.exec_span = execute_span.id();

  ExecutionReport local_report;
  if (report == nullptr) report = &local_report;
  report->nodes.clear();
  report->execution = exec.execution;
  report->total_seconds = 0;
  // Pre-create every node's entry so worker threads only ever write to
  // their own (already existing) map element.
  for (const WorkflowNode& n : workflow_->nodes()) report->nodes[n.id];

  // Whole-execution savepoint: on a kFailFast abort the graph is restored
  // to this extent and the touched instance states to their snapshots.
  ProvenanceGraph::Savepoint savepoint;
  if (graph != nullptr) savepoint = graph->TakeSavepoint();

  auto rollback_all = [&](const std::string& failed_node) {
    for (auto& [instance, snap] : exec.snapshots) {
      state_[instance] = std::move(snap);
    }
    if (graph != nullptr) graph->RollbackTo(savepoint);
    // Reporting: nodes that never got to run were implicitly skipped by
    // the abort.
    for (auto& [id, entry] : report->nodes) {
      if (entry.attempts == 0 && !entry.skipped) {
        entry.skipped = true;
        entry.skipped_because_of = failed_node;
        entry.status = Status::Aborted(
            StrCat("not run: execution aborted after node '", failed_node,
                   "' failed"));
      }
    }
    report->total_seconds = total_timer.ElapsedSeconds();
  };

  // Resolves whether `node_id` must be skipped under kSkipDownstream and
  // records the root cause (the failed ancestor, chased through skipped
  // intermediaries). Caller must hold whatever lock protects `dead`.
  auto resolve_skip = [&](const std::string& node_id,
                          const std::unordered_set<std::string>& dead,
                          NodeReport* entry) {
    if (options.failure_policy != FailurePolicy::kSkipDownstream) {
      return false;
    }
    for (const WorkflowEdge* e : workflow_->IncomingEdges(node_id)) {
      if (!dead.count(e->from)) continue;
      const NodeReport& up = report->nodes[e->from];
      entry->skipped = true;
      entry->skipped_because_of =
          up.skipped ? up.skipped_because_of : e->from;
      entry->status = Status::Aborted(
          StrCat("skipped: upstream node '", entry->skipped_because_of,
                 "' failed"));
      return true;
    }
    return false;
  };

  last_node_times_.clear();

  if (num_workers <= 1 || workflow_->nodes().size() <= 1) {
    ShardWriter writer = graph ? graph->writer() : ShardWriter(nullptr, 0);
    size_t serial_shard_base = graph != nullptr ? graph->ShardSize(0) : 0;
    std::unordered_set<std::string> dead;  // failed or skipped nodes
    for (const std::string& node_id : topo_order_) {
      NodeReport& entry = report->nodes[node_id];
      if (resolve_skip(node_id, dead, &entry)) {
        dead.insert(node_id);
        continue;
      }
      Status st = RunNodeWithRetries(node_id, &exec,
                                     graph ? &writer : nullptr, &entry);
      if (!st.ok()) {
        if (options.failure_policy == FailurePolicy::kFailFast) {
          rollback_all(node_id);
          return st;
        }
        dead.insert(node_id);
      }
    }
    ++execution_count_;
    // Durable execution boundary: everything this execution appended is in
    // the log before the savepoint that makes it recoverable.
    if (exec.wal != nullptr) {
      (void)exec.wal->MarkSavepoint(execution_count_);
      (void)exec.wal->MaybeCheckpoint();
    }
    report->total_seconds = total_timer.ElapsedSeconds();
    if (obs::MetricsRegistry::Enabled() && graph != nullptr) {
      obs::MetricsRegistry::Global().Observe(
          ExecutorMetrics::Get().shard_nodes,
          static_cast<double>(graph->ShardSize(0) - serial_shard_base));
    }
    LIPSTICK_RETURN_IF_ERROR(DebugValidateGraph(graph));
    return std::move(exec.outputs);
  }

  // Parallel path: dependency-counting scheduler over a worker pool. Each
  // worker owns a graph shard, so provenance appends never contend.
  std::map<std::string, size_t> pending;
  for (const WorkflowNode& n : workflow_->nodes()) {
    pending[n.id] = workflow_->IncomingEdges(n.id).size();
  }
  // Same-instance nodes must also run in topological sequence even without
  // a connecting edge; CheckInstanceOrdering guarantees an edge path
  // exists, so edge counting suffices.
  // Ready-queue enqueue timestamps, for the queue-wait metric (how long a
  // dispatchable node waited for a free worker). Guarded by `mu`.
  std::map<std::string, double> enqueued_at;
  std::deque<std::string> ready;
  for (const auto& [id, count] : pending) {
    if (count == 0) {
      enqueued_at[id] = NowSeconds();
      ready.push_back(id);
    }
  }

  std::vector<ShardWriter> writers;
  std::vector<size_t> shard_base;  // per-writer shard size before execution
  if (graph != nullptr) {
    writers.reserve(num_workers);
    for (int w = 0; w < num_workers; ++w) writers.push_back(graph->AddShard());
    shard_base.reserve(writers.size());
    for (const ShardWriter& w : writers) {
      shard_base.push_back(graph->ShardSize(w.shard()));
    }
  }

  std::mutex mu;
  std::condition_variable cv;
  size_t settled = 0;  // completed + failed + skipped nodes
  Status first_error;
  std::string first_failed_node;
  bool abort = false;  // kFailFast: a node failed, stop scheduling
  std::unordered_set<std::string> dead;

  // Under kFailFast a failed node does not release its successors, so
  // `settled` never reaches the node count — workers drain via `abort`.
  // Under the lenient policies every node settles exactly once (run,
  // failed, or skipped), releasing successors either way so the DAG
  // always drains. Caller must hold `mu`.
  auto settle = [&](const std::string& node_id) {
    ++settled;
    for (const WorkflowEdge* e : workflow_->OutgoingEdges(node_id)) {
      if (--pending[e->to] == 0) {
        enqueued_at[e->to] = NowSeconds();
        ready.push_back(e->to);
      }
    }
  };

  auto worker = [&](int worker_idx) {
    ShardWriter* writer = graph != nullptr ? &writers[worker_idx] : nullptr;
    while (true) {
      std::string node_id;
      NodeReport* entry = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return abort || !ready.empty() ||
                 settled == workflow_->nodes().size();
        });
        if (abort || settled == workflow_->nodes().size()) return;
        node_id = ready.front();
        ready.pop_front();
        entry = &report->nodes[node_id];
        auto enq = enqueued_at.find(node_id);
        if (enq != enqueued_at.end()) {
          entry->queue_wait_seconds = NowSeconds() - enq->second;
        }
        if (resolve_skip(node_id, dead, entry)) {
          dead.insert(node_id);
          settle(node_id);
          lock.unlock();
          cv.notify_all();
          continue;
        }
      }
      Status st = RunNodeWithRetries(node_id, &exec, writer, entry);
      {
        std::unique_lock<std::mutex> lock(mu);
        if (st.ok()) {
          settle(node_id);
        } else if (options.failure_policy == FailurePolicy::kFailFast) {
          if (!abort) {
            first_error = st;
            first_failed_node = node_id;
          }
          abort = true;
        } else {
          dead.insert(node_id);
          settle(node_id);
        }
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();

  if (abort) {
    rollback_all(first_failed_node);
    return first_error;
  }
  ++execution_count_;
  if (exec.wal != nullptr) {
    (void)exec.wal->MarkSavepoint(execution_count_);
    (void)exec.wal->MaybeCheckpoint();
  }
  report->total_seconds = total_timer.ElapsedSeconds();
  // Per-shard provenance append counts: how evenly the workers' shards
  // grew this execution (a skewed histogram means poor load balance).
  if (obs::MetricsRegistry::Enabled() && graph != nullptr) {
    for (size_t w = 0; w < writers.size(); ++w) {
      size_t grown = graph->ShardSize(writers[w].shard()) - shard_base[w];
      obs::MetricsRegistry::Global().Observe(
          ExecutorMetrics::Get().shard_nodes, static_cast<double>(grown));
    }
  }
  LIPSTICK_RETURN_IF_ERROR(DebugValidateGraph(graph));
  return std::move(exec.outputs);
}

}  // namespace lipstick
