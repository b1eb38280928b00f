#ifndef LIPSTICK_WORKFLOW_EXECUTOR_H_
#define LIPSTICK_WORKFLOW_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "provenance/graph.h"
#include "workflow/workflow.h"

namespace lipstick {

class Wal;

/// External input for one execution: node id -> input relation name -> bag.
/// Only nodes in In (no incoming edges) may receive external input.
using WorkflowInputs = std::map<std::string, std::map<std::string, Bag>>;

/// Results of one execution: node id -> output relation name -> relation.
/// Contains every node's outputs; callers typically read the Out nodes.
using WorkflowOutputs = std::map<std::string, std::map<std::string, Relation>>;

/// What the executor does with the rest of the workflow when a node fails
/// (after exhausting its retry budget).
enum class FailurePolicy : uint8_t {
  /// Abort the execution and roll everything back: module state, the
  /// execution counter, and all provenance recorded by this execution are
  /// restored to their pre-Execute values. Execute returns the node's
  /// error. This is the default and matches transactional semantics.
  kFailFast,
  /// Skip the failed node's transitive successors (recorded as skipped in
  /// the report); independent branches still run, produce outputs, and
  /// record provenance. Execute returns OK with partial outputs.
  kSkipDownstream,
  /// Keep executing every node; successors of a failed node simply see no
  /// tuples on the dead in-edges. Execute returns OK with partial outputs.
  kBestEffort,
};

const char* FailurePolicyToString(FailurePolicy policy);

/// Per-node retry budget with exponential backoff. Jitter is drawn from a
/// deterministic splitmix64 stream seeded by (seed, node id, execution), so
/// retry schedules are reproducible bit-for-bit.
struct RetryPolicy {
  int max_attempts = 1;            // total attempts (1 = no retry)
  double initial_backoff_ms = 0;   // wait before the 2nd attempt
  double backoff_multiplier = 2.0; // growth factor per further attempt
  double max_backoff_ms = 1000;    // backoff ceiling
  double jitter = 0;               // +/- fraction of the backoff (0..1)
  uint64_t seed = 0x11b57c4u;      // seeds the jitter stream
};

/// Tuning knobs for one Execute() call. The defaults reproduce strict
/// reference semantics: one attempt per node, no timeout, fail fast with
/// full rollback.
struct ExecutionOptions {
  RetryPolicy retry;
  /// Per-attempt wall-clock budget in seconds (<= 0: unlimited). The
  /// budget is cooperative: the Pig interpreter checks it between
  /// statements, so a single long-running statement is not preempted.
  double node_timeout_seconds = 0;
  FailurePolicy failure_policy = FailurePolicy::kFailFast;
  /// Crash durability (provenance/wal.h). When set — and attached to the
  /// graph passed to Execute — the executor marks invocation commits after
  /// each successful node, a savepoint after each committed execution, and
  /// lets the log checkpoint itself per its WalOptions. Null: no logging.
  /// The Wal must outlive the Execute call; WAL errors degrade durability
  /// but never fail the execution (see Wal::status()).
  Wal* durability = nullptr;
};

/// Outcome of one node within one Execute() call.
struct NodeReport {
  int attempts = 0;          // invocation attempts made (0 if skipped)
  Status status;             // final status of the last attempt
  double elapsed_seconds = 0;// wall-clock across all attempts (inc. backoff)
  double queue_wait_seconds = 0;  // ready-to-dispatch wait (parallel path)
  bool skipped = false;      // true: never attempted (kSkipDownstream)
  std::string skipped_because_of;  // failed ancestor that caused the skip
  /// Graph invocation of the committed attempt (kNoInvocation when
  /// tracking is off or no attempt committed).
  uint32_t invocation = kNoInvocation;
  /// Rows of every relation bound when the committed attempt's Qout
  /// finished: inputs, state, intermediates and outputs (empty when no
  /// attempt committed).
  std::map<std::string, size_t> relation_rows;
};

/// Outcome of one Execute() call, node by node.
struct ExecutionReport {
  uint32_t execution = 0;    // sequence index this report describes
  double total_seconds = 0;  // wall-clock for the whole Execute() call
  std::map<std::string, NodeReport> nodes;

  bool all_ok() const {
    for (const auto& [id, r] : nodes) {
      if (r.skipped || !r.status.ok()) return false;
    }
    return true;
  }
  size_t failed_count() const {
    size_t n = 0;
    for (const auto& [id, r] : nodes) {
      if (!r.skipped && !r.status.ok()) ++n;
    }
    return n;
  }
  size_t skipped_count() const {
    size_t n = 0;
    for (const auto& [id, r] : nodes) n += r.skipped ? 1 : 0;
    return n;
  }
};

/// Executes a workflow according to the reference semantics of
/// Definition 2.3: nodes run in a fixed topological order; each invocation
/// runs Qstate then Qout on the module's current input and state, producing
/// new state (threaded to later invocations of the same module identity,
/// within this execution and across the execution sequence) and outputs
/// that are copied along the out-edges.
///
/// When a ProvenanceGraph is supplied to Execute, the executor records
/// fine-grained provenance: workflow-input "I" tokens, per-invocation "m"
/// nodes, "i"/"o" wrapper nodes for module inputs/outputs, lazily-created
/// "s" nodes for state tuples that contribute to derivations, and all
/// intermediate operator structure via the Pig interpreter.
///
/// Failure semantics: Execute is transactional. Module state and the
/// execution counter are committed only when the execution completes under
/// its FailurePolicy; a kFailFast abort leaves GetState(), executions_run()
/// and the provenance graph exactly as they were before the call. Failed
/// invocation attempts (including retried ones) always discard their
/// provenance — the merged graph never contains structure from an attempt
/// that did not commit, so it always seals cleanly.
///
/// With num_workers > 1, independent nodes execute concurrently on a
/// thread pool; each worker appends provenance to its own graph shard, so
/// tracking is lock-free on the hot path. Nodes that share a module
/// instance must be ordered by the DAG (enforced by Initialize).
class WorkflowExecutor {
 public:
  WorkflowExecutor(const Workflow* workflow, const pig::UdfRegistry* udfs)
      : workflow_(workflow), udfs_(udfs) {}

  /// Validates the workflow and prepares execution. Must be called before
  /// Execute / SetInitialState.
  Status Initialize();

  /// Installs the initial state instance of one module identity.
  Status SetInitialState(const std::string& instance,
                         const std::string& relation, Bag bag);

  /// Runs one execution of the sequence with the executor's default
  /// options (see set_default_options). `graph` may be null (tracking
  /// off); `num_workers` > 1 enables the parallel executor.
  Result<WorkflowOutputs> Execute(const WorkflowInputs& inputs,
                                  ProvenanceGraph* graph,
                                  int num_workers = 1);

  /// Runs one execution with explicit fault-tolerance options. If `report`
  /// is non-null it is filled with per-node outcomes — also when the
  /// execution fails, so callers can see which node failed, how many
  /// attempts it made, and what was skipped because of it.
  Result<WorkflowOutputs> Execute(const WorkflowInputs& inputs,
                                  ProvenanceGraph* graph,
                                  const ExecutionOptions& options,
                                  ExecutionReport* report = nullptr,
                                  int num_workers = 1);

  /// Current state instance of a module identity (empty relation if the
  /// identity never executed and no initial state was set).
  Result<const Relation*> GetState(const std::string& instance,
                                   const std::string& relation) const;

  /// Number of committed executions so far (the sequence index). Aborted
  /// executions do not advance it.
  uint32_t executions_run() const { return execution_count_; }

  /// Wall-clock seconds spent in each node during the most recent
  /// Execute() call. Used by the parallelism benchmark to replay the
  /// execution on a simulated cluster.
  const std::map<std::string, double>& last_node_times() const {
    return last_node_times_;
  }

  /// Options used by the short Execute overload. Lets owners of an
  /// executor (e.g. the workflowgen drivers, whose Run loops call the
  /// short overload internally) opt whole execution sequences into
  /// durability or fault-tolerance settings without changing call sites.
  void set_default_options(const ExecutionOptions& options) {
    default_options_ = options;
  }
  const ExecutionOptions& default_options() const { return default_options_; }

  /// Ablation switch: when true, every state tuple of every invocation
  /// receives an "s" node up front (the literal construction of Section
  /// 3.2). Default false: "s" nodes are created lazily, only for state
  /// tuples that contribute to a derivation — same query semantics, far
  /// smaller graphs (see bench_ablation_state_nodes).
  void set_eager_state_nodes(bool eager) { eager_state_nodes_ = eager; }

 private:
  struct NodeRun;    // per-node execution task, defined in the .cc
  struct ExecState;  // per-Execute bookkeeping, defined in the .cc

  /// Runs all attempts of one node, filling `report_entry`. Returns the
  /// final status; on failure the node's state mutations and provenance
  /// are already rolled back.
  Status RunNodeWithRetries(const std::string& node_id, ExecState* exec,
                            ShardWriter* writer, NodeReport* report_entry);

  const Workflow* workflow_;
  const pig::UdfRegistry* udfs_;
  std::vector<std::string> topo_order_;
  // Module identity -> state relation name -> current instance.
  std::map<std::string, std::map<std::string, Relation>> state_;
  std::map<std::string, double> last_node_times_;
  ExecutionOptions default_options_;
  uint32_t execution_count_ = 0;
  bool initialized_ = false;
  bool eager_state_nodes_ = false;
};

}  // namespace lipstick

#endif  // LIPSTICK_WORKFLOW_EXECUTOR_H_
