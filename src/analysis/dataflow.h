#ifndef LIPSTICK_ANALYSIS_DATAFLOW_H_
#define LIPSTICK_ANALYSIS_DATAFLOW_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "common/result.h"
#include "common/source_loc.h"
#include "pig/udf.h"
#include "relational/value.h"
#include "workflow/workflow.h"

namespace lipstick::analysis {

/// Static dataflow analysis: forward abstract interpretation of Pig
/// programs and workflow DSL graphs, run to fixpoint over per-relation
/// facts (schema, nullability, uniqueness, cardinality intervals). The
/// facts feed three consumers:
///   - the provenance cost model (cost_model.h): predicted node / edge /
///     byte footprint per module invocation and for the whole workflow,
///   - a deletion-propagation safety pass classifying each workflow input
///     as safe (bounded transitive fan-out under the Section-3 graph
///     construction) or amplifying (unbounded fan-out: JOIN/CROSS/FLATTEN
///     consumption or cross-execution state accumulation),
///   - dataflow-powered diagnostics (codes D04xx below).
///
/// Two abstract domains share the same transfer functions:
///   - interval mode (no sample data): cardinalities are [lo, hi] ranges
///     with selectivity-based point estimates; sound over-approximations,
///   - concrete mode (sample inputs provided): the value domain — the
///     analyzer runs the real WorkflowExecutor against a scratch
///     provenance graph, so predicted counts are exact by construction
///     (the same reuse-the-engine trick AnalyzeProgram plays for
///     schemas). If that run fails, the facts stay interval bounds and
///     WorkflowFacts::notes says why.
///
/// Code range D04xx (see Diagnostic):
///   D0401  join/group key type mismatch across BY clauses
///   D0402  cross-product cardinality blowup (CROSS over unbounded inputs)
///   D0403  statically-empty relation consumed by a derivation
///   D0404  dead relation: bound but never reaching an output or state
///   D0405  input/state field pruned by a FOREACH without ever being read
///   D0406  statically-constant FILTER/SPLIT condition
///   D0407  comparison over mismatched scalar types
///   D0408  deletion-amplifying workflow input (note; see deletion facts)

/// Upper bound sentinel for an unbounded cardinality interval.
inline constexpr uint64_t kCardInf = std::numeric_limits<uint64_t>::max();

/// A [lo, hi] interval of row (or node/edge) counts. hi == kCardInf means
/// unbounded. Arithmetic saturates at kCardInf.
struct CardInterval {
  uint64_t lo = 0;
  uint64_t hi = kCardInf;

  static CardInterval Exact(uint64_t n) { return {n, n}; }
  static CardInterval Range(uint64_t lo, uint64_t hi) { return {lo, hi}; }
  static CardInterval Zero() { return {0, 0}; }
  static CardInterval Unknown() { return {0, kCardInf}; }

  bool exact() const { return lo == hi; }
  bool Contains(uint64_t n) const { return lo <= n && n <= hi; }

  CardInterval operator+(const CardInterval& o) const;
  CardInterval operator*(const CardInterval& o) const;
  CardInterval& operator+=(const CardInterval& o) { return *this = *this + o; }

  /// Lattice join: the smallest interval containing both.
  CardInterval Join(const CardInterval& o) const;
  /// Pointwise min against a bound (used to cap by a known population).
  CardInterval CapAt(const CardInterval& o) const;

  bool operator==(const CardInterval& o) const {
    return lo == o.lo && hi == o.hi;
  }

  /// "7", "[2, 9]", or "[0, inf)".
  std::string ToString() const;
};

/// Per-field facts of a relation.
struct FieldFact {
  bool nullable = true;  // may hold nulls
  bool unique = false;   // no two tuples share a value (key-ness)
};

/// A population of tuples, tracking how many of them originate from each
/// state relation of the current module instance. State origins matter
/// because consuming a state-annotated tuple in a derivation creates one
/// lazily-cached "s" wrapper node per invocation (graph.cc ResolveParent).
struct CardSet {
  CardInterval total = CardInterval::Zero();
  /// state relation name -> how many of `total` carry state annotations.
  std::map<std::string, CardInterval> state;

  CardSet Add(const CardSet& o) const;
  CardSet Join(const CardSet& o) const;
  /// Scale down (e.g. FILTER): keeps lo = 0, caps hi.
  CardSet Filtered() const;
  /// Drops state origins (crossing a module boundary re-wraps tuples).
  CardSet WithoutState() const { return CardSet{total, {}}; }
};

/// Facts about one bag-valued field of a relation.
struct BagFacts {
  /// Total members summed across every tuple of the relation (exactly the
  /// population an aggregate over this field consumes).
  CardSet members;
  double est = 0;  // point estimate of members.total
  /// Every tuple's bag is non-empty (single-input GROUP guarantees this):
  /// rules out the empty-group aggregate fallback edge.
  bool min_one = false;
};

/// Abstract state for one relation binding.
struct RelationFacts {
  SchemaPtr schema;
  CardSet card;
  double est = 0;  // point estimate of card.total under default selectivities
  std::vector<FieldFact> fields;         // parallel to schema fields
  std::map<size_t, BagFacts> bags;       // facts per bag-valued field index
  /// Fields dropped by an upstream FOREACH: name -> pruning site (D0405).
  std::map<std::string, SourceLoc> pruned;

  FieldFact FieldAt(size_t i) const {
    return i < fields.size() ? fields[i] : FieldFact{};
  }
};

/// Predicted provenance-graph emission. In concrete mode every interval is
/// exact; in interval mode these are sound bounds with `est_*` midpoints.
struct Emission {
  CardInterval nodes = CardInterval::Zero();
  CardInterval edges = CardInterval::Zero();
  /// Nodes with more than kInlineParents parents (spill to the edge arena)
  /// and the total parents of those nodes (the arena entries).
  CardInterval wide_nodes = CardInterval::Zero();
  CardInterval wide_edges = CardInterval::Zero();
  /// Stored Values (aggregate/const v-nodes with non-null payloads).
  CardInterval values = CardInterval::Zero();
  /// Invocation wrapper-node bookkeeping (InvocationInfo vectors).
  CardInterval input_nodes = CardInterval::Zero();
  CardInterval output_nodes = CardInterval::Zero();
  CardInterval state_nodes = CardInterval::Zero();
  /// Interned payload strings (tokens, op names) and their total bytes.
  CardInterval interned_strings = CardInterval::Zero();
  CardInterval interned_chars = CardInterval::Zero();
  double est_nodes = 0;
  double est_edges = 0;

  Emission& operator+=(const Emission& o);
};

/// One module invocation's predicted emission.
struct InvocationProfile {
  std::string node_id;
  std::string module;
  std::string instance;
  int execution = 0;
  Emission emission;
};

/// Deletion-propagation classification of one workflow input relation
/// (Definition 4.2 semantics: · and ⊗ nodes die on any parent death, all
/// others only when every parent dies).
struct DeletionFact {
  std::string node_id;    // workflow input node
  std::string relation;   // input relation name
  bool amplifying = false;
  bool reaches_state = false;  // tuples accumulate in module state
  std::string reason;     // first amplification witness, human-readable
  SourceLoc loc;          // site of the witness (or the consuming module)
};

/// Default selectivities for the interval domain's point estimates,
/// System R-style: FILTER keeps 1/3, an equijoin clause keeps 1/10,
/// grouping halves the population, FLATTEN fans out 4x.
struct Selectivities {
  double filter = 1.0 / 3.0;
  double join = 0.1;
  double group = 0.5;
  double flatten = 4.0;
  /// Assumed rows per workflow input relation when no sample is given.
  double input_rows = 100.0;
};

struct AnalyzeOptions {
  /// Number of workflow executions to model (state accumulates across
  /// executions; inputs are re-presented each execution).
  int executions = 1;
  /// Sample inputs: node id -> input relation -> data. When non-empty the
  /// analyzer runs in concrete mode and emission counts are exact.
  std::map<std::string, std::map<std::string, Bag>> inputs;
  /// Initial module state: instance -> state relation -> data.
  std::map<std::string, std::map<std::string, Bag>> initial_state;
  /// Stay in the interval domain even when sample inputs are provided
  /// (their cardinalities still seed the input intervals).
  bool force_interval = false;
  const pig::UdfRegistry* udfs = nullptr;
  Selectivities selectivities;
};

/// Everything the analysis derived about one workflow.
struct WorkflowFacts {
  /// True when emission counts came from the concrete (value) domain and
  /// are exact; false for interval bounds.
  bool concrete = false;
  int executions = 1;
  std::vector<InvocationProfile> invocations;
  /// Fixpoint facts per workflow node: relation name -> facts. Includes
  /// inputs, state, intermediates and outputs of the node's module
  /// programs, joined over all executions.
  std::map<std::string, std::map<std::string, RelationFacts>> relations;
  std::vector<DeletionFact> deletion;
  /// Emission shared across invocations: module/instance/op names interned
  /// once per graph plus the per-graph fixed costs.
  Emission shared;
  /// Analysis caveats (why the concrete run fell back to intervals).
  std::vector<std::string> notes;

  Emission Total() const;
};

/// Runs the dataflow analysis over `workflow`. Diagnostics (D04xx) are
/// reported into `sink` when non-null; the returned facts power the cost
/// model and the CLI `analyze` report. Fails only on malformed workflows
/// (Validate errors) — analysis of lint-dirty programs degrades to
/// Unknown facts instead of failing.
Result<WorkflowFacts> AnalyzeDataflow(const Workflow& workflow,
                                      const AnalyzeOptions& options,
                                      DiagnosticSink* sink);

}  // namespace lipstick::analysis

#endif  // LIPSTICK_ANALYSIS_DATAFLOW_H_
