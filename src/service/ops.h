#ifndef LIPSTICK_SERVICE_OPS_H_
#define LIPSTICK_SERVICE_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "provenance/exec.h"
#include "provenance/graph.h"
#include "provenance/optimizer.h"
#include "provenance/plan.h"
#include "provenance/snapshot.h"

namespace lipstick::service {

/// True when `op` names (or begins) a read-only query the service router
/// and the local CLI dispatch through the plan engine: the single-op forms
/// (stats, find, expr, depends, subgraph, zoomout, restrict, delete), a
/// `|`-pipeline carried whole in the op field, and `explain`.
bool IsReadQueryOp(const std::string& op);

/// A read request after parsing + optimization: what every query surface
/// (CLI one-shot, `query --batch`, the serve daemon) executes, and the
/// canonical string they key caches on.
struct ParsedQuery {
  bool is_explain = false;    // render the optimized plan, don't run it
  bool explain_json = false;  // `explain --json`
  OptimizedPlan optimized;
  /// Canonical string of the *optimized* plan — the cache identity.
  /// Syntactically different but equivalent requests share it.
  std::string canonical;
};

/// Parses one read request (operation plus argument tokens; the op field
/// may carry a whole pipeline) and runs the plan optimizer. Error strings
/// match the historical single-op parser exactly.
Result<ParsedQuery> ParseQuery(const std::string& op,
                               const std::vector<std::string>& args);

/// Executes a parsed query through the one plan engine and renders its
/// output. `view_cache` (optional) reuses composed view masks across
/// requests whose plans share a canonical view prefix; `scope` namespaces
/// its keys by graph identity and `pin` keeps the snapshot alive inside
/// cache entries. Safe to call concurrently on one snapshot. `threads` is
/// ignored; perfbench still passes it, and the benchmark's next change
/// drops it.
Result<std::string> ExecuteParsedQuery(const GraphSnapshot& snap,
                                       const ParsedQuery& parsed, int threads,
                                       PlanViewCache* view_cache = nullptr,
                                       const std::string& scope = "",
                                       std::shared_ptr<const void> pin = {});

/// ParseQuery + ExecuteParsedQuery in one call — the single rendering path
/// behind local one-shot queries, `query --batch`, and the serve daemon,
/// so remote responses are byte-identical to local output (golden tests
/// double as protocol tests). Honors the calling thread's CancelToken
/// (deadline / disconnect) through the traversal engine. `threads` is
/// ignored; perfbench still passes it, and the benchmark's next change
/// drops it.
Result<std::string> ExecuteReadQuery(const GraphSnapshot& snap,
                                     const std::string& op,
                                     const std::vector<std::string>& args,
                                     int threads);

}  // namespace lipstick::service

#endif  // LIPSTICK_SERVICE_OPS_H_
