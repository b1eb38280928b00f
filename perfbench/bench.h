// Shared pieces of the end-to-end benchmark: run settings, the graph
// configuration every workload uses, sample statistics, the result line,
// benchmark-side spans, and the heap probe. See perfbench/README.md.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workflowgen/dealership.h"

namespace perfbench {

/// Settings of one run, parsed from the command line.
struct RunOptions {
  std::string workload;   // ingest | serve_cold | serve_hot
  uint64_t seed = 1;
  double seconds = 10;    // length of the timed phase
  bool trace = false;     // benchmark-side spans + per-layer metrics
  bool smoke = false;     // tiny graph, same phases and checks
  std::string work_dir;   // .pg files and WAL directories (created, removed)
  std::string trace_dir;  // where a traced run writes its spans
};

/// Graph size of a run: cars in the inventory and tracked executions per
/// graph. The first execution of a fresh workflow also tokenizes the whole
/// inventory, so it is the slow mode of exec_ms (see README.md).
struct Scale {
  int cars;
  int executions;
};
Scale ScaleOf(const RunOptions& opts);

/// The Car-dealership configuration all three workloads share: WorkflowGen
/// seeded from --seed, buyer never accepts (every run has the full number of
/// executions), one executor worker.
lipstick::workflowgen::DealershipConfig GraphConfig(const RunOptions& opts);

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Samples of one quantity in the order taken; quantiles by the
/// nearest-rank rule.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// What a run prints as its last line: correctness, operation counts and
/// metrics in insertion order.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts one operation; a failed one also makes the run incorrect and is
  /// explained on stderr.
  void Op(bool ok, std::string_view what);
  /// Adds another run's operation counts (smoke mode).
  void AddCounts(const Report& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }
  std::string Json() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// One recorded span. `name` is a string literal "<layer>.<what>"; spans
/// whose layer is "bench" are the benchmark's own code.
struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;   // -1 while open
  int32_t parent;   // index of the enclosing span, -1 for a root
  uint64_t request;
};

/// In-memory span log of one thread. Disabled (untraced runs), Open and
/// Close record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Starts a span under the innermost open one. A request id of 0
  /// inherits the parent's.
  int32_t Open(const char* name, uint64_t request, int64_t start_ns);
  void Close(int32_t id, int64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Self time in ms of each closed span (its duration minus the part its
  /// children cover), indexed like spans().
  std::vector<double> SelfMs() const;
  /// Writes the spans as Chrome trace_event JSON (chrome://tracing,
  /// ui.perfetto.dev). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// RAII span around one call: always measures, records when tracing.
class Span {
 public:
  Span(SpanLog* log, const char* name, uint64_t request = 0)
      : log_(log), start_(NowNs()), id_(log->Open(name, request, start_)) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (once); returns its duration in ms.
  double End();
  double EndUs() { return End() * 1e3; }

 private:
  SpanLog* log_;
  int64_t start_;
  int32_t id_;
  int64_t end_ = -1;
};

/// Peak heap in use (glibc mallinfo2: arena bytes in use plus mmapped
/// chunks), read at phase boundaries from outside the program.
class HeapPeak {
 public:
  void Sample();
  double PeakMb() const { return static_cast<double>(peak_) / 1e6; }

 private:
  size_t peak_ = 0;
};

/// What every workload measures for the end-to-end metrics. An operation
/// is one timed step of the workload: on `ingest` a tracked execution, a
/// save, a load or a recovery; on the serve workloads a request.
struct EndToEnd {
  Samples setup_s;
  Samples op_ms;
  HeapPeak heap;
  double disk_bytes_per_node = 0;  // of the .pg the workload writes or reads
};

/// Prints the end-to-end metrics, which every workload has. A traced run
/// prints its timings as "trace.<name>" instead (the tracing overhead).
void ReportEndToEnd(const EndToEnd& e2e, bool traced, Report* report);

/// Prints each layer's share of a workload's timed work, given its self
/// time in ms by layer ("unattributed" for the remainder). Every layer is
/// printed; one the workload does not run has share 0.
void ReportLayerShares(const std::map<std::string, double>& self_ms,
                       Report* report);

/// 64-bit FNV-1a, for workload digests.
uint64_t Fnv1a(std::string_view data, uint64_t h = 14695981039346656037ull);
std::string Hex64(uint64_t v);

int RunIngest(const RunOptions& opts, Report* report);
int RunServe(const RunOptions& opts, bool hot, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
