#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

Scale ScaleOf(const RunOptions& opts) {
  return opts.smoke ? Scale{400, 3} : Scale{10000, 5};
}

lipstick::workflowgen::DealershipConfig GraphConfig(const RunOptions& opts) {
  lipstick::workflowgen::DealershipConfig cfg;
  Scale scale = ScaleOf(opts);
  cfg.num_cars = scale.cars;
  cfg.num_executions = scale.executions;
  cfg.seed = opts.seed;
  cfg.num_workers = 1;
  cfg.accept_probability = 0;
  return cfg;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Op(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) {
    std::fprintf(stderr, "perfbench: failed: %.*s\n",
                 static_cast<int>(what.size()), what.data());
  }
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.first) ? m.first : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.second + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

int32_t SpanLog::Open(const char* name, uint64_t request, int64_t start_ns) {
  if (!enabled_) return -1;
  int32_t parent = open_.empty() ? -1 : open_.back();
  if (request == 0 && parent >= 0) request = spans_[parent].request;
  int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(SpanRecord{name, start_ns, -1, parent, request});
  open_.push_back(id);
  return id;
}

void SpanLog::Close(int32_t id, int64_t end_ns) {
  if (id < 0) return;
  spans_[id].end_ns = end_ns;
  // Spans are scoped, so the closed one is the innermost open span.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanLog::SelfMs() const {
  std::vector<double> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    self[i] += ms;
    if (s.parent >= 0) self[s.parent] -= ms;
  }
  return self;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<unsigned long long>(s.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double Span::End() {
  if (end_ < 0) {
    end_ = NowNs();
    log_->Close(id_, end_);
  }
  return static_cast<double>(end_ - start_) / 1e6;
}

void HeapPeak::Sample() {
  struct mallinfo2 info = mallinfo2();
  peak_ = std::max(peak_, info.uordblks + info.hblkhd);
}

void ReportEndToEnd(const EndToEnd& e2e, bool traced, Report* report) {
  const std::string prefix = traced ? "trace." : "";
  const Samples& op = e2e.op_ms;
  report->Metric(prefix + "setup_s", e2e.setup_s.Median(), "s");
  if (!traced) report->Metric("heap_mb", e2e.heap.PeakMb(), "MB");
  // Operations per second spent in them: the serve workloads' timed phase
  // also holds set-ups and warm-up passes, which are not operations.
  report->Metric(prefix + "ops_per_s",
                 op.Sum() > 0 ? 1e3 * static_cast<double>(op.size()) / op.Sum()
                              : 0,
                 "1/s");
  // Higher quantiles land on one step or class (see README.md, Noise) and
  // are printed with the per-step numbers instead.
  report->Metric(prefix + "latency_ms_p50", op.Quantile(0.5), "ms");
  if (!traced) {
    report->Metric("disk_bytes_per_node", e2e.disk_bytes_per_node, "B/node");
  }
}

void ReportLayerShares(const std::map<std::string, double>& self_ms,
                       Report* report) {
  // Together they cover every layer either kind of workload runs.
  static constexpr const char* kLayers[] = {
      "workflow", "graph", "wal",           "provio",           "recovery",
      "plan",     "exec",  "service.cache", "service.protocol"};
  double total = 0;
  for (const auto& [layer, ms] : self_ms) total += ms;
  auto share = [&](const std::string& layer) {
    auto it = self_ms.find(layer);
    return it == self_ms.end() || total <= 0 ? 0.0 : it->second / total;
  };
  for (const char* layer : kLayers) {
    report->Metric(std::string(layer) + ".self_share", share(layer), "ratio");
  }
  report->Metric("trace.unattributed_share", share("unattributed"), "ratio");
}

uint64_t Fnv1a(std::string_view data, uint64_t h) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
