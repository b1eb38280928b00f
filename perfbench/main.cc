// perfbench: the end-to-end benchmark of the Lipstick pipeline.
//
//   perfbench --workload ingest|serve_cold|serve_hot --seed N --seconds S
//             --trace 0|1 --work-dir DIR --trace-dir DIR
//   perfbench --smoke [--workload W] --work-dir DIR --trace-dir DIR
//
// Prints progress lines, then one JSON result line (see README.md). The
// process pins itself to one CPU before any thread starts. perfbench/run.py
// builds this binary and supplies the directories.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "bench.h"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

/// Pins the process to the highest-numbered CPU it may run on; returns that
/// CPU or -1.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|serve_cold|serve_hot "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --trace-dir "
               "DIR\n       perfbench --smoke [--workload W] --work-dir DIR "
               "--trace-dir DIR\n");
  return 2;
}

int Run(const RunOptions& opts, Report* report) {
  if (opts.workload == "ingest") return perfbench::RunIngest(opts, report);
  if (opts.workload == "serve_cold") {
    return perfbench::RunServe(opts, /*hot=*/false, report);
  }
  if (opts.workload == "serve_hot") {
    return perfbench::RunServe(opts, /*hot=*/true, report);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               opts.workload.c_str());
  return 2;
}

/// Tiny graphs, every workload untraced then traced, every check; prints
/// the traced run's end-to-end numbers beside the untraced ones.
int Smoke(RunOptions opts, Report* total) {
  opts.seconds = 0.3;
  for (const char* workload : {"ingest", "serve_cold", "serve_hot"}) {
    opts.workload = workload;
    Report plain, traced;
    opts.trace = false;
    if (Run(opts, &plain) != 0) return 1;
    opts.trace = true;
    if (Run(opts, &traced) != 0) return 1;
    std::map<std::string, double> traced_values;
    for (const auto& [name, m] : traced.metrics()) {
      traced_values[name] = m.first;
    }
    std::printf("%-22s %14s %14s\n", workload, "untraced", "traced");
    for (const auto& [name, m] : plain.metrics()) {
      auto it = traced_values.find("trace." + name);
      if (it == traced_values.end()) continue;
      std::printf("  %-20s %14.3f %14.3f %s\n", name.c_str(), m.first,
                  it->second, m.second.c_str());
    }
    total->AddCounts(plain);
    total->AddCounts(traced);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--trace-dir") {
      opts.trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (opts.work_dir.empty() || opts.trace_dir.empty() ||
      (!opts.smoke && opts.workload.empty()) || opts.seconds <= 0) {
    return Usage();
  }

  // Before any thread exists, so every thread inherits the mask.
  const int cpu = PinToOneCpu();
  std::printf("perfbench: pinned to cpu %d\n", cpu);
  std::error_code error;
  std::filesystem::create_directories(opts.work_dir, error);
  std::filesystem::create_directories(opts.trace_dir, error);

  Report report;
  // --smoke alone runs every workload; with --workload, that one at smoke
  // scale.
  int rc = opts.smoke && opts.workload.empty() ? Smoke(opts, &report)
                                               : Run(opts, &report);
  std::filesystem::remove_all(opts.work_dir, error);
  if (rc != 0) return rc;
  std::fflush(stdout);
  std::printf("%s\n", report.Json().c_str());
  return report.correct() ? 0 : 1;
}
