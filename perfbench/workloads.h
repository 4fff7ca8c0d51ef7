// The three benchmark workloads. Each builds its inputs from the seed, times
// its operations for `seconds`, checks every answer and fills a RunResult.
// With `trace` on it instead runs the layer-by-layer decomposition and
// fills `layers`; end-to-end numbers come only from untraced runs.
#ifndef RELMAX_PERFBENCH_WORKLOADS_H_
#define RELMAX_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON).
  std::string trace_path;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metric values by name (untraced runs).
  std::map<std::string, double> end_to_end;
  /// Per-layer metric values by name (traced runs).
  std::map<std::string, double> layers;
  /// Digest of every answer the run produced, in a fixed order.
  std::string digest;
  /// Mismatches and run-validity warnings, printed on stderr.
  std::vector<std::string> problems;
};

/// Each run sets up this many times and reports the median as `setup_s`;
/// the last set-up is the one measured.
inline constexpr int kSetupRepeats = 5;

/// Runs `setup` kSetupRepeats times and returns the median seconds;
/// `teardown` (untimed) releases the previous set-up before each repeat.
double MedianSetupSeconds(const std::function<void()>& setup,
                          const std::function<void()>& teardown = [] {});

/// Peak resident memory of this process so far, MiB.
double PeakRssMb();

/// Fills the trace-validity layers every workload reports: the share of
/// `traced_wall_s` spent recording spans, and the span count.
void AddTraceOverhead(const Trace& trace, double traced_wall_s,
                      RunResult* result);

/// Sums `self_ms` of the spans named `name`.
double SelfMs(const Trace& trace, const std::string& name);

RunResult RunSolve(const RunConfig& config);
RunResult RunBatch(const RunConfig& config);
RunResult RunServeRw(const RunConfig& config);

}  // namespace perfbench

#endif  // RELMAX_PERFBENCH_WORKLOADS_H_
