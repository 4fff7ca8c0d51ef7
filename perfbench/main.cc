// relmax benchmark driver:
//
//   perfbench --workload solve|batch|serve-rw --seed N --seconds S --trace 0|1
//
// Builds the workload's inputs from the seed, measures for S seconds, checks
// every answer, and prints one JSON line last on stdout: the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). The traced run
// also writes its spans to --trace-out. Exits 1 on any answer mismatch.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/memory.h"
#include "metrics.h"
#include "workloads.h"

namespace perfbench {

double MedianSetupSeconds(const std::function<void()>& setup,
                          const std::function<void()>& teardown) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i) teardown();
    const Clock::time_point begin = Clock::now();
    setup();
    seconds.push_back(MsBetween(begin, Clock::now()) / 1e3);
  }
  return NearestRank(seconds, 50);
}

double PeakRssMb() {
  return static_cast<double>(relmax::PeakRssBytes()) / (1024.0 * 1024.0);
}

namespace {

// Seconds per span the trace adds, calibrated on a scratch trace.
double SpanCostSeconds() {
  constexpr int kSpans = 20000;
  Trace scratch(true);
  const Clock::time_point begin = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Trace::Scope span(&scratch, "calibrate");
  }
  return MsBetween(begin, Clock::now()) / 1e3 / kSpans;
}

}  // namespace

void AddTraceOverhead(const Trace& trace, double traced_wall_s,
                      RunResult* result) {
  const double spans = static_cast<double>(trace.spans().size());
  result->layers["trace.spans"] = spans;
  result->layers["trace.overhead_frac"] =
      traced_wall_s > 0 ? spans * SpanCostSeconds() / traced_wall_s : 0.0;
}

double SelfMs(const Trace& trace, const std::string& name) {
  const auto totals = Summarize(trace.spans());
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_ms;
}

namespace {

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "solve|batch|serve-rw --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               problem);
  std::exit(2);
}

bool ParseUint(const char* text, uint64_t* out) {
  if (*text == '\0') return false;
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0' && text[0] != '-';
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &config.seed)) Usage("--seed needs a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &number) || number < 1 || number > 600) {
        Usage("--seconds needs a whole number in [1, 600]");
      }
      config.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (!ParseUint(value, &number) || number > 1) Usage("--trace is 0 or 1");
      config.trace = number == 1;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) Usage("--seed is required");

  RunResult result;
  if (workload == "solve") {
    result = RunSolve(config);
  } else if (workload == "batch") {
    result = RunBatch(config);
  } else if (workload == "serve-rw") {
    result = RunServeRw(config);
  } else {
    Usage("--workload is solve, batch or serve-rw");
  }

  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu trace=%d nproc=%u "
               "compiler=\"%s\" build=%s digest=%s\n",
               workload.c_str(), static_cast<unsigned long long>(config.seed),
               config.trace ? 1 : 0, std::thread::hardware_concurrency(),
               __VERSION__, PERFBENCH_BUILD_TYPE, result.digest.c_str());

  std::vector<Metric> metrics;
  const auto& values = config.trace ? result.layers : result.end_to_end;
  auto emit = [&](const MetricSpec& spec) {
    const auto it = values.find(spec.name);
    metrics.push_back(
        {spec.name, it == values.end() ? 0.0 : it->second, spec.unit});
  };
  if (config.trace) {
    for (const MetricSpec& spec : kLayers) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  std::printf("%s\n", ResultLine(result.correct, result.attempted,
                                 result.failed, metrics)
                          .c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
