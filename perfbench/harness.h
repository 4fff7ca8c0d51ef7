// Workload-independent pieces of the relmax benchmark: percentiles, latency
// logs that count failures as infinitely late, an in-memory span trace with
// self times, answer digests, the serve-rw traffic schedule, and the
// one-line JSON result. Kept free of timing side effects so the harness
// tests can pin every rule here.
#ifndef RELMAX_PERFBENCH_HARNESS_H_
#define RELMAX_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "graph/uncertain_graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Latency of an operation that failed, was shed or never got an answer.
inline constexpr double kInfinitelyLate =
    std::numeric_limits<double>::infinity();

/// JSON has no infinity: an infinitely late percentile is printed as this
/// many milliseconds (about 11.6 days), far above any real latency.
inline constexpr double kLateSentinelMs = 1e9;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline Clock::time_point After(Clock::time_point from, double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

/// Nearest-rank percentile: the smallest value with at least p% of the
/// values at or below it (p in (0, 100]). +inf sorts last, so failures
/// count as the slowest answers. Returns 0 for an empty input.
double NearestRank(std::vector<double> values, double p);

/// Per-operation outcomes of one timed phase.
class LatencyLog {
 public:
  void Ok(double ms) { ms_.push_back(ms); }
  /// A failed, shed, `ERR` or unanswered operation: infinitely late.
  void Fail() {
    ms_.push_back(kInfinitelyLate);
    ++failed_;
  }
  size_t attempted() const { return ms_.size(); }
  size_t failed() const { return failed_; }
  double Percentile(double p) const { return NearestRank(ms_, p); }

 private:
  std::vector<double> ms_;
  size_t failed_ = 0;
};

/// One recorded span: a named interval and the span open around it.
struct Span {
  int parent = -1;  // index into the span list; -1 for a root
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Per-name totals over a span list.
struct SpanTotals {
  size_t count = 0;
  double total_ms = 0.0;
  /// Duration minus the part of it covered by direct child spans.
  double self_ms = 0.0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. Children may overlap.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans);

/// In-memory span recorder for the benchmark's own calls into the library.
/// Spans nest by scope on the recording thread; nothing is written until
/// WriteJson. A disabled trace records nothing and costs one branch.
class Trace {
 public:
  class Scope {
   public:
    Scope(Trace* trace, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int index_ = -1;
  };

  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  const std::vector<Span>& spans() const { return spans_; }
  /// Adds to a named counter recorded at the same boundaries as the spans.
  void Count(const std::string& name, double delta);
  const std::map<std::string, double>& counters() const { return counters_; }
  /// A counter's value; 0 if it was never counted.
  double Counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  /// Writes spans, per-name totals and counters as one JSON document.
  bool WriteJson(const std::string& path,
                 const std::map<std::string, std::string>& header) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
  std::map<std::string, double> counters_;
};

/// FNV-1a 64 over the bit patterns of the answers, so two runs or two
/// commits that answer identically print the same digest.
class Digest {
 public:
  void AddU64(uint64_t v);
  void AddDouble(double v);
  void AddString(const std::string& s);
  std::string Hex() const;

 private:
  void AddBytes(const void* data, size_t n);
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One serve-rw request: a read `query S T` or a write `update U V P`.
struct Event {
  double at_s = 0.0;  // scheduled send time, seconds from the phase start
  bool update = false;
  relmax::NodeId a = 0;
  relmax::NodeId b = 0;
  double p = 0.0;  // update probability, exactly as the line spells it
  std::string Line() const;
};

/// The serve-rw schedule for `seconds`: Poisson reads at `read_qps` with
/// Zipf(theta) sources (rank r is node r) and uniform targets, merged with
/// updates every 1 / `updates_per_s` seconds from a random phase, each
/// moving a uniformly chosen existing edge's probability 0.2 up (down when
/// that would pass 0.95). A pure function of its arguments.
std::vector<Event> MakeServeSchedule(const relmax::UncertainGraph& g,
                                     double seconds, double read_qps,
                                     double updates_per_s, double theta,
                                     uint64_t seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// with every value at full precision; infinities print as kLateSentinelMs.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // RELMAX_PERFBENCH_HARNESS_H_
