#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "common/rng.h"

namespace perfbench {

namespace {
constexpr double kUpdateStep = 0.2;
}  // namespace

double NearestRank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, cursor);
      const double b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ms += spans[i].end_ms - spans[i].start_ms;
    t.self_ms += self[i];
  }
  return totals;
}

Trace::Scope::Scope(Trace* trace, const char* name) : trace_(trace) {
  if (!trace_->enabled_) return;
  Span span;
  span.parent = trace_->open_.empty() ? -1 : trace_->open_.back();
  span.name = name;
  span.start_ms = MsBetween(trace_->origin_, Clock::now());
  index_ = static_cast<int>(trace_->spans_.size());
  trace_->spans_.push_back(std::move(span));
  trace_->open_.push_back(index_);
}

Trace::Scope::~Scope() {
  if (index_ < 0) return;
  trace_->spans_[static_cast<size_t>(index_)].end_ms =
      MsBetween(trace_->origin_, Clock::now());
  trace_->open_.pop_back();
}

void Trace::Count(const std::string& name, double delta) {
  if (enabled_) counters_[name] += delta;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

bool Trace::WriteJson(const std::string& path,
                      const std::map<std::string, std::string>& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{";
  for (const auto& [key, value] : header) {
    out << JsonString(key) << ": " << JsonString(value) << ",\n";
  }
  out << "\"layers\": {";
  bool first = true;
  for (const auto& [name, t] : Summarize(spans_)) {
    out << (first ? "\n" : ",\n") << "  " << JsonString(name)
        << ": {\"count\": " << t.count
        << ", \"total_ms\": " << JsonNumber(t.total_ms)
        << ", \"self_ms\": " << JsonNumber(t.self_ms) << "}";
    first = false;
  }
  out << "},\n\"counters\": {";
  first = true;
  for (const auto& [name, v] : counters_) {
    out << (first ? "\n" : ",\n") << "  " << JsonString(name) << ": "
        << JsonNumber(v);
    first = false;
  }
  out << "},\n\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "  {\"id\": " << i << ", \"parent\": "
        << s.parent << ", \"name\": " << JsonString(s.name)
        << ", \"start_ms\": " << JsonNumber(s.start_ms)
        << ", \"end_ms\": " << JsonNumber(s.end_ms) << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Digest::AddBytes(const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= bytes[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::AddU64(uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  AddBytes(bytes, sizeof(bytes));
}

void Digest::AddDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AddU64(bits);
}

void Digest::AddString(const std::string& s) {
  AddU64(s.size());
  AddBytes(s.data(), s.size());
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string Event::Line() const {
  char buf[96];
  if (update) {
    std::snprintf(buf, sizeof(buf), "update %u %u %.3f", a, b, p);
  } else {
    std::snprintf(buf, sizeof(buf), "query %u %u", a, b);
  }
  return buf;
}

std::vector<Event> MakeServeSchedule(const relmax::UncertainGraph& g,
                                     double seconds, double read_qps,
                                     double updates_per_s, double theta,
                                     uint64_t seed) {
  const relmax::NodeId n = g.num_nodes();
  std::vector<double> cdf(n);
  double total = 0.0;
  for (relmax::NodeId r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r) + 1.0, -theta);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;

  std::vector<Event> events;
  relmax::Rng reads(seed);
  for (double now = 0.0;;) {
    now += -std::log(1.0 - reads.NextDouble()) / read_qps;
    if (now >= seconds) break;
    Event e;
    e.at_s = now;
    e.a = static_cast<relmax::NodeId>(
        std::lower_bound(cdf.begin(), cdf.end(), reads.NextDouble()) -
        cdf.begin());
    if (e.a >= n) e.a = n - 1;
    do {
      e.b = static_cast<relmax::NodeId>(reads.NextUint64(n));
    } while (e.b == e.a);
    events.push_back(e);
  }
  // Updates come on a fixed period from a random phase and move the edge's
  // probability by a fixed step, so every update flips about the same share
  // of the sampled worlds. Poisson writes or uniform new probabilities make
  // the catch-up work, and with it the read tail, differ widely between
  // runs.
  relmax::Rng writes(seed ^ 0x9e3779b97f4a7c15ULL);
  std::unordered_map<relmax::EdgeId, double> prob;
  for (double now = writes.NextDouble() / updates_per_s; now < seconds;
       now += 1.0 / updates_per_s) {
    const auto id =
        static_cast<relmax::EdgeId>(writes.NextUint64(g.num_edges()));
    const relmax::Edge& edge = g.EdgeById(id);
    const double old_p = prob.count(id) ? prob[id] : edge.prob;
    const double step =
        old_p + kUpdateStep <= 0.95 ? kUpdateStep : -kUpdateStep;
    // k / 1000.0 and strtod of "%.3f" are both correctly rounded, so the
    // daemon parses exactly this double.
    const double p = std::round((old_p + step) * 1000.0) / 1000.0;
    prob[id] = p;
    Event e;
    e.at_s = now;
    e.update = true;
    e.a = edge.src;
    e.b = edge.dst;
    e.p = p;
    events.push_back(e);
  }
  std::stable_sort(
      events.begin(), events.end(),
      [](const Event& x, const Event& y) { return x.at_s < y.at_s; });
  return events;
}

std::string JsonNumber(double v) {
  if (std::isinf(v)) v = kLateSentinelMs;
  if (std::isnan(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
