// Tests for the benchmark harness's own rules: nearest-rank percentiles,
// failures as infinitely late, self time from nested spans, digests.
#include "harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "gen/datasets.h"
#include "metrics.h"

namespace perfbench {
namespace {

TEST(NearestRank, PicksTheSmallestValueCoveringP) {
  const std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(NearestRank(v, 50), 5);
  EXPECT_EQ(NearestRank(v, 90), 9);
  EXPECT_EQ(NearestRank(v, 91), 10);
  EXPECT_EQ(NearestRank(v, 99), 10);
  EXPECT_EQ(NearestRank(v, 100), 10);
  EXPECT_EQ(NearestRank(v, 1), 1);
  EXPECT_EQ(NearestRank({42}, 99), 42);
  EXPECT_EQ(NearestRank({}, 50), 0);
  // 100 samples: p99 is the 99th smallest, not an interpolation.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(NearestRank(hundred, 99), 99);
  EXPECT_EQ(NearestRank(hundred, 50), 50);
}

TEST(LatencyLog, FailuresCountAsFailedAndInfinitelyLate) {
  LatencyLog log;
  for (int i = 1; i <= 98; ++i) log.Ok(i);
  log.Fail();  // shed
  log.Fail();  // ERR line or never answered
  EXPECT_EQ(log.attempted(), 100u);
  EXPECT_EQ(log.failed(), 2u);
  EXPECT_EQ(log.Percentile(50), 50);
  EXPECT_EQ(log.Percentile(98), 98);
  EXPECT_TRUE(std::isinf(log.Percentile(99)));
  // One failure in a hundred leaves p99 finite but past every answer.
  LatencyLog one;
  for (int i = 1; i <= 99; ++i) one.Ok(i);
  one.Fail();
  EXPECT_EQ(one.Percentile(99), 99);
  EXPECT_TRUE(std::isinf(one.Percentile(100)));
}

TEST(ResultLine, PrintsInfinityAsTheSentinelAndEveryDigit) {
  const std::string line =
      ResultLine(true, 10, 1, {{"tail_ms", kInfinitelyLate, "ms"},
                               {"p50_ms", 1.0 / 3.0, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"tail_ms\": {\"value\": 1000000000, \"unit\": "
            "\"ms\"}, \"p50_ms\": {\"value\": 0.33333333333333331, \"unit\": "
            "\"ms\"}}}");
}

TEST(SelfTimes, SubtractsTheUnionOfDirectChildren) {
  // root [0, 10] with children [1, 4] and [3, 6] (overlapping) and a
  // grandchild inside the first child; a sibling root is independent.
  const std::vector<Span> spans = {
      {-1, "root", 0, 10}, {0, "a", 1, 4},  {0, "b", 3, 6},
      {1, "leaf", 2, 3},   {-1, "other", 20, 25},
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 5.0);  // 10 - |[1, 6]|
  EXPECT_DOUBLE_EQ(self[1], 2.0);  // 3 - 1
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 5.0);
  const auto totals = Summarize(spans);
  EXPECT_EQ(totals.at("root").count, 1u);
  EXPECT_DOUBLE_EQ(totals.at("root").total_ms, 10.0);
  EXPECT_DOUBLE_EQ(totals.at("root").self_ms, 5.0);
}

TEST(SelfTimes, ClipsChildrenToTheParent) {
  const std::vector<Span> spans = {{-1, "p", 0, 4}, {0, "c", 3, 9}};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 3.0);
}

TEST(Trace, ScopesNestAndADisabledTraceRecordsNothing) {
  Trace trace(true);
  {
    Trace::Scope outer(&trace, "outer");
    { Trace::Scope inner(&trace, "inner"); }
    { Trace::Scope inner(&trace, "inner"); }
  }
  { Trace::Scope next(&trace, "next"); }
  ASSERT_EQ(trace.spans().size(), 4u);
  EXPECT_EQ(trace.spans()[0].parent, -1);
  EXPECT_EQ(trace.spans()[1].parent, 0);
  EXPECT_EQ(trace.spans()[2].parent, 0);
  EXPECT_EQ(trace.spans()[3].parent, -1);
  for (const Span& s : trace.spans()) EXPECT_LE(s.start_ms, s.end_ms);
  const auto totals = Summarize(trace.spans());
  EXPECT_EQ(totals.at("inner").count, 2u);
  EXPECT_LE(totals.at("outer").self_ms, totals.at("outer").total_ms);

  Trace off(false);
  { Trace::Scope s(&off, "x"); }
  off.Count("n", 1);
  EXPECT_TRUE(off.spans().empty());
  EXPECT_TRUE(off.counters().empty());
}

TEST(Digest, IsStableAndOrderSensitive) {
  Digest empty;
  EXPECT_EQ(empty.Hex(), "cbf29ce484222325");  // FNV-1a 64 offset basis
  Digest a;
  a.AddDouble(0.25);
  a.AddString("R(1, 2) = 0.2500");
  Digest b;
  b.AddDouble(0.25);
  b.AddString("R(1, 2) = 0.2500");
  EXPECT_EQ(a.Hex(), b.Hex());
  EXPECT_EQ(a.Hex(), "47420bbab97697be");  // FNV-1a 64, cross-checked by hand

  Digest swapped;
  swapped.AddString("R(1, 2) = 0.2500");
  swapped.AddDouble(0.25);
  EXPECT_NE(a.Hex(), swapped.Hex());
  // Bit patterns, not values: -0.0 and 0.0 digest differently.
  Digest pos;
  pos.AddDouble(0.0);
  Digest neg;
  neg.AddDouble(-0.0);
  EXPECT_NE(pos.Hex(), neg.Hex());
}

TEST(Schedule, IsAPureFunctionOfTheSeedAndWellFormed) {
  auto dataset = relmax::MakeDataset("as_topology", 0.1);
  ASSERT_TRUE(dataset.ok());
  const relmax::UncertainGraph& g = dataset->graph;
  const auto x = MakeServeSchedule(g, 20, 100, 1, 0.8, 7);
  const auto y = MakeServeSchedule(g, 20, 100, 1, 0.8, 7);
  const auto z = MakeServeSchedule(g, 20, 100, 1, 0.8, 8);
  ASSERT_EQ(x.size(), y.size());
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i].Line(), y[i].Line());
  EXPECT_FALSE(x.size() == z.size() && x[0].Line() == z[0].Line() &&
               x[1].Line() == z[1].Line());
  size_t updates = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (i) {
      EXPECT_LE(x[i - 1].at_s, x[i].at_s);
    }
    EXPECT_LT(x[i].at_s, 20.0);
    if (x[i].update) {
      ++updates;
      EXPECT_TRUE(g.HasEdge(x[i].a, x[i].b));
      const std::string line = x[i].Line();
      EXPECT_EQ(std::strtod(line.c_str() + line.rfind(' '), nullptr), x[i].p);
      EXPECT_GE(x[i].p, 0.0);
      EXPECT_LE(x[i].p, 1.0);
    } else {
      EXPECT_NE(x[i].a, x[i].b);
      EXPECT_LT(x[i].a, g.num_nodes());
      EXPECT_LT(x[i].b, g.num_nodes());
    }
  }
  const size_t reads = x.size() - updates;
  EXPECT_GT(reads, 1700u);  // ~2000 reads at 100/s over 20 s
  EXPECT_LT(reads, 2300u);
  EXPECT_GE(updates, 19u);  // one update a second
  EXPECT_LE(updates, 20u);
}

// The (name, unit) pairs listed in BENCHMARK.json's `section` array.
std::vector<std::pair<std::string, std::string>> JsonMetrics(
    const std::string& json, const std::string& section) {
  const size_t begin = json.find("\"" + section + "\"");
  const size_t end = json.find(']', begin);
  const std::string body = json.substr(begin, end - begin);
  const std::regex entry("\"name\": \"([^\"]+)\", \"unit\": \"([^\"]+)\"");
  std::vector<std::pair<std::string, std::string>> out;
  for (std::sregex_iterator it(body.begin(), body.end(), entry), last;
       it != last; ++it) {
    out.push_back({(*it)[1], (*it)[2]});
  }
  return out;
}

template <size_t N>
std::vector<std::pair<std::string, std::string>> Listed(
    const MetricSpec (&specs)[N]) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const MetricSpec& spec : specs) out.push_back({spec.name, spec.unit});
  return out;
}

TEST(Metrics, MatchBenchmarkJson) {
  std::ifstream file(PERFBENCH_JSON);
  ASSERT_TRUE(file) << PERFBENCH_JSON;
  std::stringstream json;
  json << file.rdbuf();
  EXPECT_EQ(JsonMetrics(json.str(), "end_to_end"), Listed(kEndToEnd));
  EXPECT_EQ(JsonMetrics(json.str(), "per_layer"), Listed(kLayers));
}

}  // namespace
}  // namespace perfbench
