// `batch`: closed loop of cache-cold 2000-pair batches of uniform random
// pairs on as_topology --scale 0.1 (directed, 900 nodes), Z=2000, 2 threads.
// Every batch goes through the flood engine and the indexed engine on one
// graph; their answers must be bit-identical. Loads sampling floods, the
// directed index residual and query; never touches core, paths or serve.
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_set>

#include "common/rng.h"
#include "gen/datasets.h"
#include "index/reliability_index.h"
#include "query/query_engine.h"
#include "sampling/world_view.h"
#include "workloads.h"

namespace perfbench {
namespace {

using relmax::NodeId;

constexpr int kSamples = 2000;
constexpr int kThreads = 2;
constexpr size_t kBatchPairs = 2000;
// Batches generated per run: far more than a run answers, so every pair a
// run asks is new to both engines' result caches.
constexpr size_t kMaxBatches = 64;
constexpr size_t kMinBatches = 3;

relmax::QueryEngineOptions EngineOptions(bool use_index) {
  relmax::QueryEngineOptions options;
  options.num_samples = kSamples;
  options.num_threads = kThreads;
  options.use_index = use_index;
  return options;
}

struct BatchInputs {
  relmax::UncertainGraph graph = relmax::UncertainGraph::Directed(0);
  std::vector<relmax::QuerySet> batches;
  std::unique_ptr<relmax::QueryEngine> flood;
  std::unique_ptr<relmax::QueryEngine> indexed;
};

// Distinct pairs across the whole run; the pair the engines warm up on,
// (0, 1), is excluded so no timed pair is a result-cache hit.
std::vector<relmax::QuerySet> MakeBatches(NodeId n, uint64_t seed) {
  relmax::Rng rng(seed);
  std::unordered_set<uint64_t> seen = {uint64_t{1}};
  std::vector<relmax::QuerySet> batches(kMaxBatches);
  for (relmax::QuerySet& set : batches) {
    while (set.st_queries().size() < kBatchPairs) {
      const NodeId s = static_cast<NodeId>(rng.NextUint64(n));
      const NodeId t = static_cast<NodeId>(rng.NextUint64(n));
      if (s == t || !seen.insert((uint64_t{s} << 32) | t).second) continue;
      set.AddSt(s, t);
    }
  }
  return batches;
}

void SetUp(uint64_t seed, BatchInputs* in) {
  auto dataset = relmax::MakeDataset("as_topology", 0.1);
  RELMAX_CHECK(dataset.ok());
  in->graph = std::move(dataset->graph);
  in->batches = MakeBatches(in->graph.num_nodes(), seed);
  in->flood =
      std::make_unique<relmax::QueryEngine>(in->graph, EngineOptions(false));
  in->indexed =
      std::make_unique<relmax::QueryEngine>(in->graph, EngineOptions(true));
  // The engines fill the bank and build labels lazily; pay that here.
  RELMAX_CHECK(in->flood->EstimateSt(0, 1).ok());
  RELMAX_CHECK(in->indexed->EstimateSt(0, 1).ok());
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// One batch through both engines; checks bit identity. Returns false when
// an engine failed.
bool AnswerBoth(BatchInputs& in, size_t b, Trace* trace, RunResult* result,
                double* flood_ms, double* index_ms,
                std::vector<double>* answers) {
  const relmax::QuerySet& set = in.batches[b];
  const Clock::time_point t0 = Clock::now();
  auto flood = [&] {
    Trace::Scope span(trace, "query.answer_flood");
    return in.flood->Answer(set);
  }();
  const Clock::time_point t1 = Clock::now();
  auto indexed = [&] {
    Trace::Scope span(trace, "query.answer_index");
    return in.indexed->Answer(set);
  }();
  const Clock::time_point t2 = Clock::now();
  *flood_ms = MsBetween(t0, t1);
  *index_ms = MsBetween(t1, t2);
  result->attempted += 2 * set.st_queries().size();
  if (!flood.ok() || !indexed.ok()) {
    if (!flood.ok()) result->failed += set.st_queries().size();
    if (!indexed.ok()) result->failed += set.st_queries().size();
    result->problems.push_back("batch " + std::to_string(b) + " failed");
    return false;
  }
  if (!BitIdentical(flood->st_values, indexed->st_values)) {
    result->correct = false;
    result->problems.push_back("batch " + std::to_string(b) +
                               ": flood and indexed answers differ");
  }
  trace->Count("query.floods", flood->stats.floods);
  trace->Count("query.index_answers", indexed->stats.index_answers);
  trace->Count("query.cache_hits",
               flood->stats.cache_hits + indexed->stats.cache_hits);
  *answers = std::move(flood->st_values);
  return true;
}

RunResult RunTraced(BatchInputs& in, const RunConfig& config,
                    RunResult result) {
  Trace trace(true);
  Digest digest;
  // A bank and index of the benchmark's own over the same graph and
  // determinism tuple, so the layers below QueryEngine can be timed alone.
  relmax::WorldViewOptions world;
  world.num_samples = kSamples;
  world.seed = EngineOptions(false).seed;
  world.num_threads = kThreads;
  std::unique_ptr<relmax::WorldView> bank;
  std::unique_ptr<relmax::ReliabilityIndex> index;
  {
    Trace::Scope span(&trace, "sampling.bank_fill");
    bank = relmax::MakeWorldView(in.graph, world);
  }
  {
    Trace::Scope span(&trace, "index.label_build");
    relmax::ReliabilityIndex::Options options;
    options.num_threads = kThreads;
    index = std::make_unique<relmax::ReliabilityIndex>(*bank, options);
  }
  const std::vector<relmax::EdgeId> all_edges = bank->AllEdges();
  relmax::bitlane::BitMatrix reach;
  std::vector<double> answer_ms;
  size_t pairs = 0;
  size_t sources = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = After(start, config.seconds);
  for (size_t b = 0; b < in.batches.size(); ++b) {
    if (b >= 1 && Clock::now() >= deadline) break;
    const relmax::ReliabilityIndex::Stats before = in.indexed->index()->stats();
    double flood_ms = 0.0;
    double index_ms = 0.0;
    std::vector<double> answers;
    Trace::Scope root(&trace, "batch");
    if (!AnswerBoth(in, b, &trace, &result, &flood_ms, &index_ms, &answers)) {
      continue;
    }
    answer_ms.push_back(flood_ms);
    const relmax::ReliabilityIndex::Stats& after = in.indexed->index()->stats();
    trace.Count("index.reach_floods",
                static_cast<double>(after.reach_floods - before.reach_floods));
    trace.Count("index.reach_row_evictions",
                static_cast<double>(after.reach_row_evictions -
                                    before.reach_row_evictions));
    const auto& queries = in.batches[b].st_queries();
    std::unordered_set<NodeId> distinct;
    for (const auto& q : queries) distinct.insert(q.s);
    sources += distinct.size();
    pairs += queries.size();
    for (NodeId s : distinct) {
      Trace::Scope span(&trace, "sampling.flood");
      bank->ReachabilityFixpoint(s, /*backward=*/false, all_edges, &reach);
    }
    trace.Count("sampling.floods", distinct.size());
    std::vector<double> direct(queries.size());
    {
      Trace::Scope span(&trace, "index.query");
      for (size_t i = 0; i < queries.size(); ++i) {
        direct[i] = index->Query(queries[i].s, queries[i].t);
      }
    }
    if (!BitIdentical(direct, answers)) {
      result.correct = false;
      result.problems.push_back(
          "batch " + std::to_string(b) +
          ": ReliabilityIndex::Query differs from the engines");
    }
    for (double v : answers) digest.AddDouble(v);
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double kpairs = static_cast<double>(pairs) / 1000.0;
  result.layers["sampling.bank_fill_ms"] = SelfMs(trace, "sampling.bank_fill");
  result.layers["index.label_build_ms"] = SelfMs(trace, "index.label_build");
  if (pairs > 0) {
    const double floods = trace.Counter("sampling.floods");
    result.layers["sampling.flood_ms"] =
        floods > 0 ? SelfMs(trace, "sampling.flood") / floods : 0.0;
    result.layers["sampling.floods"] = floods / kpairs;
    result.layers["index.query_ms"] = SelfMs(trace, "index.query") / kpairs;
    result.layers["index.reach_floods"] =
        trace.Counter("index.reach_floods") / kpairs;
    result.layers["index.reach_floods_per_source"] =
        trace.Counter("index.reach_floods") / static_cast<double>(sources);
    result.layers["index.reach_row_evictions"] =
        trace.Counter("index.reach_row_evictions") / kpairs;
    result.layers["query.answer_flood_ms"] =
        SelfMs(trace, "query.answer_flood") / kpairs;
    result.layers["query.answer_index_ms"] =
        SelfMs(trace, "query.answer_index") / kpairs;
    result.layers["query.floods"] = trace.Counter("query.floods") / kpairs;
    result.layers["query.index_answers"] =
        trace.Counter("query.index_answers") / kpairs;
    result.layers["query.cache_hit_ratio"] =
        trace.Counter("query.cache_hits") / (2.0 * static_cast<double>(pairs));
    result.layers["batch.glue_self_ms"] = SelfMs(trace, "batch") / kpairs;
  }
  result.layers["trace.p50_ms"] = NearestRank(answer_ms, 50) /
                                  (static_cast<double>(kBatchPairs) / 1000.0);
  AddTraceOverhead(trace, wall_s, &result);
  result.digest = digest.Hex();
  if (!config.trace_path.empty()) {
    trace.WriteJson(config.trace_path, {{"workload", "batch"},
                                        {"seed", std::to_string(config.seed)},
                                        {"digest", result.digest}});
  }
  return result;
}

}  // namespace

RunResult RunBatch(const RunConfig& config) {
  RunResult result;
  BatchInputs in;
  const double setup_s = MedianSetupSeconds(
      [&] { SetUp(config.seed, &in); },
      [&] {
        in.flood.reset();
        in.indexed.reset();
      });
  if (config.trace) return RunTraced(in, config, std::move(result));

  Trace off(false);
  Digest digest;
  double answer_sum = 0.0;
  size_t answered = 0;
  std::vector<double> flood_ms_per_kpair;
  std::vector<double> index_ms_per_kpair;
  const Clock::time_point deadline = After(Clock::now(), config.seconds);
  for (size_t b = 0; b < in.batches.size(); ++b) {
    if (b >= kMinBatches && Clock::now() >= deadline) break;
    double flood_ms = 0.0;
    double index_ms = 0.0;
    std::vector<double> answers;
    if (!AnswerBoth(in, b, &off, &result, &flood_ms, &index_ms, &answers)) {
      continue;
    }
    std::fprintf(stderr,
                 "perfbench: batch %zu: flood %.1f ms, indexed %.1f ms\n", b,
                 flood_ms, index_ms);
    const double kpairs = static_cast<double>(answers.size()) / 1000.0;
    flood_ms_per_kpair.push_back(flood_ms / kpairs);
    index_ms_per_kpair.push_back(index_ms / kpairs);
    for (double v : answers) {
      digest.AddDouble(v);
      answer_sum += v;
    }
    answered += answers.size();
  }
  if (Clock::now() < deadline) {
    result.problems.push_back(
        "ran out of distinct batches before the deadline");
  }
  result.digest = digest.Hex();
  result.end_to_end = {
      {"setup_s", setup_s},
      {"peak_rss_mb", PeakRssMb()},
      {"ok_frac", 1.0 - static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted)},
      {"p50_ms", NearestRank(flood_ms_per_kpair, 50)},
      {"tail_ms", NearestRank(index_ms_per_kpair, 50)},
      {"answer_mean",
       answered ? answer_sum / static_cast<double>(answered) : 0.0},
  };
  return result;
}

}  // namespace perfbench
