// `solve`: closed loop over MaximizeReliability (BE) on dblp --scale 0.1
// (undirected, 2000 nodes), 3-5-hop query pairs, default SolverOptions at 2
// threads — the paper's Problem 1 as its full version runs it. Loads
// sampling (Monte Carlo) and paths (Yen); never touches query, index or
// serve.
#include <unordered_set>

#include "common/timer.h"
#include "core/candidates.h"
#include "core/evaluate.h"
#include "core/selection.h"
#include "core/solver.h"
#include "gen/datasets.h"
#include "gen/queries.h"
#include "paths/yen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using relmax::NodeId;

// Distinct queries per run. Solve time varies widely between queries, so a
// small pool makes the percentiles depend on which queries the seed drew;
// 500 keeps that within a few percent. The loop cycles through the pool and
// solves each query at least once; repeats double as a determinism check.
constexpr int kPoolSize = 500;
constexpr size_t kMinSolves = kPoolSize;

struct SolveInputs {
  relmax::UncertainGraph graph = relmax::UncertainGraph::Undirected(0);
  std::vector<std::pair<NodeId, NodeId>> queries;
};

SolveInputs SetUp(uint64_t seed) {
  SolveInputs in;
  auto dataset = relmax::MakeDataset("dblp", 0.1);
  RELMAX_CHECK(dataset.ok());
  in.graph = std::move(dataset->graph);
  relmax::QueryGenOptions gen;
  gen.seed = seed;
  auto queries = relmax::GenerateQueries(in.graph, kPoolSize, gen);
  RELMAX_CHECK(queries.ok());
  in.queries = std::move(*queries);
  return in;
}

relmax::SolverOptions Options() {
  relmax::SolverOptions options;
  options.num_threads = 2;
  return options;
}

bool SameSolution(const relmax::Solution& a, const relmax::Solution& b) {
  return a.added_edges == b.added_edges &&
         a.reliability_before == b.reliability_before &&
         a.reliability_after == b.reliability_after;
}

void AddToDigest(const relmax::Solution& s, Digest* digest) {
  for (const relmax::Edge& e : s.added_edges) {
    digest->AddU64(e.src);
    digest->AddU64(e.dst);
  }
  digest->AddDouble(s.reliability_before);
  digest->AddDouble(s.reliability_after);
}

// MaximizeReliability's BE pipeline re-composed from the modules' public
// functions, one span per stage. Returns the solution it arrives at.
relmax::Solution Recompose(const relmax::UncertainGraph& g, NodeId s, NodeId t,
                           const relmax::SolverOptions& options, Trace* trace) {
  Trace::Scope root(trace, "solve");
  relmax::Solution out;
  relmax::CandidateSet candidates;
  {
    Trace::Scope span(trace, "core.candidates");
    auto selected = relmax::SelectCandidates(g, s, t, options);
    RELMAX_CHECK(selected.ok());
    candidates = std::move(*selected);
  }
  trace->Count("core.candidate_edges", candidates.edges.size());
  {
    Trace::Scope span(trace, "sampling.mc_estimate");
    out.reliability_before =
        relmax::EstimateWithOptions(g, s, t, options, 0xbefe);
  }
  relmax::UncertainGraph g_plus = relmax::UncertainGraph::Undirected(0);
  relmax::UncertainGraph sub = relmax::UncertainGraph::Undirected(0);
  std::vector<NodeId> nodes;
  {
    Trace::Scope span(trace, "graph.augment");
    g_plus = relmax::AugmentGraph(g, candidates.edges);
    // The solver's node order for the eliminated subgraph: s, t, C(s), C(t).
    std::unordered_set<NodeId> seen;
    auto push = [&](NodeId v) {
      if (seen.insert(v).second) nodes.push_back(v);
    };
    push(s);
    push(t);
    for (NodeId v : candidates.from_source) push(v);
    for (NodeId v : candidates.to_target) push(v);
    for (const relmax::Edge& e : candidates.edges) {
      push(e.src);
      push(e.dst);
    }
    auto induced = g_plus.InducedSubgraph(nodes);
    RELMAX_CHECK(induced.ok());
    sub = std::move(*induced);
  }
  std::vector<relmax::PathResult> paths;
  {
    Trace::Scope span(trace, "paths.top_l");
    paths = relmax::TopLReliablePaths(sub, 0, 1, options.top_l);
  }
  for (relmax::PathResult& path : paths) {
    for (NodeId& v : path.nodes) v = nodes[v];
  }
  trace->Count("paths.paths_found", paths.size());
  std::vector<int> chosen;
  {
    Trace::Scope span(trace, "core.select_edges");
    const auto annotated =
        relmax::AnnotatePaths(g_plus, paths, candidates.edges);
    chosen = relmax::SelectEdgesByPathBatches(g_plus, s, t, annotated, options);
  }
  for (int i : chosen) out.added_edges.push_back(candidates.edges[i]);
  if (out.added_edges.empty()) {
    out.reliability_after = out.reliability_before;
    return out;
  }
  relmax::UncertainGraph g_after = relmax::UncertainGraph::Undirected(0);
  {
    Trace::Scope span(trace, "graph.augment");
    g_after = relmax::AugmentGraph(g, out.added_edges);
  }
  {
    Trace::Scope span(trace, "sampling.mc_estimate");
    out.reliability_after =
        relmax::EstimateWithOptions(g_after, s, t, options, 0xafe);
  }
  return out;
}

RunResult RunTraced(const SolveInputs& in, const RunConfig& config,
                    RunResult result) {
  const relmax::SolverOptions options = Options();
  Trace trace(true);
  Digest digest;
  double solver_ms = 0.0;
  double covered_ms = 0.0;
  std::vector<double> recompose_ms;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = After(start, config.seconds);
  size_t solved = 0;
  for (const auto& [s, t] : in.queries) {
    if (solved >= 20 && Clock::now() >= deadline) break;
    ++solved;
    relmax::WallTimer timer;
    auto reference = relmax::MaximizeReliability(in.graph, s, t, options);
    solver_ms += timer.ElapsedMillis();
    ++result.attempted;
    if (!reference.ok()) {
      ++result.failed;
      result.problems.push_back("solve failed: " +
                                reference.status().ToString());
      continue;
    }
    const size_t root = trace.spans().size();
    const relmax::Solution recomposed =
        Recompose(in.graph, s, t, options, &trace);
    recompose_ms.push_back(trace.spans()[root].end_ms -
                           trace.spans()[root].start_ms);
    for (size_t i = root + 1; i < trace.spans().size(); ++i) {
      const Span& span = trace.spans()[i];
      if (span.parent == static_cast<int>(root)) {
        covered_ms += span.end_ms - span.start_ms;
      }
    }
    if (!SameSolution(recomposed, *reference)) {
      result.correct = false;
      result.problems.push_back(
          "stage-by-stage recomposition disagrees with MaximizeReliability "
          "(edges or reliabilities) for (" +
          std::to_string(s) + ", " + std::to_string(t) + ")");
    }
    AddToDigest(*reference, &digest);
    // SelectCandidates runs the elimination Monte Carlo inside itself; this
    // probe repeats the same calls (same seeds) so their share can be
    // subtracted from the candidates span.
    Trace::Scope probe(&trace, "sampling.mc_elim");
    relmax::FromSourceWithOptions(in.graph, s, options);
    relmax::ToTargetWithOptions(in.graph, t, options);
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double n = static_cast<double>(recompose_ms.size());
  auto per_solve = [&](const std::string& name) {
    return n > 0 ? SelfMs(trace, name) / n : 0.0;
  };
  result.layers["sampling.mc_elim_ms"] = per_solve("sampling.mc_elim");
  result.layers["sampling.mc_estimate_ms"] = per_solve("sampling.mc_estimate");
  result.layers["core.candidates_self_ms"] =
      per_solve("core.candidates") - per_solve("sampling.mc_elim");
  result.layers["graph.augment_ms"] = per_solve("graph.augment");
  result.layers["paths.top_l_ms"] = per_solve("paths.top_l");
  result.layers["core.select_edges_ms"] = per_solve("core.select_edges");
  result.layers["solve.glue_self_ms"] = per_solve("solve");
  if (n > 0) {
    result.layers["core.candidate_edges"] =
        trace.Counter("core.candidate_edges") / n;
    result.layers["paths.paths_found"] =
        trace.Counter("paths.paths_found") / n;
  }
  result.layers["solve.trace_coverage"] =
      solver_ms > 0 ? covered_ms / solver_ms : 0.0;
  result.layers["trace.p50_ms"] = NearestRank(recompose_ms, 50);
  AddTraceOverhead(trace, wall_s, &result);
  result.digest = digest.Hex();
  if (!config.trace_path.empty()) {
    trace.WriteJson(config.trace_path, {{"workload", "solve"},
                                        {"seed", std::to_string(config.seed)},
                                        {"digest", result.digest}});
  }
  return result;
}

}  // namespace

RunResult RunSolve(const RunConfig& config) {
  RunResult result;
  SolveInputs in;
  const double setup_s =
      MedianSetupSeconds([&] { in = SetUp(config.seed); });
  if (config.trace) return RunTraced(in, config, std::move(result));

  const relmax::SolverOptions options = Options();
  LatencyLog log;
  std::vector<relmax::Solution> first(in.queries.size());
  std::vector<bool> solved(in.queries.size(), false);
  const Clock::time_point deadline = After(Clock::now(), config.seconds);
  for (size_t i = 0; log.attempted() < kMinSolves || Clock::now() < deadline;
       i = (i + 1) % in.queries.size()) {
    const auto [s, t] = in.queries[i];
    const Clock::time_point begin = Clock::now();
    auto solution = relmax::MaximizeReliability(in.graph, s, t, options);
    const double ms = MsBetween(begin, Clock::now());
    if (!solution.ok()) {
      log.Fail();
      result.problems.push_back("solve failed: " +
                                solution.status().ToString());
      continue;
    }
    log.Ok(ms);
    if (!solved[i]) {
      first[i] = std::move(*solution);
      solved[i] = true;
    } else if (!SameSolution(first[i], *solution)) {
      result.correct = false;
      result.problems.push_back("repeated solve of query " + std::to_string(i) +
                                " gave a different solution");
    }
  }
  const double peak_rss_mb = PeakRssMb();

  Digest digest;
  double gain_sum = 0.0;
  size_t distinct = 0;
  for (size_t i = 0; i < first.size(); ++i) {
    if (!solved[i]) continue;
    AddToDigest(first[i], &digest);
    gain_sum += first[i].gain();
    ++distinct;
  }
  result.attempted = log.attempted();
  result.failed = log.failed();
  result.digest = digest.Hex();
  result.end_to_end = {
      {"setup_s", setup_s},
      {"peak_rss_mb", peak_rss_mb},
      {"ok_frac", 1.0 - static_cast<double>(log.failed()) /
                            static_cast<double>(log.attempted())},
      {"p50_ms", log.Percentile(50)},
      {"tail_ms", log.Percentile(90)},
      {"answer_mean",
       distinct ? gain_sum / static_cast<double>(distinct) : 0.0},
  };
  return result;
}

}  // namespace perfbench
