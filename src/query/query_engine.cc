#include "query/query_engine.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "common/logging.h"
#include "common/memory.h"
#include "common/timer.h"
#include "core/evaluate.h"
#include "sampling/parallel.h"
#include "sampling/reliability.h"
#include "sampling/rss.h"
#include "sampling/world_view.h"

namespace relmax {

QueryEngine::QueryEngine(const UncertainGraph& g,
                         const QueryEngineOptions& options)
    : graph_(g), options_(options), graph_version_(g.version()) {
  RELMAX_CHECK(options_.num_samples > 0);
}

WorldViewOptions QueryEngine::WorldOptions() const {
  return WorldViewOptions{.num_samples = options_.num_samples,
                          .seed = options_.seed,
                          .num_threads = options_.num_threads,
                          .num_partitions = options_.num_partitions};
}

void QueryEngine::SyncWithGraph() {
  if (graph_.version() == graph_version_) return;
  graph_version_ = graph_.version();
  // Memoized answers depend on edge probabilities: always stale.
  cache_.clear();
  cache_order_.clear();
  if (index_ != nullptr && UseIndex() && GraphExtendsIndexedShape()) {
    // Incremental maintenance: resample the bank — its bits are a pure
    // function of (probs, Z, seed), so this is exactly what a fresh engine
    // would hold — and relabel only the worlds whose edge presence changed.
    std::unique_ptr<WorldView> fresh = MakeWorldView(graph_, WorldOptions());
    index_->ApplyBankUpdate(*fresh,
                            ReliabilityIndex::DiffWorlds(*bank_, *fresh));
    bank_ = std::move(fresh);
    // The old bank may have read from the mapped file; with the freshly
    // sampled bank adopted, the mapping holds nothing live.
    index_mapping_ = MappedFile();
    all_edges_ = bank_->AllEdges();
    indexed_nodes_ = graph_.num_nodes();
    indexed_endpoints_.clear();
    for (const Edge& e : graph_.EdgesById()) {
      indexed_endpoints_.emplace_back(e.src, e.dst);
    }
    if (!options_.index_file.empty()) SaveIndexFile();
    return;
  }
  // Destruction order matters: the index reads the bank, the bank may read
  // the mapped file.
  index_.reset();
  bank_.reset();
  index_mapping_ = MappedFile();
  all_edges_.clear();
}

void QueryEngine::EnsureBank() {
  if (bank_ != nullptr) return;
  bank_ = MakeWorldView(graph_, WorldOptions());
  all_edges_ = bank_->AllEdges();
  indexed_nodes_ = graph_.num_nodes();
  indexed_endpoints_.clear();
  for (const Edge& e : graph_.EdgesById()) {
    indexed_endpoints_.emplace_back(e.src, e.dst);
  }
}

bool QueryEngine::GraphExtendsIndexedShape() const {
  if (graph_.num_nodes() != indexed_nodes_) return false;
  const std::vector<Edge>& edges = graph_.EdgesById();
  if (edges.size() < indexed_endpoints_.size()) return false;
  for (size_t e = 0; e < indexed_endpoints_.size(); ++e) {
    if (edges[e].src != indexed_endpoints_[e].first ||
        edges[e].dst != indexed_endpoints_[e].second) {
      return false;
    }
  }
  return true;
}

bool QueryEngine::UseSharedWorlds() const {
  if (!options_.reuse_worlds) return false;
  if (options_.estimator != Estimator::kMonteCarlo) return false;
  // Admission is per shard: one balanced shard of ceil(E / P) bank rows must
  // fit max_bank_bytes (P == 1 reduces to the old whole-bank check).
  const int shards = std::max(options_.num_partitions, 1);
  return BankBytes(BalancedShardRows(graph_.num_edges(), shards),
                   options_.num_samples) <= options_.max_bank_bytes &&
         BankBytes(static_cast<size_t>(graph_.num_nodes()),
                   options_.num_samples) <= options_.max_flood_bytes_per_lane;
}

bool QueryEngine::UseIndex() const {
  return (options_.use_index || !options_.index_file.empty()) &&
         UseSharedWorlds() &&
         ReliabilityIndex::Fits(graph_, options_.num_samples, options_.index);
}

void QueryEngine::TryLoadIndexFile() {
  ReliabilityIndex::Options index_options = options_.index;
  index_options.num_threads = options_.num_threads;
  StatusOr<LoadedIndex> loaded =
      LoadIndex(options_.index_file, graph_, WorldOptions(), index_options);
  if (!loaded.ok()) {
    if (loaded.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr,
                   "relmax: query engine: index file load failed (%s); "
                   "rebuilding the index from scratch\n",
                   loaded.status().ToString().c_str());
      ++index_io_stats_.load_failures;
    }
    return;
  }
  LoadedIndex li = std::move(loaded).value();
  index_mapping_ = std::move(li.mapping);
  bank_ = std::move(li.bank);
  index_ = std::move(li.index);
  all_edges_ = bank_->AllEdges();
  indexed_nodes_ = graph_.num_nodes();
  indexed_endpoints_.clear();
  for (const Edge& e : graph_.EdgesById()) {
    indexed_endpoints_.emplace_back(e.src, e.dst);
  }
  ++index_io_stats_.loads;
  index_io_stats_.generation = li.generation;
  index_io_stats_.file_bytes = li.file_bytes;
}

void QueryEngine::SaveIndexFile() {
  RELMAX_DCHECK(bank_ != nullptr && index_ != nullptr);
  const uint64_t generation = index_io_stats_.generation + 1;
  const StatusOr<size_t> saved = SaveIndex(*bank_, *index_, WorldOptions(),
                                           generation, options_.index_file);
  if (!saved.ok()) {
    std::fprintf(stderr,
                 "relmax: query engine: index file save failed (%s); "
                 "continuing without persistence\n",
                 saved.status().ToString().c_str());
    return;
  }
  ++index_io_stats_.saves;
  index_io_stats_.generation = generation;
  index_io_stats_.file_bytes = *saved;
}

void QueryEngine::ResolvePairs(const std::vector<StQuery>& pairs,
                               std::unordered_map<uint64_t, double>* resolved,
                               BatchStats* stats) {
  if (pairs.empty()) return;
  std::vector<double> values;
  if (UseIndex()) {
    // Load-else-build-and-save: a valid file for this (graph, options) key
    // adopts the mmap-ed bank and labels with no sampling or relabeling.
    if (index_ == nullptr && !options_.index_file.empty()) {
      TryLoadIndexFile();
    }
    EnsureBank();
    if (index_ == nullptr) {
      ReliabilityIndex::Options index_options = options_.index;
      index_options.num_threads = options_.num_threads;
      index_ = std::make_unique<ReliabilityIndex>(*bank_, index_options);
      if (!options_.index_file.empty()) SaveIndexFile();
    }
    // Every answer is a pure function of the bank bits, so batch order and
    // thread count cannot matter.
    values = index_->QueryBatch(pairs);
    stats->index_answers += pairs.size();
  } else if (UseSharedWorlds()) {
    EnsureBank();
    values.resize(pairs.size());
    stats->floods += FloodBySource(*bank_, all_edges_, pairs,
                                   options_.num_threads, values);
  } else {
    values = EstimatePairs(pairs, stats);
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    (*resolved)[PairKey(pairs[i].s, pairs[i].t)] = values[i];
  }
}

std::vector<double> QueryEngine::EstimatePairs(
    const std::vector<StQuery>& pairs, BatchStats* stats) const {
  // When the caller *asked* for shared worlds (MC + reuse_worlds) and only the
  // footprint caps pushed us here, that is a silent 10-100x slowdown unless
  // we surface it.
  if (options_.reuse_worlds && options_.estimator == Estimator::kMonteCarlo) {
    const int shards = std::max(options_.num_partitions, 1);
    const size_t shard_bytes =
        BankBytes(BalancedShardRows(graph_.num_edges(), shards),
                  options_.num_samples);
    const size_t flood_bytes = BankBytes(
        static_cast<size_t>(graph_.num_nodes()), options_.num_samples);
    if (shard_bytes > options_.max_bank_bytes) {
      NoteBankFallback("query engine", shard_bytes, options_.max_bank_bytes,
                       shards);
    } else {
      NoteBankFallback("query engine (flood lane)", flood_bytes,
                       options_.max_flood_bytes_per_lane);
    }
    ++stats->bank_fallbacks;
  }
  std::vector<double> values(pairs.size());
  if (options_.estimator == Estimator::kRss) {
    RssOptions rss = options_.rss;
    rss.num_samples = options_.num_samples;
    rss.seed = options_.seed;
    rss.num_threads = options_.num_threads;
    for (size_t i = 0; i < pairs.size(); ++i) {
      values[i] = EstimateReliabilityRss(graph_, pairs[i].s, pairs[i].t, rss);
    }
  } else {
    const SampleOptions mc{.num_samples = options_.num_samples,
                           .seed = options_.seed,
                           .num_threads = options_.num_threads};
    for (size_t i = 0; i < pairs.size(); ++i) {
      values[i] = EstimateReliability(graph_, pairs[i].s, pairs[i].t, mc);
    }
  }
  stats->fallback_estimates += pairs.size();
  return values;
}

StatusOr<BatchResult> QueryEngine::Answer(const QuerySet& set) {
  RELMAX_RETURN_IF_ERROR(set.Validate(graph_));
  SyncWithGraph();
  WallTimer timer;
  BatchResult result;
  result.stats.num_queries = set.size();

  // Deduplicate the (s, t) pairs the batch needs, across all query kinds, in
  // first-appearance order; pairs already memoized are cache hits.
  std::vector<StQuery> needed;
  std::unordered_set<uint64_t> seen;
  auto want = [&](NodeId s, NodeId t) {
    if (!seen.insert(PairKey(s, t)).second) return;
    if (cache_.count(PairKey(s, t)) != 0) {
      ++result.stats.cache_hits;
      return;
    }
    needed.push_back({s, t});
  };
  for (const StQuery& q : set.st_queries()) want(q.s, q.t);
  for (const AggregateQuery& q : set.aggregate_queries()) {
    for (NodeId s : q.sources) {
      for (NodeId t : q.targets) want(s, t);
    }
  }
  for (const TopKQuery& q : set.top_k_queries()) {
    for (const StQuery& c : q.candidates) want(c.s, c.t);
  }
  result.stats.distinct_pairs = seen.size();

  std::unordered_map<uint64_t, double> resolved;
  ResolvePairs(needed, &resolved, &result.stats);

  const auto value = [&](NodeId s, NodeId t) {
    const auto it = resolved.find(PairKey(s, t));
    if (it != resolved.end()) return it->second;
    const auto cached = cache_.find(PairKey(s, t));
    RELMAX_CHECK(cached != cache_.end());
    return cached->second;
  };

  result.st_values.reserve(set.st_queries().size());
  for (const StQuery& q : set.st_queries()) {
    result.st_values.push_back(value(q.s, q.t));
  }
  for (const AggregateQuery& q : set.aggregate_queries()) {
    std::vector<std::vector<double>> matrix(q.sources.size());
    for (size_t i = 0; i < q.sources.size(); ++i) {
      matrix[i].reserve(q.targets.size());
      for (NodeId t : q.targets) matrix[i].push_back(value(q.sources[i], t));
    }
    result.aggregate_values.push_back(AggregateMatrix(matrix, q.aggregate));
  }
  for (const TopKQuery& q : set.top_k_queries()) {
    std::vector<std::pair<size_t, double>> scored;
    scored.reserve(q.candidates.size());
    for (size_t i = 0; i < q.candidates.size(); ++i) {
      scored.emplace_back(i, value(q.candidates[i].s, q.candidates[i].t));
    }
    // stable_sort keeps candidate order among equal reliabilities, so the
    // ranking is deterministic and documented.
    std::stable_sort(scored.begin(), scored.end(),
                     [](const std::pair<size_t, double>& a,
                        const std::pair<size_t, double>& b) {
                       return a.second > b.second;
                     });
    const size_t k = std::min(static_cast<size_t>(q.k), scored.size());
    scored.resize(k);
    result.top_k.push_back(std::move(scored));
  }

  if (options_.cache_results) {
    // Insert in the deterministic deduplicated `needed` order (never map
    // iteration order), so eviction victims are identical across runs.
    for (const StQuery& q : needed) {
      const uint64_t key = PairKey(q.s, q.t);
      if (cache_.emplace(key, resolved.at(key)).second) {
        cache_order_.push_back(key);
      }
    }
    while (cache_.size() > options_.max_cache_entries &&
           !cache_order_.empty()) {
      cache_.erase(cache_order_.front());
      cache_order_.pop_front();
      ++result.stats.cache_evictions;
    }
  }
  if (bank_ != nullptr) {
    result.stats.shard_bank_bytes = bank_->ShardBankBytes();
  }
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

StatusOr<double> QueryEngine::EstimateSt(NodeId s, NodeId t) {
  QuerySet set;
  set.AddSt(s, t);
  const StatusOr<BatchResult> result = Answer(set);
  if (!result.ok()) return result.status();
  return result->st_values[0];
}

}  // namespace relmax
