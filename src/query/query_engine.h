#ifndef RELMAX_QUERY_QUERY_ENGINE_H_
#define RELMAX_QUERY_QUERY_ENGINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "graph/uncertain_graph.h"
#include "index/index_io.h"
#include "index/reliability_index.h"
#include "query/query_set.h"
#include "sampling/world_bank.h"

namespace relmax {

/// Knobs for the batch query engine. The estimator fields mirror
/// SolverOptions so CLI/bench flag plumbing stays uniform.
struct QueryEngineOptions {
  /// Number of sampled possible worlds Z shared by the whole batch.
  int num_samples = 2000;
  /// RNG seed; every answer is a pure function of (graph version, estimator,
  /// seed, Z, query) — independent of batch composition and thread count.
  uint64_t seed = 42;
  /// Worker lanes (<= 0 means all hardware threads). Answers are
  /// bit-identical for a fixed seed regardless of this value.
  int num_threads = 1;
  /// Estimator for reliability values. The shared-world fast path applies to
  /// Monte Carlo; RSS keeps its stratified per-query streams.
  Estimator estimator = Estimator::kMonteCarlo;
  /// Answer the whole batch from one shared WorldBank (sample Z worlds once,
  /// one word-parallel flood per distinct source). When off, every pair is
  /// estimated independently — exactly EstimateReliability(g, s, t) under
  /// the same (Z, seed, threads).
  bool reuse_worlds = true;
  /// Answer from the offline per-world connectivity index (src/index):
  /// labels are built once over the shared bank and every query becomes a
  /// popcount — bit-identical to the flood path over the same bank. Applies
  /// on top of reuse_worlds; when the index is disabled or over its caps the
  /// engine floods exactly as before.
  bool use_index = false;
  /// Persistent index file (index/index_io.h). Non-empty implies use_index.
  /// On the first indexed batch the engine tries to mmap-load this file
  /// (O(file size), no sampling or relabeling); a missing file is built and
  /// saved silently, while a stale or corrupt one warns on stderr and falls
  /// back to a full rebuild (then republishes). Incremental relabels after a
  /// graph mutation republish atomically (write-temp + rename) with the
  /// header's generation counter bumped.
  std::string index_file;
  /// Partition shards for the shared bank (`--partitions`). 1 keeps the
  /// flat WorldBank; >1 edge-cut partitions the graph and shards the bank's
  /// bit-matrix, turning max_bank_bytes into a per-shard budget. Answers
  /// are bit-identical for any value — the sharded fill replays the flat
  /// bank's canonical draw stream and floods converge to the same fixpoint.
  int num_partitions = 1;
  /// Footprint caps forwarded to the index (label planes, directed reach
  /// cache). num_threads is overridden by the engine's own knob.
  ReliabilityIndex::Options index;
  /// Remember per-pair answers across Answer() calls. Entries are keyed by
  /// the full determinism tuple — (graph version(), estimator, seed, Z,
  /// query); the first four are fixed per engine, so the cache stores
  /// (query -> value) and is dropped wholesale when the graph mutates.
  bool cache_results = true;
  /// Entry cap for that cache: oldest first-inserted pairs are evicted once
  /// the cap is crossed, so a long-lived engine's memory stays bounded under
  /// serving-style workloads. Generous by default (16 bytes per entry).
  size_t max_cache_entries = size_t{1} << 20;
  /// RSS-specific knobs when estimator == kRss (num_samples/seed/threads
  /// above override the matching RssOptions fields).
  RssOptions rss;
  /// Footprint caps for the shared-world fast path (mirroring the greedy
  /// baselines' bank cap): the bank is edges × worlds bits **per shard**
  /// (one balanced shard of ceil(E / num_partitions) rows is metered
  /// against max_bank_bytes, so more partitions admit bigger graphs), and
  /// each flood lane additionally holds a nodes × worlds reach matrix.
  /// Beyond either cap the engine falls back to per-query estimation rather
  /// than swapping; each such batch bumps BatchStats::bank_fallbacks and
  /// warns on stderr with the per-shard MiB wanted vs the cap.
  size_t max_bank_bytes = size_t{256} << 20;
  size_t max_flood_bytes_per_lane = size_t{64} << 20;
};

/// Engine-lifetime accounting for the persistent index file
/// (QueryEngineOptions::index_file). Monotonic except `generation` and
/// `file_bytes`, which track the most recent load or save.
struct IndexIoStats {
  /// Successful mmap-loads (index adopted with no rebuild).
  size_t loads = 0;
  /// Successful saves (fresh build or incremental republish).
  size_t saves = 0;
  /// Loads that failed for any reason other than the file not existing
  /// (each also warns on stderr before the engine rebuilds from scratch).
  size_t load_failures = 0;
  /// Generation of the current on-disk file (header counter; bumped on
  /// every republish).
  uint64_t generation = 0;
  /// Byte size of the current on-disk file.
  size_t file_bytes = 0;
};

/// Per-batch accounting, reported alongside the answers.
struct BatchStats {
  /// Total queries answered (all kinds).
  size_t num_queries = 0;
  /// Distinct (s, t) pairs the batch needed.
  size_t distinct_pairs = 0;
  /// Pairs served from the result cache (previous Answer() calls on the
  /// same graph version).
  size_t cache_hits = 0;
  /// Shared-world reachability floods actually run — one per distinct
  /// source among the non-cached pairs.
  size_t floods = 0;
  /// Pairs estimated independently on the per-query fallback path (shared
  /// worlds disabled or over the footprint cap). Previously misreported
  /// under `floods`.
  size_t fallback_estimates = 0;
  /// Times this batch *wanted* the shared-world fast path but fell off it
  /// because the bank/flood footprint caps were exceeded (0 when shared
  /// worlds are simply disabled or a non-MC estimator is configured). Each
  /// increment also warns once on stderr; the process-wide total is
  /// BankFallbackCount().
  size_t bank_fallbacks = 0;
  /// Pairs answered by the offline reliability index (no flood).
  size_t index_answers = 0;
  /// Result-cache entries evicted by this batch (max_cache_entries cap).
  size_t cache_evictions = 0;
  /// Logical bank bytes held per shard (WorldView::ShardBankBytes) — one
  /// entry for the flat bank, num_partitions entries for a sharded one;
  /// empty when no bank was built (fallback path / shared worlds off).
  std::vector<size_t> shard_bank_bytes;
  double seconds = 0.0;
};

/// Answers to one QuerySet, parallel to each kind's insertion order.
struct BatchResult {
  /// st_values[i] answers set.st_queries()[i].
  std::vector<double> st_values;
  /// aggregate_values[i] answers set.aggregate_queries()[i].
  std::vector<double> aggregate_values;
  /// top_k[i] answers set.top_k_queries()[i]: (candidate index, reliability)
  /// sorted by descending reliability, ties broken by candidate order.
  std::vector<std::vector<std::pair<size_t, double>>> top_k;
  BatchStats stats;
};

/// Batch multi-query reliability engine: many queries against one uncertain
/// graph, answered from one shared set of sampled worlds.
///
/// The paper's estimators pay Z sampled worlds per (s, t) query; under
/// multi-query traffic that re-sampling is almost entirely redundant. The
/// engine samples Z worlds once into a WorldBank (edges × worlds bit-matrix)
/// and runs one word-parallel reachability flood per **distinct source**:
/// `reach[v]` bit w says "v reachable from s in world w", so every query
/// sharing that source — s-t pairs, aggregate matrix cells, top-k candidates
/// — is a popcount of the flood's target row. Floods for different sources
/// are independent and fan out across the sampling thread pool; each answer
/// depends only on (bank bits, source), so results are **bit-identical for
/// any num_threads** and for any batch composition or order.
///
/// With `use_index` the engine goes one step further: it builds a
/// ReliabilityIndex (per-world component/SCC labels) over the bank once.
/// Undirected queries and directed pairs in one SCC in every world become
/// label popcounts with no flood; the directed residual floods once per
/// distinct uncached source through the same source-grouped loop
/// (FloodBySource) on num_threads lanes. Answers are bit-identical to the
/// flood path by construction. See src/index/reliability_index.h.
///
/// Answers are memoized: a pair asked again while the graph's version() is
/// unchanged is free. Any mutation (AddEdge/UpdateEdgeProb/assignment)
/// invalidates the cache on the next Answer(); a live index additionally
/// attempts incremental maintenance — resample the bank, relabel only the
/// worlds whose sampled edge presence actually changed — before falling back
/// to a wholesale rebuild.
///
/// The engine is not internally synchronized: Answer() mutates the cache,
/// so concurrent callers must serialize (or use one engine per thread —
/// answers are identical by construction).
class QueryEngine {
 public:
  /// `g` must outlive the engine.
  QueryEngine(const UncertainGraph& g, const QueryEngineOptions& options);

  /// Answers every query in `set`. Fails on validation errors (out-of-range
  /// nodes, empty aggregate sets, k < 1) without computing anything.
  StatusOr<BatchResult> Answer(const QuerySet& set);

  /// Single-pair convenience: exactly Answer() of a one-query batch.
  /// Propagates validation errors (out-of-range nodes) instead of aborting.
  StatusOr<double> EstimateSt(NodeId s, NodeId t);

  const UncertainGraph& graph() const { return graph_; }
  const QueryEngineOptions& options() const { return options_; }

  /// Pairs currently memoized (test/introspection hook).
  size_t cache_size() const { return cache_.size(); }

  /// The live reliability index, or nullptr when disabled / not yet built /
  /// over its caps (test/CLI introspection hook).
  const ReliabilityIndex* index() const { return index_.get(); }

  /// Persistent-index accounting (zeroes when options.index_file is empty).
  const IndexIoStats& index_io_stats() const { return index_io_stats_; }

 private:
  // Resyncs engine state after a graph mutation. The result cache always
  // drops (answers depend on probabilities). With a live index whose graph
  // shape is only extended (same nodes, same existing-edge endpoints), the
  // bank is resampled — bit-identical to a fresh engine's, bank bits being a
  // pure function of (probs, Z, seed) — and only the worlds whose edge
  // presence changed are relabeled; otherwise bank and index drop wholesale.
  void SyncWithGraph();

  // Samples the shared WorldBank if absent and snapshots the graph shape it
  // was built against.
  void EnsureBank();

  // True when the current graph is the indexed shape plus (possibly) new
  // edges — the prerequisite for incremental index maintenance.
  bool GraphExtendsIndexedShape() const;

  // Resolves reliabilities for `pairs` (deduplicated (s, t) keys), filling
  // `resolved` and `stats`: through the index, one flood per distinct
  // source (FloodBySource), or per-pair estimates, as configured.
  void ResolvePairs(const std::vector<StQuery>& pairs,
                    std::unordered_map<uint64_t, double>* resolved,
                    BatchStats* stats);

  // Per-pair fallback: each pair estimated independently, exactly the
  // single-query public API under the same (Z, seed, threads).
  std::vector<double> EstimatePairs(const std::vector<StQuery>& pairs,
                                    BatchStats* stats) const;

  static uint64_t PairKey(NodeId s, NodeId t) {
    return (static_cast<uint64_t>(s) << 32) | t;
  }

  // True when the shared-world path is active (MC estimator, reuse enabled,
  // bank footprint under the cap).
  bool UseSharedWorlds() const;

  // True when queries should resolve through the reliability index (on top
  // of UseSharedWorlds, the label planes must fit their cap). A non-empty
  // options_.index_file implies use_index.
  bool UseIndex() const;

  // The WorldViewOptions every bank build / load / save keys on.
  WorldViewOptions WorldOptions() const;

  // Attempts to adopt bank + index from options_.index_file. NotFound is
  // silent (the build path will save); any other failure warns on stderr
  // and leaves the engine to rebuild from scratch.
  void TryLoadIndexFile();

  // Republishes bank + index to options_.index_file (write-temp + rename)
  // with the generation counter bumped. Failure warns on stderr only — the
  // in-memory engine stays fully functional.
  void SaveIndexFile();

  const UncertainGraph& graph_;
  QueryEngineOptions options_;
  uint64_t graph_version_;
  // Declared before bank_/index_ so it is destroyed after them: a loaded
  // bank's bit rows point into this read-only mapping (zero copy).
  MappedFile index_mapping_;
  std::unique_ptr<WorldView> bank_;
  std::unique_ptr<ReliabilityIndex> index_;
  std::vector<EdgeId> all_edges_;
  // Graph shape the bank was sampled against: node count plus the endpoints
  // of every edge, in id order. Incremental maintenance requires the mutated
  // graph to extend this shape (UpdateEdgeProb/AddEdge do; wholesale
  // assignment usually does not).
  NodeId indexed_nodes_ = 0;
  std::vector<std::pair<NodeId, NodeId>> indexed_endpoints_;
  // pair key -> reliability, valid for graph_version_ only, capped at
  // options_.max_cache_entries with first-inserted-first-evicted order.
  std::unordered_map<uint64_t, double> cache_;
  std::deque<uint64_t> cache_order_;
  IndexIoStats index_io_stats_;
};

}  // namespace relmax

#endif  // RELMAX_QUERY_QUERY_ENGINE_H_
