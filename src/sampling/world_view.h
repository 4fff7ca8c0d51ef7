#ifndef RELMAX_SAMPLING_WORLD_VIEW_H_
#define RELMAX_SAMPLING_WORLD_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/uncertain_graph.h"
#include "sampling/bitlane.h"

namespace relmax {

struct Partition;

/// One source-target reliability query: estimate R(s, t, G), the fraction of
/// worlds in which t is reachable from s.
struct StQuery {
  NodeId s = 0;
  NodeId t = 0;

  bool operator==(const StQuery& o) const { return s == o.s && t == o.t; }
};

/// Construction knobs shared by every world-view implementation.
struct WorldViewOptions {
  int num_samples = 500;
  uint64_t seed = 42;
  int num_threads = 1;
  /// Number of partition shards for the bank's bit-matrix. 1 (the default)
  /// is the flat WorldBank; >1 builds a ShardedWorldBank whose answers are
  /// bit-identical to the 1-shard canonical layout (the world draws are the
  /// same stream, only their storage destination differs).
  int num_partitions = 1;
};

/// Read-only view over Z sampled possible worlds: per-edge world bitsets
/// plus a word-parallel reachability fixpoint across all worlds at once.
/// The flat `WorldBank` and the partition-sharded `ShardedWorldBank` both
/// implement it, so consumers (evaluator, greedy scorer, batch engine,
/// reliability index) are agnostic to how the bit-matrix is laid out.
class WorldView {
 public:
  /// What ReachabilityFixpoint may assume about a reused `reach` matrix.
  ///
  /// kClearScratch (the default): `reach` is scratch; the flood wipes it
  /// and seeds only the source row. Use this unless you prepared `reach`.
  ///
  /// kSeedsAreFacts: every bit already set in `reach` is a known-reachable
  /// fact to propagate from (the caller pre-seeded rows, e.g. path-derived
  /// reachability). The flood must not clear them. If the matrix had to be
  /// reallocated to fit the requested shape, the seeds are gone and the
  /// flood degrades to kClearScratch semantics on a fresh matrix.
  enum class SeedPolicy { kClearScratch, kSeedsAreFacts };

  virtual ~WorldView() = default;

  virtual const UncertainGraph& universe() const = 0;
  virtual int num_worlds() const = 0;
  virtual size_t world_words() const = 0;
  /// Rows in the bank: the universe's edge count at construction time.
  virtual size_t num_edges() const = 0;
  virtual int num_shards() const = 0;
  /// Logical bytes (rows × world_words × 8, pad excluded) each shard's
  /// bit-matrix holds; size() == num_shards(). This is the quantity the
  /// per-shard `max_*_bank_bytes` budgets meter.
  virtual std::vector<size_t> ShardBankBytes() const = 0;
  /// The worlds where edge e is up, as a span of world_words() words.
  virtual std::span<const uint64_t> EdgeUpWorlds(EdgeId e) const = 0;
  /// Word-parallel multi-world reachability: after the call,
  /// reach->row(v) bit w is set iff `source` reaches v in world w using
  /// only `active` edges (plus any pre-seeded facts, see SeedPolicy).
  /// Returns the number of changed-block propagations — 0 means the input
  /// was already a fixpoint. Deterministic for a given (view, arguments):
  /// the fixpoint of the monotone word algebra is unique, so the result is
  /// invariant under lane kernel, thread count, and shard layout.
  virtual int64_t ReachabilityFixpoint(
      NodeId source, bool backward, const std::vector<EdgeId>& active,
      bitlane::BitMatrix* reach,
      SeedPolicy seeds = SeedPolicy::kClearScratch) const = 0;
  /// The partition behind a sharded view; nullptr for the flat bank.
  virtual const Partition* partition() const { return nullptr; }

  /// True iff edge e is up in world w.
  bool EdgePresent(int w, EdgeId e) const {
    return (EdgeUpWorlds(e)[static_cast<size_t>(w) >> 6] >> (w & 63)) & 1;
  }

  /// Bitwise AND of the up-worlds of `edges` (all-ones when empty): the
  /// worlds in which every listed edge is simultaneously up.
  std::vector<uint64_t> WorldsWithAllEdges(
      const std::vector<EdgeId>& edges) const;

  /// Fraction of worlds where s reaches t over `active` edges. When
  /// `seed_connected` is non-empty (world_words() words), those worlds are
  /// counted as connected without flooding them again.
  double ConnectedFraction(NodeId s, NodeId t,
                           const std::vector<EdgeId>& active,
                           std::vector<uint64_t> seed_connected = {}) const;

  /// All bank edge ids, ascending — the "everything is active" edge set.
  std::vector<EdgeId> AllEdges() const;

  /// Popcount of the first `limit` bits of `bits`.
  static int64_t CountBits(std::span<const uint64_t> bits, size_t limit);
};

/// Called on the flooding lane right after a source's flood, while its reach
/// matrix is live.
using FloodObserver =
    std::function<void(NodeId source, const bitlane::BitMatrix& reach)>;

/// Answers `pairs` with one flood per distinct source. Pairs are grouped by
/// source in first-appearance order; each source is flooded once over
/// `active` on a per-lane BitMatrix, across up to `num_threads` lanes, and
/// values[i] becomes the popcount of pairs[i].t's reach row over the world
/// count. `on_flood`, when set, sees every flood; it runs concurrently for
/// different sources. Each value depends only on (bank bits, pair), so the
/// result is bit-identical for any num_threads. Returns the floods run: the
/// number of distinct sources.
size_t FloodBySource(const WorldView& bank, const std::vector<EdgeId>& active,
                     std::span<const StQuery> pairs, int num_threads,
                     std::span<double> values,
                     const FloodObserver& on_flood = nullptr);

/// Builds the world view `options` asks for: the flat WorldBank when
/// num_partitions <= 1, a partition-sharded bank otherwise. Answers are
/// bit-identical either way (canonical-layout contract above).
std::unique_ptr<WorldView> MakeWorldView(const UncertainGraph& universe,
                                         const WorldViewOptions& options);

}  // namespace relmax

#endif  // RELMAX_SAMPLING_WORLD_VIEW_H_
