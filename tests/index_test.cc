// ReliabilityIndex: per-world component/SCC labels must reproduce the
// word-parallel flood bit-for-bit (undirected and directed), incremental
// maintenance must equal a full rebuild while touching only the affected
// worlds, the directed residual must flood each uncached source once per
// batch, and the reach-count cache must stay under its cap, admit what FIFO
// would keep, and never change answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "graph/uncertain_graph.h"
#include "index/reliability_index.h"
#include "sampling/bitlane.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

UncertainGraph RandomGraph(uint64_t seed, NodeId n, double density,
                           bool directed) {
  Rng rng(seed);
  UncertainGraph g =
      directed ? UncertainGraph::Directed(n) : UncertainGraph::Undirected(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || g.HasEdge(u, v)) continue;
      if (rng.NextBernoulli(density)) {
        EXPECT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.05, 0.95)).ok());
      }
    }
  }
  return g;
}

std::vector<uint64_t> FloodRow(const WorldBank& bank, NodeId s, NodeId t) {
  bitlane::BitMatrix reach;
  bank.ReachabilityFixpoint(s, /*backward=*/false, bank.AllEdges(), &reach);
  const std::span<const uint64_t> row = reach.row_span(t);
  return std::vector<uint64_t>(row.begin(), row.end());
}

TEST(ReliabilityIndexTest, ConnectedWorldsMatchFloodBitwise) {
  for (const bool directed : {false, true}) {
    // 200 worlds: 4 words with a partial tail, so tail masking is exercised.
    const UncertainGraph g = RandomGraph(101, 13, 0.2, directed);
    const WorldBank bank(g, {.num_samples = 200, .seed = 5});
    ReliabilityIndex index(bank, {});
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        EXPECT_EQ(index.ConnectedWorlds(s, t), FloodRow(bank, s, t))
            << "directed = " << directed << " (" << s << ", " << t << ")";
      }
    }
  }
}

TEST(ReliabilityIndexTest, QueryEqualsConnectedFraction) {
  const UncertainGraph g = RandomGraph(103, 10, 0.3, false);
  const WorldBank bank(g, {.num_samples = 128, .seed = 9});
  ReliabilityIndex index(bank, {});
  for (NodeId t = 1; t < g.num_nodes(); ++t) {
    EXPECT_EQ(index.Query(0, t),
              bank.ConnectedFraction(0, t, bank.AllEdges(), {}))
        << "t = " << t;
  }
}

TEST(ReliabilityIndexTest, LabelsAreThreadInvariant) {
  const UncertainGraph g = RandomGraph(107, 12, 0.25, true);
  const WorldBank bank(g, {.num_samples = 320, .seed = 11});
  ReliabilityIndex one(bank, {.num_threads = 1});
  ReliabilityIndex four(bank, {.num_threads = 4});
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_EQ(one.ConnectedWorlds(s, t), four.ConnectedWorlds(s, t));
    }
  }
}

TEST(ReliabilityIndexTest, StronglyConnectedWorldNeedsNoFlood) {
  // A certain 3-cycle is one SCC in every world: every pair answers from the
  // label planes alone, so the lazy flood never runs.
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, 1.0).ok());
  const WorldBank bank(g, {.num_samples = 96, .seed = 3});
  ReliabilityIndex index(bank, {});
  for (NodeId s = 0; s < 3; ++s) {
    for (NodeId t = 0; t < 3; ++t) {
      EXPECT_DOUBLE_EQ(index.Query(s, t), 1.0);
    }
  }
  EXPECT_EQ(index.stats().reach_floods, 0u);
}

TEST(ReliabilityIndexTest, DiffWorldsFindsExactlyTheChangedWorlds) {
  UncertainGraph g = RandomGraph(109, 8, 0.4, false);
  const WorldBank before(g, {.num_samples = 200, .seed = 21});
  const Edge edge = g.EdgesById()[1];
  ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, edge.prob * 0.5).ok());
  const WorldBank after(g, {.num_samples = 200, .seed = 21});

  const std::vector<uint64_t> mask =
      ReliabilityIndex::DiffWorlds(before, after);
  for (int w = 0; w < 200; ++w) {
    bool differs = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (before.EdgePresent(w, e) != after.EdgePresent(w, e)) differs = true;
    }
    EXPECT_EQ(((mask[w >> 6] >> (w & 63)) & 1) != 0, differs) << "w = " << w;
  }
  // Interior probabilities consume one draw regardless of their value, so
  // only the updated edge's row can differ — some but not all worlds flip.
  const int64_t affected = WorldBank::CountBits(mask, 200);
  EXPECT_GT(affected, 0);
  EXPECT_LT(affected, 200);
}

TEST(ReliabilityIndexTest, ApplyBankUpdateEqualsFullRebuild) {
  for (const bool directed : {false, true}) {
    UncertainGraph g = RandomGraph(113, 10, 0.3, directed);
    const WorldBank before(g, {.num_samples = 256, .seed = 13});
    ReliabilityIndex incremental(before, {});

    const Edge edge = g.EdgesById()[0];
    ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, edge.prob * 0.6).ok());
    const WorldBank after(g, {.num_samples = 256, .seed = 13});
    const std::vector<uint64_t> mask =
        ReliabilityIndex::DiffWorlds(before, after);
    incremental.ApplyBankUpdate(after, mask);
    EXPECT_EQ(incremental.stats().incremental_updates, 1u);
    EXPECT_EQ(incremental.stats().last_update_worlds,
              static_cast<size_t>(WorldBank::CountBits(mask, 256)));
    EXPECT_LT(incremental.stats().last_update_worlds, 256u);

    ReliabilityIndex rebuilt(after, {});
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        EXPECT_EQ(incremental.ConnectedWorlds(s, t),
                  rebuilt.ConnectedWorlds(s, t))
            << "directed = " << directed << " (" << s << ", " << t << ")";
      }
    }
  }
}

TEST(ReliabilityIndexTest, ApplyBankUpdateHandlesAppendedEdges) {
  UncertainGraph g = RandomGraph(127, 9, 0.25, false);
  const WorldBank before(g, {.num_samples = 192, .seed = 17});
  ReliabilityIndex incremental(before, {});

  NodeId u = 0, v = 1;
  while (g.HasEdge(u, v)) {
    if (++v == g.num_nodes()) {
      ++u;
      v = u + 1;
    }
  }
  ASSERT_TRUE(g.AddEdge(u, v, 0.5).ok());
  const WorldBank after(g, {.num_samples = 192, .seed = 17});
  incremental.ApplyBankUpdate(after,
                              ReliabilityIndex::DiffWorlds(before, after));

  ReliabilityIndex rebuilt(after, {});
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_EQ(incremental.ConnectedWorlds(s, t),
                rebuilt.ConnectedWorlds(s, t));
    }
  }
}

// Regression: ApplyBankUpdate drops the directed reach cache (its rows mixed
// pre-update worlds), so the reach_* counters must reset with it. They used
// to carry over, making an incremental engine report floods that served the
// previous bank — over-counted relative to a fresh build.
TEST(ReliabilityIndexTest, ApplyBankUpdateResetsReachCacheStats) {
  UncertainGraph g = RandomGraph(139, 10, 0.3, true);
  const WorldBank before(g, {.num_samples = 256, .seed = 29});
  ReliabilityIndex incremental(before, {});
  // Populate the reach cache from several sources pre-update.
  for (NodeId s = 0; s < 5; ++s) incremental.Query(s, g.num_nodes() - 1);
  ASSERT_GT(incremental.stats().reach_floods, 0u);

  const Edge edge = g.EdgesById()[0];
  ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, edge.prob * 0.7).ok());
  const WorldBank after(g, {.num_samples = 256, .seed = 29});
  incremental.ApplyBankUpdate(after,
                              ReliabilityIndex::DiffWorlds(before, after));
  EXPECT_EQ(incremental.stats().reach_floods, 0u);
  EXPECT_EQ(incremental.stats().reach_rows_cached, 0u);
  EXPECT_EQ(incremental.stats().reach_row_evictions, 0u);
  EXPECT_EQ(incremental.reach_cache_bytes(), 0u);

  // After identical query traffic, the incremental index's reach counters
  // match a fresh build's exactly — stats describe the current bank only.
  ReliabilityIndex rebuilt(after, {});
  for (NodeId s = 0; s < 5; ++s) {
    EXPECT_EQ(incremental.Query(s, g.num_nodes() - 1),
              rebuilt.Query(s, g.num_nodes() - 1));
  }
  EXPECT_EQ(incremental.stats().reach_floods, rebuilt.stats().reach_floods);
  EXPECT_EQ(incremental.stats().reach_rows_cached,
            rebuilt.stats().reach_rows_cached);
}

// Bytes of one cached source: a uint32 reach count per node.
size_t CountRowBytes(const UncertainGraph& g) {
  return static_cast<size_t>(g.num_nodes()) * sizeof(uint32_t);
}

TEST(ReliabilityIndexTest, ReachRowCacheEvictsWithoutChangingAnswers) {
  const UncertainGraph g = RandomGraph(131, 12, 0.25, true);
  const WorldBank bank(g, {.num_samples = 128, .seed = 19});
  // Cap the cache at two sources' counts, so sweeping all sources must
  // evict.
  ReliabilityIndex::Options options;
  options.max_reach_bytes = 2 * CountRowBytes(g);
  ReliabilityIndex index(bank, options);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_EQ(index.Query(s, t),
                bank.ConnectedFraction(s, t, bank.AllEdges(), {}))
          << "(" << s << ", " << t << ")";
    }
    // A whole-row batch per source, answered partly from the cache.
    std::vector<StQuery> row;
    for (NodeId t = 0; t < g.num_nodes(); ++t) row.push_back({s, t});
    const std::vector<double> values = index.QueryBatch(row);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_EQ(values[t], bank.ConnectedFraction(s, t, bank.AllEdges(), {}))
          << "(" << s << ", " << t << ")";
    }
    EXPECT_LE(index.reach_cache_bytes(), options.max_reach_bytes);
  }
  EXPECT_GT(index.stats().reach_row_evictions, 0u);
}

// Pairs (s, t) with s != t drawn from `rng`.
std::vector<StQuery> RandomPairs(Rng& rng, NodeId n, size_t count) {
  std::vector<StQuery> pairs;
  while (pairs.size() < count) {
    const NodeId s = static_cast<NodeId>(rng.NextUint64(n));
    const NodeId t = static_cast<NodeId>(rng.NextUint64(n));
    if (s != t) pairs.push_back({s, t});
  }
  return pairs;
}

// Sources of the pairs that neither the label planes nor a cached row can
// answer: s and t are not mutually reachable in every world. Computed from
// floods alone, independent of the index.
size_t ResidualSources(const WorldBank& bank, std::span<const StQuery> pairs) {
  const std::vector<uint64_t> all = bank.WorldsWithAllEdges({});
  std::unordered_set<NodeId> sources;
  for (const StQuery& q : pairs) {
    if (FloodRow(bank, q.s, q.t) != all || FloodRow(bank, q.t, q.s) != all) {
      sources.insert(q.s);
    }
  }
  return sources.size();
}

TEST(ReliabilityIndexTest, ColdBatchFloodsEachResidualSourceOnce) {
  const UncertainGraph g = RandomGraph(149, 20, 0.15, true);
  const WorldBank bank(g, {.num_samples = 192, .seed = 31});
  Rng rng(3);
  const std::vector<StQuery> pairs = RandomPairs(rng, g.num_nodes(), 150);
  const size_t expected = ResidualSources(bank, pairs);
  ASSERT_GT(expected, 1u);
  for (const int threads : {1, 2, 4}) {
    ReliabilityIndex index(bank, {.num_threads = threads});
    const std::vector<double> values = index.QueryBatch(pairs);
    EXPECT_EQ(index.stats().reach_floods, expected) << "threads " << threads;
    EXPECT_EQ(index.stats().reach_row_evictions, 0u);
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(values[i], bank.ConnectedFraction(pairs[i].s, pairs[i].t,
                                                  bank.AllEdges(), {}))
          << "threads " << threads << ", pair " << i;
    }
    // Every residual row is cached now: the same batch floods nothing.
    EXPECT_EQ(index.QueryBatch(pairs), values);
    EXPECT_EQ(index.stats().reach_floods, expected);
  }
}

TEST(ReliabilityIndexTest, TinyReachCapKeepsAnswersAndStaysUnderCap) {
  const UncertainGraph g = RandomGraph(151, 16, 0.18, true);
  const WorldBank bank(g, {.num_samples = 128, .seed = 37});
  const size_t row_bytes = CountRowBytes(g);
  // Below one row (nothing is ever cached), one row, and three rows.
  for (const size_t cap : {row_bytes / 2, row_bytes, 3 * row_bytes}) {
    ReliabilityIndex::Options options;
    options.max_reach_bytes = cap;
    options.num_threads = 2;
    ReliabilityIndex index(bank, options);
    Rng rng(cap);
    for (int batch = 0; batch < 4; ++batch) {
      const std::vector<StQuery> pairs = RandomPairs(rng, g.num_nodes(), 40);
      const std::vector<double> values = index.QueryBatch(pairs);
      for (size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(values[i], bank.ConnectedFraction(pairs[i].s, pairs[i].t,
                                                    bank.AllEdges(), {}))
            << "cap " << cap << ", batch " << batch << ", pair " << i;
      }
      EXPECT_LE(index.reach_cache_bytes(), cap) << "batch " << batch;
      EXPECT_EQ(index.stats().reach_rows_cached * row_bytes,
                index.reach_cache_bytes());
    }
    EXPECT_GT(index.stats().reach_floods, 0u);
  }
}

TEST(ReliabilityIndexTest, BatchAdmitsTheRowsFifoWouldKeep) {
  // A directed path 0 -> 1 -> 2 -> 3 -> 4 at p = 0.5: no pair shares an SCC
  // in every world, so every (s, t) with s != t is residual.
  UncertainGraph g = UncertainGraph::Directed(5);
  for (NodeId v = 0; v + 1 < 5; ++v) ASSERT_TRUE(g.AddEdge(v, v + 1, 0.5).ok());
  const WorldBank bank(g, {.num_samples = 64, .seed = 41});
  ReliabilityIndex::Options options;
  options.max_reach_bytes = 2 * CountRowBytes(g);  // two sources' counts
  ReliabilityIndex index(bank, options);
  // Flood order 3, 0, 2, 1: FIFO insertion keeps the last two, {2, 1}.
  const std::vector<StQuery> first = {{3, 4}, {0, 4}, {3, 0}, {2, 4}, {1, 4}};
  index.QueryBatch(first);
  EXPECT_EQ(index.stats().reach_floods, 4u);
  EXPECT_EQ(index.stats().reach_rows_cached, 2u);
  index.Query(2, 0);
  index.Query(1, 3);
  EXPECT_EQ(index.stats().reach_floods, 4u);  // both cached
  index.Query(0, 1);
  EXPECT_EQ(index.stats().reach_floods, 5u);  // 0 was not admitted
  // Admitting 0 evicted the oldest row, 2; 1 is still cached.
  EXPECT_EQ(index.stats().reach_row_evictions, 1u);
  index.Query(1, 2);
  EXPECT_EQ(index.stats().reach_floods, 5u);
  index.Query(2, 3);
  EXPECT_EQ(index.stats().reach_floods, 6u);
}

TEST(ReliabilityIndexTest, QueryIsAOnePairBatch) {
  const UncertainGraph g = RandomGraph(157, 12, 0.25, true);
  const WorldBank bank(g, {.num_samples = 200, .seed = 43});
  ReliabilityIndex single(bank, {});
  ReliabilityIndex batched(bank, {});
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      const StQuery pair{s, t};
      const double value = single.Query(s, t);
      EXPECT_EQ(value, batched.QueryBatch({&pair, 1})[0]);
      // ConnectedWorlds floods on its own: no reach count read or counted.
      const size_t floods = single.stats().reach_floods;
      EXPECT_EQ(value, static_cast<double>(WorldBank::CountBits(
                           single.ConnectedWorlds(s, t), 200)) /
                           200);
      EXPECT_EQ(single.stats().reach_floods, floods);
    }
  }
  EXPECT_EQ(single.stats().reach_floods, batched.stats().reach_floods);
}

TEST(ReliabilityIndexTest, WarmCacheAnswersFreshPairsWithoutFlooding) {
  const UncertainGraph g = RandomGraph(163, 24, 0.12, true);
  const WorldBank bank(g, {.num_samples = 200, .seed = 47});
  ReliabilityIndex::Options options;
  options.max_reach_bytes = g.num_nodes() * CountRowBytes(g);
  options.num_threads = 2;
  ReliabilityIndex index(bank, options);
  // Every pair: each source with a residual pair gets its counts cached.
  std::vector<StQuery> warm;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) warm.push_back({s, t});
  }
  index.QueryBatch(warm);
  const size_t floods = index.stats().reach_floods;
  ASSERT_GT(floods, 0u);
  EXPECT_EQ(index.reach_cache_bytes(),
            index.stats().reach_rows_cached * CountRowBytes(g));
  EXPECT_LE(index.reach_cache_bytes(), options.max_reach_bytes);

  Rng rng(5);
  const std::vector<StQuery> fresh = RandomPairs(rng, g.num_nodes(), 300);
  const std::vector<double> values = index.QueryBatch(fresh);
  EXPECT_EQ(index.stats().reach_floods, floods);
  EXPECT_EQ(index.stats().reach_row_evictions, 0u);
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(values[i], bank.ConnectedFraction(fresh[i].s, fresh[i].t,
                                                bank.AllEdges(), {}))
        << "pair " << i;
  }
  EXPECT_EQ(index.reach_cache_bytes(),
            index.stats().reach_rows_cached * CountRowBytes(g));
  EXPECT_LE(index.reach_cache_bytes(), options.max_reach_bytes);
}

TEST(ReliabilityIndexTest, CountBitsEqualsReferencePopcount) {
  Rng rng(67);
  for (const size_t words : {1u, 2u, 5u, 32u}) {
    std::vector<uint64_t> bits(words);
    for (uint64_t& word : bits) word = rng.Next();
    // Every limit up to and past the span, so each tail mask (Z % 64 != 0)
    // and the all-words case are covered.
    for (size_t limit = 0; limit <= 64 * words + 70; ++limit) {
      int64_t reference = 0;
      for (size_t bit = 0; bit < std::min(limit, 64 * words); ++bit) {
        reference += (bits[bit >> 6] >> (bit & 63)) & 1;
      }
      EXPECT_EQ(WorldView::CountBits(bits, limit), reference)
          << words << " words, limit " << limit;
    }
  }
  EXPECT_EQ(WorldView::CountBits({}, 64), 0);
}

TEST(ReliabilityIndexTest, FitsAndFootprint) {
  const UncertainGraph g = RandomGraph(137, 100, 0.05, false);
  // 100 nodes -> 7 label bits; 128 worlds -> 2 words.
  EXPECT_EQ(ReliabilityIndex::LabelBytes(100, 128), 100u * 7u * 2u * 8u);
  ReliabilityIndex::Options roomy;
  EXPECT_TRUE(ReliabilityIndex::Fits(g, 128, roomy));
  ReliabilityIndex::Options tight;
  tight.max_label_bytes = 100;
  EXPECT_FALSE(ReliabilityIndex::Fits(g, 128, tight));

  const WorldBank bank(g, {.num_samples = 128, .seed = 23});
  ReliabilityIndex index(bank, roomy);
  EXPECT_EQ(index.label_bytes(), ReliabilityIndex::LabelBytes(100, 128));
  EXPECT_EQ(index.label_bits(), 7);
}

TEST(ReliabilityIndexTest, TrivialGraphs) {
  // Single node: zero label bits, every world trivially connects s to s.
  const UncertainGraph lonely = UncertainGraph::Directed(1);
  const WorldBank lonely_bank(lonely, {.num_samples = 70, .seed = 1});
  ReliabilityIndex lonely_index(lonely_bank, {});
  EXPECT_EQ(lonely_index.label_bits(), 0);
  EXPECT_DOUBLE_EQ(lonely_index.Query(0, 0), 1.0);

  // Edgeless graph: nothing connects, self-queries stay certain.
  const UncertainGraph empty = UncertainGraph::Undirected(5);
  const WorldBank empty_bank(empty, {.num_samples = 64, .seed = 2});
  ReliabilityIndex empty_index(empty_bank, {});
  EXPECT_DOUBLE_EQ(empty_index.Query(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(empty_index.Query(3, 3), 1.0);
}

}  // namespace
}  // namespace relmax
