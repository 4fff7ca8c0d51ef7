#include "sampling/world_view.h"

#include <unordered_map>

#include "common/logging.h"
#include "sampling/parallel.h"

namespace relmax {

// The shared non-virtual helpers live here, written against the virtual
// surface only, so both the flat and the sharded bank get them for free and
// bit-for-bit identically.

std::vector<uint64_t> WorldView::WorldsWithAllEdges(
    const std::vector<EdgeId>& edges) const {
  const size_t words = world_words();
  std::vector<uint64_t> all(words, ~uint64_t{0});
  // Clear the tail bits beyond num_worlds so counts stay exact.
  if (num_worlds() & 63) {
    all.back() = (uint64_t{1} << (num_worlds() & 63)) - 1;
  }
  for (EdgeId e : edges) {
    const std::span<const uint64_t> up = EdgeUpWorlds(e);
    for (size_t w = 0; w < words; ++w) all[w] &= up[w];
  }
  return all;
}

double WorldView::ConnectedFraction(
    NodeId s, NodeId t, const std::vector<EdgeId>& active,
    std::vector<uint64_t> seed_connected) const {
  RELMAX_CHECK(t < universe().num_nodes());
  const size_t words = world_words();
  bitlane::BitMatrix reach;
  ReachabilityFixpoint(s, /*backward=*/false, active, &reach);
  if (seed_connected.empty()) seed_connected.assign(words, 0);
  const uint64_t* const at_t = reach.row(t);
  for (size_t w = 0; w < words; ++w) {
    seed_connected[w] |= at_t[w];
  }
  return static_cast<double>(
             CountBits(seed_connected, static_cast<size_t>(num_worlds()))) /
         num_worlds();
}

std::vector<EdgeId> WorldView::AllEdges() const {
  // Sized by the bank's own rows, not universe().num_edges(): the graph may
  // have grown edges since the bank was sampled.
  std::vector<EdgeId> edges(num_edges());
  for (size_t e = 0; e < edges.size(); ++e) edges[e] = static_cast<EdgeId>(e);
  return edges;
}

int64_t WorldView::CountBits(std::span<const uint64_t> bits, size_t limit) {
  int64_t count = 0;
  for (size_t word = 0; word * 64 < limit && word < bits.size(); ++word) {
    uint64_t value = bits[word];
    const size_t remaining = limit - word * 64;
    if (remaining < 64) value &= (uint64_t{1} << remaining) - 1;
    count += __builtin_popcountll(value);
  }
  return count;
}

size_t FloodBySource(const WorldView& bank, const std::vector<EdgeId>& active,
                     std::span<const StQuery> pairs, int num_threads,
                     std::span<double> values,
                     const FloodObserver& on_flood) {
  RELMAX_CHECK(values.size() == pairs.size());
  // First-appearance order makes the flood schedule a pure function of the
  // pair list; slot writes by pair index keep the values independent of
  // which lane ran which source.
  std::unordered_map<NodeId, size_t> source_slot;
  std::vector<NodeId> sources;
  std::vector<std::vector<size_t>> pairs_of_source;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [it, inserted] = source_slot.emplace(pairs[i].s, sources.size());
    if (inserted) {
      sources.push_back(pairs[i].s);
      pairs_of_source.emplace_back();
    }
    pairs_of_source[it->second].push_back(i);
  }
  const int num_worlds = bank.num_worlds();
  ForEachShard(
      sources.size(), num_threads,
      [] { return std::make_unique<bitlane::BitMatrix>(); },
      [&](std::unique_ptr<bitlane::BitMatrix>& reach, size_t i) {
        // The fixpoint wipes the reused scratch itself (kClearScratch).
        bank.ReachabilityFixpoint(sources[i], /*backward=*/false, active,
                                  reach.get());
        for (size_t idx : pairs_of_source[i]) {
          values[idx] = static_cast<double>(WorldView::CountBits(
                            reach->row_span(pairs[idx].t),
                            static_cast<size_t>(num_worlds))) /
                        num_worlds;
        }
        if (on_flood) on_flood(sources[i], *reach);
      },
      [](std::unique_ptr<bitlane::BitMatrix>&) {});
  return sources.size();
}

}  // namespace relmax
