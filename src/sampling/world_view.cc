#include "sampling/world_view.h"

#include <algorithm>
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

namespace {

// Popcount of the first `limit` bits of the `n` words at `w`. Inlined into
// each caller, so it is compiled for the caller's target.
[[gnu::always_inline]] inline int64_t PopcountPrefix(const uint64_t* w,
                                                     size_t n, size_t limit) {
  const size_t full = std::min(limit / 64, n);
  int64_t count = 0;
  for (size_t i = 0; i < full; ++i) count += __builtin_popcountll(w[i]);
  if (full < n && (limit & 63) != 0) {
    const uint64_t tail = (uint64_t{1} << (limit & 63)) - 1;
    count += __builtin_popcountll(w[full] & tail);
  }
  return count;
}

#if defined(__x86_64__)
// The baseline x86-64 target has no popcount instruction, so there
// __builtin_popcountll lowers to a libgcc call. This copy is compiled for
// the instruction and runs only on CPUs that report it. (A target_clones
// ifunc would choose at load time instead, but its resolver crashes under
// ThreadSanitizer.)
[[gnu::target("popcnt")]] int64_t PopcountHw(const uint64_t* w, size_t n,
                                             size_t limit) {
  return PopcountPrefix(w, n, limit);
}

bool CpuHasPopcnt() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt") != 0;
  }();
  return has;
}
#endif

}  // namespace

int64_t WorldView::CountBits(std::span<const uint64_t> bits, size_t limit) {
#if defined(__x86_64__)
  if (CpuHasPopcnt()) return PopcountHw(bits.data(), bits.size(), limit);
#endif
  return PopcountPrefix(bits.data(), bits.size(), limit);
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
