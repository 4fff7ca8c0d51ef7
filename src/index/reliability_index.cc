#include "index/reliability_index.h"

#include <algorithm>
#include <memory>
#include <span>
#include <unordered_set>

#include "common/logging.h"
#include "partition/partitioner.h"
#include "sampling/parallel.h"

namespace relmax {
namespace {

/// Bits needed for labels in [0, n): ceil(log2 n), 0 for n <= 1.
int LabelBits(NodeId num_nodes) {
  int bits = 0;
  if (num_nodes > 1) {
    const NodeId max_label = num_nodes - 1;
    while ((max_label >> bits) != 0) ++bits;
  }
  return bits;
}

/// World-indexed bitset with every world bit set (tail bits clear).
std::vector<uint64_t> AllWorlds(int num_worlds, size_t world_words) {
  std::vector<uint64_t> all(world_words, ~uint64_t{0});
  if (num_worlds & 63) {
    all.back() = (uint64_t{1} << (num_worlds & 63)) - 1;
  }
  return all;
}

/// Per-lane labeling scratch, reused across every world a lane relabels.
struct LabelScratch {
  // This 64-world word of every edge's up row, hoisted once per word so the
  // per-world inner loops index a flat array instead of calling the virtual
  // EdgeUpWorlds per (edge, world).
  std::vector<uint64_t> up_words;
  // Undirected union-find.
  std::vector<NodeId> parent;
  // Raw label -> compact label, keyed by first appearance in node order.
  std::vector<NodeId> remap;
  // Directed iterative Tarjan.
  std::vector<int> order;
  std::vector<int> low;
  std::vector<NodeId> comp;
  std::vector<uint8_t> on_stack;
  std::vector<NodeId> stack;
  struct Frame {
    NodeId v;
    size_t arc;
  };
  std::vector<Frame> frames;
};

NodeId Find(std::vector<NodeId>& parent, NodeId v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];  // path halving
    v = parent[v];
  }
  return v;
}

}  // namespace

size_t ReliabilityIndex::LabelBytes(NodeId num_nodes, int num_samples) {
  const size_t world_words = (static_cast<size_t>(num_samples) + 63) / 64;
  return static_cast<size_t>(num_nodes) * LabelBits(num_nodes) * world_words *
         sizeof(uint64_t);
}

bool ReliabilityIndex::Fits(const UncertainGraph& g, int num_samples,
                            const Options& options) {
  return LabelBytes(g.num_nodes(), num_samples) <= options.max_label_bytes;
}

ReliabilityIndex::ReliabilityIndex(const WorldView& bank,
                                   const Options& options)
    : bank_(&bank),
      options_(options),
      num_nodes_(bank.universe().num_nodes()),
      num_worlds_(bank.num_worlds()),
      world_words_(bank.world_words()),
      label_bits_(LabelBits(bank.universe().num_nodes())),
      directed_(bank.universe().directed()) {
  RELMAX_CHECK(Fits(bank.universe(), num_worlds_, options_));
  labels_.assign(static_cast<size_t>(num_nodes_) * label_bits_ * world_words_,
                 0);
  all_edges_ = bank.AllEdges();
  ++stats_.builds;
  stats_.worlds_relabeled += static_cast<size_t>(num_worlds_);
  RelabelWorlds(AllWorlds(num_worlds_, world_words_));
}

ReliabilityIndex::ReliabilityIndex(const WorldView& bank,
                                   const Options& options,
                                   std::vector<uint64_t> labels, AdoptLabels)
    : bank_(&bank),
      options_(options),
      num_nodes_(bank.universe().num_nodes()),
      num_worlds_(bank.num_worlds()),
      world_words_(bank.world_words()),
      label_bits_(LabelBits(bank.universe().num_nodes())),
      directed_(bank.universe().directed()),
      labels_(std::move(labels)) {
  RELMAX_CHECK(Fits(bank.universe(), num_worlds_, options_));
  RELMAX_CHECK(labels_.size() == static_cast<size_t>(num_nodes_) *
                                     label_bits_ * world_words_);
  all_edges_ = bank.AllEdges();
}

std::unique_ptr<ReliabilityIndex> ReliabilityIndex::FromSavedLabels(
    const WorldView& bank, const Options& options,
    std::vector<uint64_t> labels) {
  return std::unique_ptr<ReliabilityIndex>(
      new ReliabilityIndex(bank, options, std::move(labels), AdoptLabels{}));
}

void ReliabilityIndex::RelabelWorlds(const std::vector<uint64_t>& mask) {
  const UncertainGraph& universe = bank_->universe();
  const size_t num_rows = static_cast<size_t>(num_nodes_) * label_bits_;
  const std::vector<Edge>& edges = universe.EdgesById();
  const CsrView csr = directed_ ? universe.OutCsr() : CsrView{};
  // Undirected sharded banks label shard-locally first: each partition
  // shard's intra-shard edges are unioned on their own, then one boundary
  // merge pass over the cut edges joins components across shards. The final
  // union-find partition is independent of union order and the remap below
  // is canonical, so the resulting labels are bit-identical to a flat
  // bank's single pass. (Directed SCCs don't decompose along an edge cut,
  // so they keep the global Tarjan regardless of sharding.)
  const Partition* part = directed_ ? nullptr : bank_->partition();
  if (part != nullptr && part->num_shards <= 1) part = nullptr;
  std::vector<std::vector<EdgeId>> intra_edges;
  std::vector<EdgeId> cut_edges;
  if (part != nullptr) {
    intra_edges.resize(part->num_shards);
    for (size_t e = 0; e < edges.size(); ++e) {
      if (part->node_shard[edges[e].src] == part->node_shard[edges[e].dst]) {
        intra_edges[part->edge_shard[e]].push_back(static_cast<EdgeId>(e));
      } else {
        cut_edges.push_back(static_cast<EdgeId>(e));
      }
    }
  }
  // One shard per 64-world word: a shard writes only bit-word `word` of every
  // plane row, so shards are race-free, and per-world labels are a pure
  // function of the bank bits — bit-identical for any num_threads.
  ForEachShard(
      world_words_, options_.num_threads,
      [] { return std::make_unique<LabelScratch>(); },
      [&](std::unique_ptr<LabelScratch>& scratch, size_t word) {
        const uint64_t mask_word = mask[word];
        if (mask_word == 0) return;
        // Clear the affected worlds' columns; other worlds keep their bits.
        const uint64_t keep = ~mask_word;
        for (size_t row = 0; row < num_rows; ++row) {
          labels_[row * world_words_ + word] &= keep;
        }
        scratch->up_words.resize(edges.size());
        for (size_t e = 0; e < edges.size(); ++e) {
          scratch->up_words[e] =
              bank_->EdgeUpWorlds(static_cast<EdgeId>(e))[word];
        }
        for (int bit = 0; bit < 64; ++bit) {
          if (((mask_word >> bit) & 1) == 0) continue;
          if (static_cast<int>(word * 64) + bit >= num_worlds_) break;
          const uint64_t world_bit = uint64_t{1} << bit;
          LabelScratch& s = *scratch;
          // Writes bit `world_bit` of word `word` in v's planes for `label`.
          auto write_label = [&](NodeId v, NodeId label) {
            uint64_t* base =
                labels_.data() +
                static_cast<size_t>(v) * label_bits_ * world_words_ + word;
            for (int b = 0; b < label_bits_; ++b) {
              if ((label >> b) & 1) base[static_cast<size_t>(b) *
                                         world_words_] |= world_bit;
            }
          };
          auto edge_up = [&](EdgeId e) {
            return (s.up_words[e] & world_bit) != 0;
          };
          if (!directed_) {
            // Exact connected components: union-find over the world's up
            // edges, labels compacted by first appearance in node order.
            s.parent.resize(num_nodes_);
            for (NodeId v = 0; v < num_nodes_; ++v) s.parent[v] = v;
            auto union_edge = [&](EdgeId e) {
              if (!edge_up(e)) return;
              const NodeId a = Find(s.parent, edges[e].src);
              const NodeId b = Find(s.parent, edges[e].dst);
              if (a != b) s.parent[std::max(a, b)] = std::min(a, b);
            };
            if (part != nullptr) {
              // Shard-local labels, then the boundary merge pass.
              for (const std::vector<EdgeId>& shard : intra_edges) {
                for (EdgeId e : shard) union_edge(e);
              }
              for (EdgeId e : cut_edges) union_edge(e);
            } else {
              for (size_t e = 0; e < edges.size(); ++e) {
                union_edge(static_cast<EdgeId>(e));
              }
            }
            s.remap.assign(num_nodes_, kInvalidNode);
            NodeId next = 0;
            for (NodeId v = 0; v < num_nodes_; ++v) {
              const NodeId root = Find(s.parent, v);
              if (s.remap[root] == kInvalidNode) s.remap[root] = next++;
              write_label(v, s.remap[root]);
            }
            continue;
          }
          // Directed: SCC condensation by iterative Tarjan over the out-CSR,
          // skipping arcs that are down in this world.
          s.order.assign(num_nodes_, -1);
          s.low.resize(num_nodes_);
          s.comp.resize(num_nodes_);
          s.on_stack.assign(num_nodes_, 0);
          s.stack.clear();
          s.frames.clear();
          int next_order = 0;
          NodeId num_comps = 0;
          for (NodeId root = 0; root < num_nodes_; ++root) {
            if (s.order[root] >= 0) continue;
            s.order[root] = s.low[root] = next_order++;
            s.stack.push_back(root);
            s.on_stack[root] = 1;
            s.frames.push_back({root, csr.begin(root)});
            while (!s.frames.empty()) {
              LabelScratch::Frame& f = s.frames.back();
              const NodeId v = f.v;
              bool descended = false;
              while (f.arc < csr.end(v)) {
                const size_t a = f.arc++;
                if (!edge_up(csr.edge_ids[a])) continue;
                const NodeId to = csr.heads[a];
                if (s.order[to] < 0) {
                  s.order[to] = s.low[to] = next_order++;
                  s.stack.push_back(to);
                  s.on_stack[to] = 1;
                  s.frames.push_back({to, csr.begin(to)});  // invalidates f
                  descended = true;
                  break;
                }
                if (s.on_stack[to] && s.order[to] < s.low[v]) {
                  s.low[v] = s.order[to];
                }
              }
              if (descended) continue;
              s.frames.pop_back();
              if (s.low[v] == s.order[v]) {
                NodeId u;
                do {
                  u = s.stack.back();
                  s.stack.pop_back();
                  s.on_stack[u] = 0;
                  s.comp[u] = num_comps;
                } while (u != v);
                ++num_comps;
              }
              if (!s.frames.empty() && s.low[v] < s.low[s.frames.back().v]) {
                s.low[s.frames.back().v] = s.low[v];
              }
            }
          }
          // Tarjan numbers SCCs in completion order; renumber by first
          // appearance in node order so labels are canonical.
          s.remap.assign(num_nodes_, kInvalidNode);
          NodeId next = 0;
          for (NodeId v = 0; v < num_nodes_; ++v) {
            if (s.remap[s.comp[v]] == kInvalidNode) s.remap[s.comp[v]] = next++;
            write_label(v, s.remap[s.comp[v]]);
          }
        }
      },
      [](std::unique_ptr<LabelScratch>&) {});
}

void ReliabilityIndex::EqualLabelWorlds(NodeId s, NodeId t,
                                        std::span<uint64_t> eq) const {
  RELMAX_CHECK(s < num_nodes_ && t < num_nodes_);
  RELMAX_CHECK(eq.size() == world_words_);
  const uint64_t* s_planes =
      labels_.data() + static_cast<size_t>(s) * label_bits_ * world_words_;
  const uint64_t* t_planes =
      labels_.data() + static_cast<size_t>(t) * label_bits_ * world_words_;
  std::fill(eq.begin(), eq.end(), 0);
  for (int b = 0; b < label_bits_; ++b) {
    const uint64_t* sp = s_planes + static_cast<size_t>(b) * world_words_;
    const uint64_t* tp = t_planes + static_cast<size_t>(b) * world_words_;
    for (size_t w = 0; w < world_words_; ++w) eq[w] |= sp[w] ^ tp[w];
  }
  for (size_t w = 0; w < world_words_; ++w) eq[w] = ~eq[w];
  if (num_worlds_ & 63) {
    eq[world_words_ - 1] &= (uint64_t{1} << (num_worlds_ & 63)) - 1;
  }
}

size_t ReliabilityIndex::reach_cache_bytes() const {
  return reach_cache_.size() * static_cast<size_t>(num_nodes_) *
         sizeof(uint32_t);
}

void ReliabilityIndex::FloodResidual(std::span<const StQuery> residual,
                                     std::span<double> values) {
  if (residual.empty()) return;
  // Distinct sources in flood order (first appearance, as FloodBySource
  // schedules them).
  std::vector<NodeId> sources;
  std::unordered_set<NodeId> seen;
  for (const StQuery& q : residual) {
    if (seen.insert(q.s).second) sources.push_back(q.s);
  }
  // FIFO insertion of `sources` in order would end holding the last
  // `admit` of them behind the newest surviving old entries. Evicting the
  // oldest entries up front keeps the cache within its cap at every moment.
  const size_t row_bytes = static_cast<size_t>(num_nodes_) * sizeof(uint32_t);
  const size_t cap_sources = options_.max_reach_bytes / row_bytes;
  const size_t admit = std::min(sources.size(), cap_sources);
  while (reach_cache_.size() + admit > cap_sources) {
    reach_cache_.erase(reach_order_.front());
    reach_order_.pop_front();
    ++stats_.reach_row_evictions;
  }
  for (size_t k = sources.size() - admit; k < sources.size(); ++k) {
    reach_cache_[sources[k]].resize(num_nodes_);
    reach_order_.push_back(sources[k]);
  }
  stats_.reach_rows_cached = reach_cache_.size();
  // Lanes only look the map up while it is not modified, and each admitted
  // entry is written by the one lane that floods its source.
  stats_.reach_floods += FloodBySource(
      *bank_, all_edges_, residual, options_.num_threads, values,
      [&](NodeId source, const bitlane::BitMatrix& reach) {
        const auto it = reach_cache_.find(source);
        if (it == reach_cache_.end()) return;
        for (NodeId v = 0; v < num_nodes_; ++v) {
          it->second[v] = static_cast<uint32_t>(WorldView::CountBits(
              reach.row_span(v), static_cast<size_t>(num_worlds_)));
        }
      });
}

std::vector<double> ReliabilityIndex::QueryBatch(
    std::span<const StQuery> pairs) {
  std::vector<double> values(pairs.size());
  std::vector<StQuery> residual;
  std::vector<size_t> residual_slot;
  std::vector<uint64_t> eq(world_words_);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    EqualLabelWorlds(s, t, eq);
    int64_t count = WorldView::CountBits(eq, static_cast<size_t>(num_worlds_));
    // Same SCC in every world ⇒ mutually reachable everywhere: answer without
    // any flood. (The flood would count exactly these worlds too.)
    if (directed_ && count != num_worlds_) {
      const auto it = reach_cache_.find(s);
      if (it == reach_cache_.end()) {
        residual.push_back(pairs[i]);
        residual_slot.push_back(i);
        continue;
      }
      count = it->second[t];
    }
    values[i] = static_cast<double>(count) / num_worlds_;
  }
  std::vector<double> residual_values(residual.size());
  FloodResidual(residual, residual_values);
  for (size_t k = 0; k < residual.size(); ++k) {
    values[residual_slot[k]] = residual_values[k];
  }
  return values;
}

double ReliabilityIndex::Query(NodeId s, NodeId t) {
  const StQuery pair{s, t};
  return QueryBatch({&pair, 1})[0];
}

std::vector<uint64_t> ReliabilityIndex::ConnectedWorlds(NodeId s,
                                                        NodeId t) const {
  std::vector<uint64_t> worlds(world_words_);
  EqualLabelWorlds(s, t, worlds);
  const int64_t equal =
      WorldView::CountBits(worlds, static_cast<size_t>(num_worlds_));
  if (!directed_ || equal == num_worlds_) return worlds;
  bitlane::BitMatrix reach;
  bank_->ReachabilityFixpoint(s, /*backward=*/false, all_edges_, &reach);
  const std::span<const uint64_t> row = reach.row_span(t);
  worlds.assign(row.begin(), row.end());
  return worlds;
}

std::vector<uint64_t> ReliabilityIndex::DiffWorlds(const WorldView& old_bank,
                                                   const WorldView& fresh) {
  RELMAX_CHECK(old_bank.num_worlds() == fresh.num_worlds());
  const size_t world_words = fresh.world_words();
  std::vector<uint64_t> mask(world_words, 0);
  // The banks' own row counts, not universe().num_edges(): the old bank's
  // graph has typically been mutated since that bank was sampled.
  const size_t old_edges = old_bank.num_edges();
  const size_t new_edges = fresh.num_edges();
  const size_t common = std::min(old_edges, new_edges);
  for (size_t e = 0; e < common; ++e) {
    const std::span<const uint64_t> before =
        old_bank.EdgeUpWorlds(static_cast<EdgeId>(e));
    const std::span<const uint64_t> after =
        fresh.EdgeUpWorlds(static_cast<EdgeId>(e));
    for (size_t w = 0; w < world_words; ++w) mask[w] |= before[w] ^ after[w];
  }
  // Edges present in only one bank affect every world they are up in.
  for (size_t e = common; e < new_edges; ++e) {
    const std::span<const uint64_t> up =
        fresh.EdgeUpWorlds(static_cast<EdgeId>(e));
    for (size_t w = 0; w < world_words; ++w) mask[w] |= up[w];
  }
  for (size_t e = common; e < old_edges; ++e) {
    const std::span<const uint64_t> up =
        old_bank.EdgeUpWorlds(static_cast<EdgeId>(e));
    for (size_t w = 0; w < world_words; ++w) mask[w] |= up[w];
  }
  return mask;
}

void ReliabilityIndex::ApplyBankUpdate(const WorldView& fresh,
                                       const std::vector<uint64_t>& affected) {
  RELMAX_CHECK(fresh.num_worlds() == num_worlds_);
  RELMAX_CHECK(fresh.universe().num_nodes() == num_nodes_);
  RELMAX_CHECK(fresh.universe().directed() == directed_);
  RELMAX_CHECK(affected.size() == world_words_);
  bank_ = &fresh;
  all_edges_ = fresh.AllEdges();
  // Reach counts mix affected and unaffected worlds in one flood; later
  // batches flood them again rather than patching. The reach counters reset
  // with the cache — they describe the cache since its last drop (see
  // Stats) — so incremental stats stay comparable to a fresh build's instead
  // of over-counting floods that served the pre-update bank.
  reach_cache_.clear();
  reach_order_.clear();
  stats_.reach_rows_cached = 0;
  stats_.reach_floods = 0;
  stats_.reach_row_evictions = 0;
  const size_t worlds = static_cast<size_t>(
      WorldView::CountBits(affected, static_cast<size_t>(num_worlds_)));
  ++stats_.incremental_updates;
  stats_.last_update_worlds = worlds;
  stats_.worlds_relabeled += worlds;
  if (worlds > 0) RelabelWorlds(affected);
}

}  // namespace relmax
