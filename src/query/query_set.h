#ifndef RELMAX_QUERY_QUERY_SET_H_
#define RELMAX_QUERY_QUERY_SET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "graph/uncertain_graph.h"
#include "sampling/world_view.h"

namespace relmax {

/// A multiple-source/multiple-target aggregate query: the aggregate F over
/// the pairwise reliability matrix R(s_i, t_j), the same semantics as
/// PairwiseReliability + AggregateMatrix in core/evaluate.h (§6).
struct AggregateQuery {
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
  Aggregate aggregate = Aggregate::kAverage;
};

/// Top-k most-reliable pairs out of an explicit candidate pair list —
/// "which of these links matter most", answered without the caller issuing
/// |candidates| separate queries.
struct TopKQuery {
  std::vector<StQuery> candidates;
  int k = 1;
};

/// An ordered batch of queries against one uncertain graph. The engine
/// answers every query in the set from a single shared set of sampled
/// worlds (query/query_engine.h); results come back parallel to the
/// insertion order of each kind.
class QuerySet {
 public:
  void AddSt(NodeId s, NodeId t) { st_.push_back({s, t}); }
  void AddAggregate(AggregateQuery q) { aggregate_.push_back(std::move(q)); }
  void AddTopK(TopKQuery q) { top_k_.push_back(std::move(q)); }

  const std::vector<StQuery>& st_queries() const { return st_; }
  const std::vector<AggregateQuery>& aggregate_queries() const {
    return aggregate_;
  }
  const std::vector<TopKQuery>& top_k_queries() const { return top_k_; }

  /// Total query count across all kinds.
  size_t size() const {
    return st_.size() + aggregate_.size() + top_k_.size();
  }
  bool empty() const { return size() == 0; }

  /// Every referenced node must exist in `g`; aggregate source/target sets
  /// must be non-empty, top-k candidate lists non-empty with k >= 1.
  Status Validate(const UncertainGraph& g) const;

  /// Parses the batch file format: one `s t` pair per line, `#` starts a
  /// comment (whole-line or trailing), blank lines skipped, CRLF tolerated.
  static StatusOr<QuerySet> Parse(const std::string& text);

  /// Reads and parses a batch file (see Parse).
  static StatusOr<QuerySet> FromFile(const std::string& path);

 private:
  std::vector<StQuery> st_;
  std::vector<AggregateQuery> aggregate_;
  std::vector<TopKQuery> top_k_;
};

}  // namespace relmax

#endif  // RELMAX_QUERY_QUERY_SET_H_
