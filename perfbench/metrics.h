// The metrics every run prints, in BENCHMARK.json's order: the end-to-end
// ones with --trace 0, the per-layer ones with --trace 1. A layer a workload
// never calls reads 0. harness_test checks these lists against the file.
#ifndef RELMAX_PERFBENCH_METRICS_H_
#define RELMAX_PERFBENCH_METRICS_H_

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},     {"peak_rss_mb", "MiB"}, {"ok_frac", "ratio"},
    {"p50_ms", "ms"},     {"tail_ms", "ms"},      {"answer_mean", "prob"},
};

inline constexpr MetricSpec kLayers[] = {
    {"sampling.mc_elim_ms", "ms"},
    {"sampling.mc_estimate_ms", "ms"},
    {"core.candidates_self_ms", "ms"},
    {"core.candidate_edges", "count"},
    {"graph.augment_ms", "ms"},
    {"paths.top_l_ms", "ms"},
    {"paths.paths_found", "count"},
    {"core.select_edges_ms", "ms"},
    {"solve.glue_self_ms", "ms"},
    {"solve.trace_coverage", "ratio"},
    {"sampling.bank_fill_ms", "ms"},
    {"sampling.flood_ms", "ms"},
    {"sampling.floods", "count"},
    {"index.label_build_ms", "ms"},
    {"index.query_ms", "ms"},
    {"index.reach_floods", "count"},
    {"index.reach_floods_per_source", "ratio"},
    {"index.reach_row_evictions", "count"},
    {"index.relabel_ms", "ms"},
    {"index.worlds_relabeled", "count"},
    {"query.answer_flood_ms", "ms"},
    {"query.answer_index_ms", "ms"},
    {"query.floods", "count"},
    {"query.index_answers", "count"},
    {"query.cache_hit_ratio", "ratio"},
    {"batch.glue_self_ms", "ms"},
    {"serve.core_p50_ms", "ms"},
    {"serve.core_p99_ms", "ms"},
    {"server.protocol_ms", "ms"},
    {"serve.publish_ms", "ms"},
    {"serve.catchup_ms", "ms"},
    {"serve.mean_window", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.shed", "count"},
    {"serve.rss_per_lane_mb", "MiB"},
    {"serve.gen_late_p99_ms", "ms"},
    {"serve.outstanding_at_end", "count"},
    {"serve.update_visible_p50_ms", "ms"},
    {"trace.p50_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};

}  // namespace perfbench

#endif  // RELMAX_PERFBENCH_METRICS_H_
