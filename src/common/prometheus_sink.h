// Prometheus text-exposition rendering of a MetricsSnapshot.
//
// Deployments that scrape instead of push render the engine's (or the
// router's merged) metrics_snapshot() with RenderPrometheusText and serve
// it from their /metrics endpoint, as SodaHttpServer does. Rendering
// follows the Prometheus text exposition format, version 0.0.4:
//
//   * counters become `<prefix>_<name>_total` with a # TYPE header;
//   * distributions become classic histograms — cumulative
//     `_bucket{le="..."}` series over the shared kHistogramBounds grid,
//     plus `_sum` and `_count`;
//   * metric names are sanitized ([a-zA-Z0-9_], '.' → '_') and emitted
//     in lexicographic order, so output is stable and golden-testable.
//
// Per-interval rates come from snapshot diffing: keep the previous
// scrape's MetricsSnapshot and render `now.DeltaSince(previous)` (see
// common/metrics.h) — counters subtract, histogram counts/sums/buckets
// subtract, giving exact per-interval distributions on the fixed grid.

#ifndef SODA_COMMON_PROMETHEUS_SINK_H_
#define SODA_COMMON_PROMETHEUS_SINK_H_

#include <string>
#include <string_view>

#include "common/metrics.h"

namespace soda {

/// Renders `snapshot` in Prometheus text exposition format. Works on any
/// snapshot — a single engine's, a sharded fleet's merged view, or a
/// DeltaSince interval. `prefix` namespaces every metric ("soda" →
/// "soda_cache_hit_total").
std::string RenderPrometheusText(const MetricsSnapshot& snapshot,
                                 std::string_view prefix = "soda");

}  // namespace soda

#endif  // SODA_COMMON_PROMETHEUS_SINK_H_
