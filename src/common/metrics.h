// Pluggable observability sink for the SODA service layer.
//
// The paper reports fleet-level per-step latency splits (Section 5.2.2);
// reproducing those numbers for a long-running engine needs more than the
// per-response StepTimings — it needs cumulative counters and latency
// distributions across every query the engine ever served. MetricsSink is
// the integration point: the pipeline drivers observe one latency sample
// per stage (keyed by PipelineStage::name()), and the SodaEngine adds
// cache hit/miss counters, batch dedup accounting, snippet outcomes and
// worker-queue depth samples.
//
// The default InMemoryMetricsSink aggregates counters and fixed-bucket
// histograms under a mutex and hands out consistent snapshots, which
// RenderPrometheusText (common/prometheus_sink.h) turns into a /metrics
// payload; push exporters (statsd and the like) implement the
// three-method interface and plug it in with SodaEngine::set_metrics_sink.

#ifndef SODA_COMMON_METRICS_H_
#define SODA_COMMON_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace soda {

/// Receives metric events. Implementations must be thread-safe: the
/// engine's worker pool observes stage latencies concurrently.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;

  /// Adds `delta` to the monotonic counter `name`.
  virtual void IncrementCounter(std::string_view name, uint64_t delta) = 0;

  /// Records one sample into the distribution `name`. Stage latencies
  /// ("stage.<name>.ms") and queue-depth samples ("pool.queue_depth")
  /// both go through here.
  virtual void Observe(std::string_view name, double value) = 0;
};

/// Fixed exponential bucket upper bounds (milliseconds for latencies; the
/// same grid is reused for dimensionless samples like queue depth). The
/// last bucket is the +inf overflow.
inline constexpr std::array<double, 14> kHistogramBounds = {
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5,  1.0,
    2.5,  5.0,   10.0, 25.0, 50.0, 100.0, 250.0};
inline constexpr size_t kHistogramBuckets = kHistogramBounds.size() + 1;

/// Point-in-time copy of one distribution.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  double mean() const { return count == 0 ? 0.0 : sum / count; }

  /// Bucket-boundary estimate of the p-th percentile (p in [0, 100]):
  /// the upper bound of the bucket holding that rank — an upper bound on
  /// the true value, exact enough for dashboard-style latency reporting.
  double Percentile(double p) const;

  /// Folds `other` into this distribution. Exact for count/sum/min/max
  /// and, because every sink shares the fixed kHistogramBounds grid, for
  /// the buckets too — merging N sinks' histograms loses nothing over
  /// observing every sample into one sink.
  void MergeFrom(const HistogramSnapshot& other);

  /// The distribution of samples observed after `earlier` was taken
  /// (both snapshots of the same monotonically growing sink): count, sum
  /// and buckets subtract exactly on the shared grid. min/max cannot be
  /// reconstructed for an interval from endpoint snapshots; the delta
  /// carries bucket-derived bounds (the grid edges of the lowest and
  /// highest non-empty delta buckets) — exact enough for rate panels.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& earlier) const;
};

/// Point-in-time copy of everything a sink has aggregated. Ordered maps
/// so printed output is stable across runs.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Lookup helpers; missing names return 0 / empty. histogram() hands
  /// out a pointer into this snapshot, so it refuses temporaries — bind
  /// the snapshot to a local first (TSan caught exactly that misuse).
  uint64_t counter(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const&;
  const HistogramSnapshot* histogram(const std::string& name) const&& =
      delete;

  /// Human-readable dump, one metric per line — what service_demo and the
  /// bench smoke-run print (CI greps this output for required counters).
  std::string ToString() const;

  /// Folds `other` into this snapshot: counters add, histograms merge
  /// bucket-by-bucket. The HTTP server uses this to present its own
  /// server.* books, the service's and an extra snapshot as one view.
  void MergeFrom(const MetricsSnapshot& other);

  /// What happened between `earlier` (an older snapshot of the same
  /// sink) and this one: counters and histogram counts/sums/buckets
  /// subtract. Metrics absent from `earlier` pass through whole;
  /// metrics that produced no new samples drop out of the delta
  /// entirely — as does any metric that went backwards (a Reset() sink
  /// renders as an empty interval rather than underflowing; take a
  /// fresh baseline snapshot after resetting). This is the
  /// per-interval-rate primitive: render `now.DeltaSince(previous)` with
  /// RenderPrometheusText for one scrape interval.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;
};

/// Default sink: counters + fixed-bucket histograms behind one mutex.
/// Cheap enough for the hot path (one lock per event, no allocation once
/// a metric name exists).
class InMemoryMetricsSink : public MetricsSink {
 public:
  void IncrementCounter(std::string_view name, uint64_t delta) override;
  void Observe(std::string_view name, double value) override;

  /// Creates the named distribution with zero samples when absent (no-op
  /// otherwise): pre-registration for exporters, so every series shows
  /// up on the first /metrics scrape without a phantom sample skewing
  /// count/min/sum. Counters pre-register via IncrementCounter(name, 0).
  void RegisterHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t, std::less<>> counters_;
  // Aggregated in snapshot form so Snapshot() is a plain copy.
  std::map<std::string, HistogramSnapshot, std::less<>> histograms_;
};

}  // namespace soda

#endif  // SODA_COMMON_METRICS_H_
