// Per-request distributed-style tracing for the serving stack.
//
// Aggregate metrics (common/metrics.h) say *that* p99 moved; a trace
// says *why one query* was slow: whether it missed the cache, how long each of the paper's five pipeline steps
// took. The Figure 4 pipeline is already reified as named stages, so
// every query has a natural span tree — this header is the machinery
// that records it.
//
// Model:
//
//   TraceContext  — a cheap copyable handle (shared pointer to the
//                   in-flight trace + the current parent span id).
//                   Carried by value in QueryContext, captured by value
//                   into pool closures; that explicit capture is how
//                   spans cross threads. An inactive context (the
//                   default) makes every operation a single branch.
//   Span          — RAII scope: monotonic start on construction,
//                   duration on End()/destruction, typed attributes,
//                   point-in-time events, and an error status. A span
//                   constructed from an inactive context is inert.
//   TraceRecorder — process-global: decides at the head of each request
//                   whether to trace it (1-in-N head sampling via
//                   SodaConfig::trace_sample_n), collects finished
//                   traces into a fixed-size ring, and always keeps
//                   traces that ended slow (slow_query_threshold_ms)
//                   or in error regardless of the head decision.
//
// Cost contract: with tracing disabled (sample_every == 0, the
// default), starting a trace is one relaxed atomic load and a branch,
// and every span/attr/event call on the resulting inactive context is
// one pointer test — the same shape as the unarmed failpoint path.
// BM_TraceOverhead holds this at <= 2% on the batch workload. Tracing
// never touches ranked output: byte-identity across cache stripes x
// threads holds with sampling on or off (trace_test proves both).
//
// Thread-local propagation: layers that cannot thread a context through
// their signatures (the abstract SodaService interface) publish it with
// ScopedTraceContext and the next layer down picks it up with
// CurrentTraceContext() — the HTTP server installs, the engine joins.
// Work that moves to another thread (pool tasks, a snippet stream run
// later) captures the context by value instead.

#ifndef SODA_COMMON_TRACE_H_
#define SODA_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace soda {

/// One typed key/value attached to a span ("queries" = 13, "cache" =
/// "hit"). Stored as a tagged union-of-members so rendering stays
/// trivially deterministic.
struct TraceAttr {
  enum class Kind { kString, kInt, kDouble, kBool };
  std::string key;
  Kind kind = Kind::kString;
  std::string string_value;
  int64_t int_value = 0;
  double double_value = 0.0;
  bool bool_value = false;
};

/// A point-in-time annotation inside a span ("delta_failure").
struct TraceEvent {
  std::string name;
  std::string detail;
  double at_ms = 0.0;  // offset from the trace's start
};

/// A finished span. Spans append to their trace's list in completion
/// order; renderers rebuild the tree from parent_id and sort children
/// by span id (creation order), so output is deterministic regardless
/// of which worker finished first.
struct SpanRecord {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  std::string name;
  double start_ms = 0.0;  // offset from the trace's start (monotonic)
  double duration_ms = 0.0;
  std::string status;  // "" = ok, else the error detail
  std::vector<TraceAttr> attrs;
  std::vector<TraceEvent> events;
};

/// The in-flight (and, once finished, archived) trace record. Shared by
/// every thread that carries the trace's context; span finishes append
/// under the record's own mutex — a lock is taken only on *sampled*
/// requests, never on the sampled-off fast path.
class TraceData {
 public:
  explicit TraceData(uint64_t trace_id)
      : trace_id_(trace_id), start_(std::chrono::steady_clock::now()) {}

  uint64_t trace_id() const { return trace_id_; }

  /// Milliseconds since the trace started (monotonic clock).
  double ElapsedMs() const {
    return OffsetMs(std::chrono::steady_clock::now());
  }

  /// Offset of the clock reading `at` from the trace's start, in ms.
  double OffsetMs(std::chrono::steady_clock::time_point at) const {
    return std::chrono::duration<double, std::milli>(at - start_).count();
  }

  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void AppendSpan(SpanRecord span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  void MarkError() { error_.store(true, std::memory_order_relaxed); }
  bool error() const { return error_.load(std::memory_order_relaxed); }

  /// Set once by TraceRecorder::FinishTrace; reads are safe afterwards.
  void set_wall_ms(double ms) { wall_ms_ = ms; }
  double wall_ms() const { return wall_ms_; }
  void set_slow(bool slow) { slow_ = slow; }
  bool slow() const { return slow_; }
  void set_head_sampled(bool sampled) { head_sampled_ = sampled; }
  bool head_sampled() const { return head_sampled_; }
  void set_root_name(std::string name) { root_name_ = std::move(name); }
  const std::string& root_name() const { return root_name_; }

  /// Snapshot of the finished spans (copy; the trace may still be
  /// appended to by stragglers when called mid-flight).
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  size_t span_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  uint64_t trace_id_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<bool> error_{false};
  bool head_sampled_ = false;
  bool slow_ = false;
  double wall_ms_ = 0.0;
  std::string root_name_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Cheap handle to an in-flight trace: a shared pointer plus the span
/// id new child spans should parent under. Copy freely; pass by value
/// into pool closures to carry a trace across threads.
struct TraceContext {
  std::shared_ptr<TraceData> data;
  uint64_t span_id = 0;  // parent for spans created from this context

  bool active() const { return data != nullptr; }
};

/// The thread's current trace context (inactive when none installed).
TraceContext CurrentTraceContext();

/// Installs `ctx` as the thread's current context for the scope —
/// restores the previous one on destruction. The seam for layers that
/// cannot change their signatures: the HTTP server installs the request
/// trace, and the engine joins whatever is current.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

/// RAII span. Inert (every method one branch) when the parent context
/// is inactive.
class Span {
 public:
  Span() = default;
  Span(const TraceContext& parent, std::string_view name);
  /// Starts at `start`, a clock reading the caller already took — the
  /// seam StageScope uses to share one reading per stage boundary.
  Span(const TraceContext& parent, std::string_view name,
       std::chrono::steady_clock::time_point start);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      End();
      record_ = std::move(other.record_);
      data_ = std::move(other.data_);
      other.data_.reset();
    }
    return *this;
  }

  bool active() const { return data_ != nullptr; }

  /// Context for children of this span (inactive when the span is).
  TraceContext context() const {
    return active() ? TraceContext{data_, record_.span_id} : TraceContext{};
  }

  void SetAttr(std::string_view key, std::string_view value);
  void SetAttr(std::string_view key, const char* value) {
    SetAttr(key, std::string_view(value));
  }
  void SetAttr(std::string_view key, int64_t value);
  void SetAttr(std::string_view key, double value);
  void SetAttr(std::string_view key, bool value);

  /// Point-in-time event stamped at the current trace offset.
  void AddEvent(std::string_view name, std::string_view detail = {});

  /// Span-local status — a retired interpretation, a per-query error
  /// inside an otherwise healthy batch. Does not flip the trace's
  /// error flag (and so never forces the trace to be kept).
  void SetStatus(std::string_view message);

  /// Marks this span (and the whole trace) as errored — errored traces
  /// are always kept regardless of the head-sampling decision.
  void SetError(std::string_view message);

  /// Stamps the duration and appends the record to the trace. Idempotent;
  /// also called by the destructor.
  void End();

  /// As End(), with a duration the caller measured instead of a fresh
  /// clock reading.
  void End(double duration_ms);

 private:
  SpanRecord record_;
  std::shared_ptr<TraceData> data_;
};

/// What FinishTrace decided about one trace.
struct TraceVerdict {
  bool kept = false;   // committed to the ring
  bool slow = false;   // exceeded the slow-query threshold
  bool error = false;  // at least one span errored
  size_t spans = 0;    // spans recorded on the trace
};

/// Process-global collector of finished traces. Head sampling, the
/// slow/error always-keep rule, the fixed-size ring of kept traces, and
/// the plain-text slow-query log all live here; /debug/traces and
/// DumpChromeTrace render from its snapshot.
class TraceRecorder {
 public:
  static TraceRecorder& Instance();

  /// Turns tracing on (sample_every >= 1: spans are recorded for every
  /// request, every sample_every-th is committed to the ring, slow/error
  /// traces always commit) or off (sample_every == 0 — the ~free path).
  /// slow_threshold_ms == 0 disables the slow always-keep. Engines apply
  /// their SodaConfig knobs here at Create time when either is set.
  void Configure(size_t sample_every, double slow_threshold_ms);

  /// Resizes the ring of kept traces (default 64; minimum 1). Existing
  /// kept traces are discarded.
  void SetCapacity(size_t capacity);

  /// Drops every kept trace, the slow-query log, and resets the head-
  /// sampling admission counter and lifetime totals — test isolation.
  /// Leaves Configure()/SetCapacity() settings in place.
  void Clear();

  /// One relaxed load: is tracing on at all?
  bool enabled() const {
    return sample_every_.load(std::memory_order_relaxed) != 0;
  }

  size_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }
  double slow_threshold_ms() const {
    return slow_threshold_ms_.load(std::memory_order_relaxed);
  }
  size_t capacity() const;

  /// Starts a trace when tracing is enabled (inactive context
  /// otherwise). The head-sampling decision — admission counter modulo
  /// sample_every — is made and recorded here. `trace_id` 0 assigns the
  /// next internal id; a caller-supplied id (the X-Soda-Trace-Id
  /// correlation path) is used verbatim.
  TraceContext StartTrace(std::string_view root_name, uint64_t trace_id = 0);

  /// Finishes a trace started here: stamps wall/slow/error, commits it
  /// to the ring when the head decision or the always-keep rules say so,
  /// and appends a slow-query log line when it was slow. Call after the
  /// root span ended. Returns what happened so the caller can book its
  /// own trace.{spans,sampled,dropped} counters.
  TraceVerdict FinishTrace(const TraceContext& ctx, double wall_ms);

  /// Newest-last snapshot of the kept traces.
  std::vector<std::shared_ptr<const TraceData>> Snapshot() const;

  /// Plain-text slow-query log, oldest first (bounded at 64 lines).
  std::vector<std::string> SlowLog() const;

  /// Lifetime totals since the last Clear().
  uint64_t traces_started() const {
    return started_.load(std::memory_order_relaxed);
  }
  uint64_t traces_kept() const {
    return kept_.load(std::memory_order_relaxed);
  }
  uint64_t traces_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  TraceRecorder();

  std::atomic<size_t> sample_every_{0};
  std::atomic<double> slow_threshold_ms_{0.0};
  std::atomic<uint64_t> admissions_{0};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> kept_{0};
  std::atomic<uint64_t> dropped_{0};

  // The ring of kept traces + the slow log. Touched only when a trace
  // commits (sampled traffic), never per span.
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const TraceData>> ring_;
  size_t ring_head_ = 0;
  size_t ring_size_ = 0;
  std::vector<std::string> slow_log_;
};

/// Formats a 64-bit trace id the way it travels in X-Soda-Trace-Id:
/// 16 lowercase hex digits.
std::string FormatTraceId(uint64_t id);

/// Parses an X-Soda-Trace-Id header value: 1-16 hex digits, nonzero.
/// Returns false (and leaves *id untouched) on anything else.
bool ParseTraceId(std::string_view text, uint64_t* id);

/// Deterministic JSON for /debug/traces: `{"traces":[...]}` with one
/// span tree per kept trace (oldest first), children nested and sorted
/// by span id. Traces faster than `min_ms` are filtered out; with
/// `errors_only`, only traces that ended in error render.
std::string RenderTraceJson(
    const std::vector<std::shared_ptr<const TraceData>>& traces,
    double min_ms = 0.0, bool errors_only = false);

/// Chrome trace_event-format JSON ("X" complete events, microsecond
/// timestamps) — load the string in about:tracing or Perfetto.
std::string DumpChromeTrace(
    const std::vector<std::shared_ptr<const TraceData>>& traces);

}  // namespace soda

#endif  // SODA_COMMON_TRACE_H_
