#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "net/json.h"

namespace soda {

namespace {

// The thread's installed context. A plain thread_local TraceContext
// would run a shared_ptr destructor at thread exit after the pointee's
// library state may be gone; the pointer-to-storage indirection keeps
// the read path to one thread_local access plus a null test.
thread_local TraceContext t_current_context;

constexpr size_t kDefaultRingCapacity = 64;
constexpr size_t kSlowLogCapacity = 64;

void AppendAttrValue(std::string* out, const TraceAttr& attr) {
  switch (attr.kind) {
    case TraceAttr::Kind::kString:
      AppendJsonQuoted(out, attr.string_value);
      break;
    case TraceAttr::Kind::kInt:
      AppendJsonNumber(out, static_cast<double>(attr.int_value));
      break;
    case TraceAttr::Kind::kDouble:
      AppendJsonNumber(out, attr.double_value);
      break;
    case TraceAttr::Kind::kBool:
      out->append(attr.bool_value ? "true" : "false");
      break;
  }
}

void AppendSpanJson(std::string* out, const SpanRecord& span,
                    const std::multimap<uint64_t, const SpanRecord*>& children);

void AppendChildrenJson(
    std::string* out, uint64_t parent_id,
    const std::multimap<uint64_t, const SpanRecord*>& children) {
  out->push_back('[');
  auto [begin, end] = children.equal_range(parent_id);
  bool first = true;
  for (auto it = begin; it != end; ++it) {
    if (!first) out->push_back(',');
    first = false;
    AppendSpanJson(out, *it->second, children);
  }
  out->push_back(']');
}

void AppendSpanJson(std::string* out, const SpanRecord& span,
                    const std::multimap<uint64_t, const SpanRecord*>& children) {
  out->append("{\"id\":");
  AppendJsonNumber(out, static_cast<double>(span.span_id));
  out->append(",\"name\":");
  AppendJsonQuoted(out, span.name);
  out->append(",\"start_ms\":");
  AppendJsonNumber(out, span.start_ms);
  out->append(",\"duration_ms\":");
  AppendJsonNumber(out, span.duration_ms);
  if (!span.status.empty()) {
    out->append(",\"error\":");
    AppendJsonQuoted(out, span.status);
  }
  if (!span.attrs.empty()) {
    out->append(",\"attrs\":{");
    for (size_t i = 0; i < span.attrs.size(); ++i) {
      if (i > 0) out->push_back(',');
      AppendJsonQuoted(out, span.attrs[i].key);
      out->push_back(':');
      AppendAttrValue(out, span.attrs[i]);
    }
    out->push_back('}');
  }
  if (!span.events.empty()) {
    out->append(",\"events\":[");
    for (size_t i = 0; i < span.events.size(); ++i) {
      if (i > 0) out->push_back(',');
      out->append("{\"name\":");
      AppendJsonQuoted(out, span.events[i].name);
      if (!span.events[i].detail.empty()) {
        out->append(",\"detail\":");
        AppendJsonQuoted(out, span.events[i].detail);
      }
      out->append(",\"at_ms\":");
      AppendJsonNumber(out, span.events[i].at_ms);
      out->push_back('}');
    }
    out->push_back(']');
  }
  out->append(",\"children\":");
  AppendChildrenJson(out, span.span_id, children);
  out->push_back('}');
}

/// Sorted child index for one trace's spans: span id is creation
/// order, so the rendered tree is deterministic no matter which worker
/// thread finished (appended) first.
std::multimap<uint64_t, const SpanRecord*> ChildIndex(
    const std::vector<SpanRecord>& spans) {
  std::vector<const SpanRecord*> ordered;
  ordered.reserve(spans.size());
  for (const SpanRecord& span : spans) ordered.push_back(&span);
  std::sort(ordered.begin(), ordered.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->span_id < b->span_id;
            });
  std::multimap<uint64_t, const SpanRecord*> children;
  for (const SpanRecord* span : ordered) {
    children.emplace(span->parent_id, span);
  }
  return children;
}

}  // namespace

// ---------------------------------------------------------------------------
// Context propagation
// ---------------------------------------------------------------------------

TraceContext CurrentTraceContext() { return t_current_context; }

ScopedTraceContext::ScopedTraceContext(TraceContext ctx)
    : previous_(std::move(t_current_context)) {
  t_current_context = std::move(ctx);
}

ScopedTraceContext::~ScopedTraceContext() {
  t_current_context = std::move(previous_);
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

Span::Span(const TraceContext& parent, std::string_view name)
    : Span(parent, name,
           parent.active() ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{}) {}

Span::Span(const TraceContext& parent, std::string_view name,
           std::chrono::steady_clock::time_point start) {
  if (!parent.active()) return;
  data_ = parent.data;
  record_.span_id = data_->NextSpanId();
  record_.parent_id = parent.span_id;
  record_.name.assign(name);
  record_.start_ms = data_->OffsetMs(start);
}

void Span::SetAttr(std::string_view key, std::string_view value) {
  if (!active()) return;
  TraceAttr attr;
  attr.key.assign(key);
  attr.kind = TraceAttr::Kind::kString;
  attr.string_value.assign(value);
  record_.attrs.push_back(std::move(attr));
}

void Span::SetAttr(std::string_view key, int64_t value) {
  if (!active()) return;
  TraceAttr attr;
  attr.key.assign(key);
  attr.kind = TraceAttr::Kind::kInt;
  attr.int_value = value;
  record_.attrs.push_back(std::move(attr));
}

void Span::SetAttr(std::string_view key, double value) {
  if (!active()) return;
  TraceAttr attr;
  attr.key.assign(key);
  attr.kind = TraceAttr::Kind::kDouble;
  attr.double_value = value;
  record_.attrs.push_back(std::move(attr));
}

void Span::SetAttr(std::string_view key, bool value) {
  if (!active()) return;
  TraceAttr attr;
  attr.key.assign(key);
  attr.kind = TraceAttr::Kind::kBool;
  attr.bool_value = value;
  record_.attrs.push_back(std::move(attr));
}

void Span::AddEvent(std::string_view name, std::string_view detail) {
  if (!active()) return;
  TraceEvent event;
  event.name.assign(name);
  event.detail.assign(detail);
  event.at_ms = data_->ElapsedMs();
  record_.events.push_back(std::move(event));
}

void Span::SetStatus(std::string_view message) {
  if (!active()) return;
  record_.status.assign(message.empty() ? "error" : message);
}

void Span::SetError(std::string_view message) {
  if (!active()) return;
  SetStatus(message);
  data_->MarkError();
}

void Span::End() {
  if (!active()) return;
  End(data_->ElapsedMs() - record_.start_ms);
}

void Span::End(double duration_ms) {
  if (!active()) return;
  record_.duration_ms = duration_ms;
  data_->AppendSpan(std::move(record_));
  data_.reset();
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TraceRecorder::TraceRecorder() : ring_(kDefaultRingCapacity) {}

TraceRecorder& TraceRecorder::Instance() {
  static TraceRecorder* instance = new TraceRecorder();
  return *instance;
}

void TraceRecorder::Configure(size_t sample_every, double slow_threshold_ms) {
  sample_every_.store(sample_every, std::memory_order_relaxed);
  slow_threshold_ms_.store(slow_threshold_ms, std::memory_order_relaxed);
}

void TraceRecorder::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.assign(std::max<size_t>(capacity, 1), nullptr);
  ring_head_ = 0;
  ring_size_ = 0;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(ring_.begin(), ring_.end(), nullptr);
  ring_head_ = 0;
  ring_size_ = 0;
  slow_log_.clear();
  admissions_.store(0, std::memory_order_relaxed);
  started_.store(0, std::memory_order_relaxed);
  kept_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

size_t TraceRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

TraceContext TraceRecorder::StartTrace(std::string_view root_name,
                                       uint64_t trace_id) {
  size_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return TraceContext{};
  if (trace_id == 0) {
    trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  auto data = std::make_shared<TraceData>(trace_id);
  data->set_root_name(std::string(root_name));
  // The head decision: the k-th admitted trace (k starting at 0) is kept
  // when k % sample_every == 0 — deterministic for serial request
  // sequences, which is what the sampling-determinism test pins.
  uint64_t admission = admissions_.fetch_add(1, std::memory_order_relaxed);
  data->set_head_sampled(admission % every == 0);
  started_.fetch_add(1, std::memory_order_relaxed);
  return TraceContext{std::move(data), 0};
}

TraceVerdict TraceRecorder::FinishTrace(const TraceContext& ctx,
                                        double wall_ms) {
  TraceVerdict verdict;
  if (!ctx.active()) return verdict;
  TraceData* data = ctx.data.get();
  double slow_ms = slow_threshold_ms_.load(std::memory_order_relaxed);
  data->set_wall_ms(wall_ms);
  data->set_slow(slow_ms > 0.0 && wall_ms >= slow_ms);
  verdict.slow = data->slow();
  verdict.error = data->error();
  verdict.spans = data->span_count();
  verdict.kept = data->head_sampled() || verdict.slow || verdict.error;
  if (verdict.kept) {
    kept_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    ring_[ring_head_] = ctx.data;
    ring_head_ = (ring_head_ + 1) % ring_.size();
    ring_size_ = std::min(ring_size_ + 1, ring_.size());
    if (verdict.slow) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "SLOW %.3fms trace=%s root=%s spans=%zu%s", wall_ms,
                    FormatTraceId(data->trace_id()).c_str(),
                    data->root_name().c_str(), verdict.spans,
                    verdict.error ? " error=1" : "");
      if (slow_log_.size() >= kSlowLogCapacity) {
        slow_log_.erase(slow_log_.begin());
      }
      slow_log_.emplace_back(line);
    }
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  return verdict;
}

std::vector<std::shared_ptr<const TraceData>> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const TraceData>> out;
  out.reserve(ring_size_);
  // Oldest first: the ring head points at the next overwrite slot, which
  // is the oldest entry once the ring has wrapped.
  size_t start = ring_size_ == ring_.size() ? ring_head_ : 0;
  for (size_t i = 0; i < ring_size_; ++i) {
    const auto& slot = ring_[(start + i) % ring_.size()];
    if (slot != nullptr) out.push_back(slot);
  }
  return out;
}

std::vector<std::string> TraceRecorder::SlowLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_log_;
}

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

std::string FormatTraceId(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf, 16);
}

bool ParseTraceId(std::string_view text, uint64_t* id) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (char c : text) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  if (value == 0) return false;
  *id = value;
  return true;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string RenderTraceJson(
    const std::vector<std::shared_ptr<const TraceData>>& traces, double min_ms,
    bool errors_only) {
  std::string out = "{\"traces\":[";
  bool first = true;
  for (const auto& trace : traces) {
    if (trace == nullptr) continue;
    if (trace->wall_ms() < min_ms) continue;
    if (errors_only && !trace->error()) continue;
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"trace_id\":");
    AppendJsonQuoted(&out, FormatTraceId(trace->trace_id()));
    out.append(",\"root\":");
    AppendJsonQuoted(&out, trace->root_name());
    out.append(",\"wall_ms\":");
    AppendJsonNumber(&out, trace->wall_ms());
    out.append(",\"error\":");
    out.append(trace->error() ? "true" : "false");
    out.append(",\"slow\":");
    out.append(trace->slow() ? "true" : "false");
    std::vector<SpanRecord> spans = trace->spans();
    out.append(",\"spans\":");
    AppendChildrenJson(&out, 0, ChildIndex(spans));
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

std::string DumpChromeTrace(
    const std::vector<std::shared_ptr<const TraceData>>& traces) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& trace : traces) {
    if (trace == nullptr) continue;
    std::vector<SpanRecord> spans = trace->spans();
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.span_id < b.span_id;
              });
    for (const SpanRecord& span : spans) {
      if (!first) out.push_back(',');
      first = false;
      out.append("{\"name\":");
      AppendJsonQuoted(&out, span.name);
      out.append(",\"cat\":\"soda\",\"ph\":\"X\",\"ts\":");
      AppendJsonNumber(&out, span.start_ms * 1000.0);
      out.append(",\"dur\":");
      AppendJsonNumber(&out, span.duration_ms * 1000.0);
      // One Chrome "process" per trace, spans stacked by creation order:
      // about:tracing renders each request as its own track.
      out.append(",\"pid\":");
      AppendJsonNumber(&out, static_cast<double>(trace->trace_id() &
                                                 0x7fffffff));
      out.append(",\"tid\":");
      AppendJsonNumber(&out, static_cast<double>(span.parent_id));
      out.append(",\"args\":{\"trace_id\":");
      AppendJsonQuoted(&out, FormatTraceId(trace->trace_id()));
      if (!span.status.empty()) {
        out.append(",\"error\":");
        AppendJsonQuoted(&out, span.status);
      }
      for (const TraceAttr& attr : span.attrs) {
        out.push_back(',');
        AppendJsonQuoted(&out, attr.key);
        out.push_back(':');
        AppendAttrValue(&out, attr);
      }
      out.append("}}");
    }
  }
  out.append("]}");
  return out;
}

}  // namespace soda
