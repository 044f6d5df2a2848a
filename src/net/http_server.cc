#include "net/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/prometheus_sink.h"
#include "common/trace.h"
#include "net/json.h"
#include "net/search_json.h"

namespace soda {

namespace {

/// RAII occupancy ticket for the admission window: the pre-increment
/// occupancy is what the shed decision compares against the watermark,
/// so N concurrent arrivals at watermark W admit exactly W of themselves
/// regardless of interleaving.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<size_t>* counter) : counter_(counter) {
    occupancy_before_ = counter_->fetch_add(1);
  }
  ~InflightGuard() { counter_->fetch_sub(1); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

  size_t occupancy_before() const { return occupancy_before_; }

 private:
  std::atomic<size_t>* counter_;
  size_t occupancy_before_;
};

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

SodaHttpServer::SodaHttpServer(SodaService* service, HttpServerOptions options)
    : service_(service),
      options_(std::move(options)),
      sink_(std::make_shared<InMemoryMetricsSink>()),
      pool_(std::max<size_t>(2, options_.num_threads)) {}

SodaHttpServer::~SodaHttpServer() { Stop(); }

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Status SodaHttpServer::Start() {
  if (started_) return Status::Internal("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    int bind_errno = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("bind(): ") +
                            std::strerror(bind_errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    int listen_errno = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("listen(): ") +
                            std::strerror(listen_errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    int name_errno = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("getsockname(): ") +
                            std::strerror(name_errno));
  }
  port_ = ntohs(bound.sin_port);

  // Non-blocking listener: the accept loop polls it with a short timeout
  // so Stop() is observed within one tick even with no traffic.
  int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);

  // Pre-register the serving books at zero so /metrics exports every
  // server_* series from the first scrape (CI greps the exposition for
  // each of them — absence must mean "broken", never "no traffic yet").
  sink_->IncrementCounter("server.requests", 0);
  sink_->IncrementCounter("server.accepted", 0);
  sink_->IncrementCounter("server.shed", 0);
  sink_->IncrementCounter("server.timeouts", 0);
  sink_->IncrementCounter("server.stream_writes", 0);
  sink_->IncrementCounter("trace.spans", 0);
  sink_->IncrementCounter("trace.sampled", 0);
  sink_->IncrementCounter("trace.dropped", 0);
  sink_->IncrementCounter("trace.slow_queries", 0);
  sink_->Observe("server.inflight", 0.0);

  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SodaHttpServer::Stop() {
  if (!started_) return;
  stopping_ = true;
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drain barrier: every accepted connection (running or still queued on
  // the pool) finishes its in-flight request and decrements. Idle
  // keep-alive connections notice stopping_ within one 50ms poll tick.
  std::unique_lock<std::mutex> lock(drain_mu_);
  drained_.wait(lock, [this] { return open_connections_ == 0; });
}

// ---------------------------------------------------------------------------
// Accept / connection loops
// ---------------------------------------------------------------------------

void SodaHttpServer::AcceptLoop() {
  while (!stopping_) {
    pollfd listener{listen_fd_, POLLIN, 0};
    int ready = ::poll(&listener, 1, 100);
    if (ready <= 0) continue;
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    sink_->IncrementCounter("server.accepted", 1);
    // Bounded accept: a connection backlog deeper than the pool can
    // plausibly drain is answered 503 here rather than queued without
    // limit (the shed is booked — never a silent drop).
    if (pool_.queue_depth() >= options_.accept_queue_limit) {
      sink_->IncrementCounter("server.requests", 1);
      sink_->IncrementCounter("server.shed", 1);
      HttpResponse shed = ErrorResponse(503, "connection backlog full");
      shed.SetHeader("Retry-After", "1");
      SendAll(fd, SerializeResponse(shed, /*keep_alive=*/false));
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      ++open_connections_;
    }
    pool_.Submit([this, fd] { ServeConnection(fd); });
  }
}

void SodaHttpServer::ServeConnection(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  HttpRequestParser parser(HttpRequestParser::Limits{
      options_.max_header_bytes, options_.max_body_bytes});
  size_t served = 0;
  char buf[8192];

  for (;;) {
    // -------- read one request, budgeted from its first byte --------
    bool armed = parser.started();
    Deadline deadline = armed ? Deadline::AfterMs(options_.request_deadline_ms)
                              : Deadline();
    bool timed_out = false;
    bool connection_dead = false;
    while (parser.state() == HttpRequestParser::State::kIncomplete) {
      if (stopping_ && !parser.started()) {
        // Graceful drain: no request has begun on this connection, so
        // closing it drops nothing.
        connection_dead = true;
        break;
      }
      if (armed && deadline.expired()) {
        timed_out = true;
        break;
      }
      pollfd conn{fd, POLLIN, 0};
      double wait_ms = 50.0;
      if (armed) wait_ms = std::min(wait_ms, deadline.remaining_ms());
      int ready = ::poll(&conn, 1, static_cast<int>(wait_ms) + 1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        connection_dead = true;
        break;
      }
      if (ready == 0) continue;
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) {
        connection_dead = true;  // peer closed
        break;
      }
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        connection_dead = true;
        break;
      }
      if (!armed) {
        armed = true;
        deadline = Deadline::AfterMs(options_.request_deadline_ms);
      }
      parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
    if (connection_dead) break;
    if (timed_out) {
      sink_->IncrementCounter("server.requests", 1);
      sink_->IncrementCounter("server.timeouts", 1);
      SendAll(fd, SerializeResponse(
                      ErrorResponse(408, "request read deadline exceeded"),
                      /*keep_alive=*/false));
      break;
    }
    if (parser.state() == HttpRequestParser::State::kError) {
      sink_->IncrementCounter("server.requests", 1);
      SendAll(fd, SerializeResponse(ErrorResponse(parser.error_status(),
                                                  parser.error_detail()),
                                    /*keep_alive=*/false));
      break;
    }

    // -------- serve it --------
    sink_->IncrementCounter("server.requests", 1);
    const HttpRequest& request = parser.request();
    ++served;
    bool keep_alive = request.keep_alive() && !stopping_ &&
                      served < options_.max_keepalive_requests;
    HttpResponse response;
    bool already_written = false;

    // Per-request trace. An inbound X-Soda-Trace-Id lets the client pick
    // the id (so its own logs correlate with /debug/traces); a malformed
    // one is rejected outright rather than silently re-keyed. The id —
    // inbound or freshly minted — is echoed on every response the
    // handler did not write itself, even when tracing is sampled off:
    // correlation must not depend on sampling config.
    uint64_t trace_id = 0;
    std::string_view inbound_id = request.header("X-Soda-Trace-Id");
    const bool malformed_trace_id =
        !inbound_id.empty() && !ParseTraceId(inbound_id, &trace_id);
    if (malformed_trace_id) trace_id = 0;
    TraceRecorder& recorder = TraceRecorder::Instance();
    TraceContext trace;
    if (!malformed_trace_id && recorder.enabled()) {
      trace = recorder.StartTrace("http.request", trace_id);
      if (trace.active()) trace_id = trace.data->trace_id();
    }
    std::string trace_header = trace_id != 0 ? FormatTraceId(trace_id) : "";

    if (malformed_trace_id) {
      response = ErrorResponse(400, "malformed X-Soda-Trace-Id");
    } else {
      // Root span over the whole handler; ScopedTraceContext is what the
      // engine joins, so its spans parent under this one.
      Span root_span(trace, "http.request");
      if (root_span.active()) {
        root_span.SetAttr("method", request.method);
        root_span.SetAttr("path", request.path());
      }
      ScopedTraceContext scoped(root_span.context());
      try {
        already_written = HandleRequest(request, deadline, fd, keep_alive,
                                        trace_header, &response);
      } catch (const std::exception& e) {
        response = ErrorResponse(500, e.what());
      } catch (...) {
        response = ErrorResponse(500, "unknown handler exception");
      }
      if (root_span.active() && !already_written) {
        root_span.SetAttr("status", static_cast<int64_t>(response.status));
        if (response.status >= 500) {
          // 5xx marks the whole trace errored → always kept in the ring.
          root_span.SetError(ReasonPhrase(response.status));
        }
      }
    }
    if (trace.active()) {
      TraceVerdict verdict =
          recorder.FinishTrace(trace, trace.data->ElapsedMs());
      sink_->IncrementCounter("trace.spans", verdict.spans);
      sink_->IncrementCounter(
          verdict.kept ? "trace.sampled" : "trace.dropped", 1);
      if (verdict.slow) sink_->IncrementCounter("trace.slow_queries", 1);
    }
    if (!already_written && !trace_header.empty()) {
      response.SetHeader("X-Soda-Trace-Id", trace_header);
    }
    if (!already_written &&
        !SendAll(fd, SerializeResponse(response, keep_alive))) {
      break;
    }
    if (!keep_alive) break;
    parser.Reset();
  }

  ::close(fd);
  {
    // Notify under the lock: the moment Stop()'s waiter can observe
    // open_connections_ == 0 and let the destructor tear the condition
    // variable down, this thread must already be past the notify call.
    std::lock_guard<std::mutex> lock(drain_mu_);
    --open_connections_;
    drained_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

bool SodaHttpServer::HandleRequest(const HttpRequest& request,
                                   const Deadline& deadline, int fd,
                                   bool keep_alive,
                                   const std::string& trace_header,
                                   HttpResponse* response) {
  // Fault seam for the serving path: when armed it throws here, and the
  // ServeConnection catch turns it into a booked 500 — proving a dying
  // handler never wedges the connection loop or leaks the drain count.
  SODA_FAILPOINT("http.handle");
  std::string_view path = request.path();
  if (path == "/healthz") {
    if (request.method != "GET" && request.method != "HEAD") {
      *response = ErrorResponse(405, "healthz accepts GET only");
      response->SetHeader("Allow", "GET");
      return false;
    }
    *response = HandleHealthz();
    return false;
  }
  if (path == "/metrics") {
    if (request.method != "GET") {
      *response = ErrorResponse(405, "metrics accepts GET only");
      response->SetHeader("Allow", "GET");
      return false;
    }
    *response = HandleMetrics();
    return false;
  }
  if (path == "/debug/traces") {
    if (request.method != "GET") {
      *response = ErrorResponse(405, "debug/traces accepts GET only");
      response->SetHeader("Allow", "GET");
      return false;
    }
    *response = HandleDebugTraces(request);
    return false;
  }
  if (path == "/debug/vars") {
    if (request.method != "GET") {
      *response = ErrorResponse(405, "debug/vars accepts GET only");
      response->SetHeader("Allow", "GET");
      return false;
    }
    *response = HandleDebugVars();
    return false;
  }
  if (path == "/search") {
    if (request.method != "POST") {
      *response = ErrorResponse(405, "search accepts POST only");
      response->SetHeader("Allow", "POST");
      return false;
    }
    if (request.HasQueryParam("stream", "1")) {
      if (HandleStreamingSearch(request, fd, keep_alive, trace_header,
                                response)) {
        return true;
      }
      return false;  // shed / parse failure before the head went out
    }
    *response = HandleSearch(request, deadline);
    return false;
  }
  *response = ErrorResponse(404, "unknown path");
  return false;
}

bool SodaHttpServer::Shed(size_t occupancy_before, HttpResponse* response) {
  // Admission window: this request is admitted only while the searches
  // already in flight plus the engine's own backlog sit strictly below
  // the watermark. queue_depth() is a sampled load signal — the guard is
  // a watermark, not an exact token bucket.
  if (occupancy_before + service_->queue_depth() < options_.shed_watermark) {
    return false;
  }
  sink_->IncrementCounter("server.shed", 1);
  *response = ErrorResponse(503, "over admission watermark");
  response->SetHeader("Retry-After", "1");
  return true;
}

HttpResponse SodaHttpServer::HandleSearch(const HttpRequest& request,
                                          const Deadline& deadline) {
  InflightGuard guard(&search_inflight_);
  sink_->Observe("server.inflight",
                 static_cast<double>(guard.occupancy_before() + 1));
  HttpResponse response;
  if (Shed(guard.occupancy_before(), &response)) return response;

  Result<std::vector<std::string>> queries = ParseSearchBody(request.body);
  if (!queries.ok()) return ErrorResponse(400, queries.status().message());

  auto start = std::chrono::steady_clock::now();
  std::vector<Result<SearchOutput>> outputs =
      service_->SearchAll(std::span<const std::string>(*queries));
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (deadline.expired()) {
    sink_->IncrementCounter("server.timeouts", 1);
    return ErrorResponse(504, "deadline exceeded during search");
  }

  response.status = 200;
  response.SetHeader("Content-Type", "application/json");
  // Observability rides in headers only: the body is byte-identical for
  // identical questions regardless of cache state or stripe layout
  // (net/search_json.h), and wall time would break exactly that.
  response.SetHeader("X-Soda-Wall-Ms", FormatMs(wall_ms));
  response.SetHeader("X-Soda-Queries", std::to_string(queries->size()));
  response.body = RenderSearchResponseJson(*queries, outputs);
  return response;
}

bool SodaHttpServer::HandleStreamingSearch(const HttpRequest& request, int fd,
                                           bool keep_alive,
                                           const std::string& trace_header,
                                           HttpResponse* error_response) {
  InflightGuard guard(&search_inflight_);
  sink_->Observe("server.inflight",
                 static_cast<double>(guard.occupancy_before() + 1));
  if (Shed(guard.occupancy_before(), error_response)) return false;

  Result<std::vector<std::string>> queries = ParseSearchBody(request.body);
  if (!queries.ok()) {
    *error_response = ErrorResponse(400, queries.status().message());
    return false;
  }

  // Snippet callbacks fire only inside Run() below, on this thread, after
  // the head and the translation payload are out. Each unique query's
  // events are buffered and written together once its snippets have run,
  // so a stream of R runs costs R + 1 writes, not one per event. After a
  // failed write the rest of the stream is dropped.
  bool write_failed = false;
  auto send = [this, fd, &write_failed](const std::string& bytes) {
    if (write_failed) return;
    // Booked before the bytes go out, so a client that has read the whole
    // body also sees every write counted.
    sink_->IncrementCounter("server.stream_writes", 1);
    if (!SendAll(fd, bytes)) write_failed = true;
  };
  std::string pending;  // the current run's serialized events
  auto on_snippet = [&pending](size_t query_index, size_t result_index,
                               const SodaResult& result) {
    pending += SerializeChunk(
        RenderSnippetEventJson(query_index, result_index, result));
  };
  auto flush_run = [&send, &pending] {
    send(pending);
    pending.clear();
  };

  AsyncSearch search = service_->SearchAllAsync(
      std::span<const std::string>(*queries), on_snippet);

  HttpResponse head;
  head.status = 200;
  head.SetHeader("Content-Type", "application/x-ndjson");
  head.SetHeader("X-Soda-Queries", std::to_string(queries->size()));
  // The streaming handler writes its own head, so the trace-id echo that
  // ServeConnection stamps on buffered responses rides here instead.
  if (!trace_header.empty()) head.SetHeader("X-Soda-Trace-Id", trace_header);
  // The head and the translation payload go out in one write.
  send(SerializeChunkedHead(head, keep_alive) +
       SerializeChunk(RenderSearchResponseJson(*queries, search.outputs)));

  // Runs the snippets in first-occurrence query order, then result order,
  // writing each run's events as the next run starts; once it returns no
  // callback can fire, so the last run's events, the done line and the
  // terminating chunk share the closing write.
  SnippetStream::Summary summary = search.snippets.Run(flush_run);
  pending += SerializeChunk(RenderStreamDoneJson(
      summary.delivered, summary.callback_exceptions));
  pending += SerializeLastChunk();
  send(pending);
  return true;
}

HttpResponse SodaHttpServer::HandleHealthz() const {
  // Liveness: a process that can answer this is serving. Probes key on
  // the first line.
  HttpResponse response;
  response.status = 200;
  response.SetHeader("Content-Type", "text/plain; charset=utf-8");
  response.body = "ok\n";
  return response;
}

HttpResponse SodaHttpServer::HandleMetrics() const {
  HttpResponse response;
  response.status = 200;
  response.SetHeader("Content-Type",
                     "text/plain; version=0.0.4; charset=utf-8");
  response.body =
      RenderPrometheusText(metrics_snapshot(), options_.metrics_prefix);
  return response;
}

HttpResponse SodaHttpServer::HandleDebugTraces(
    const HttpRequest& request) const {
  double min_ms = 0.0;
  std::string_view min_param = request.QueryParamValue("min_ms");
  if (!min_param.empty()) {
    std::string text(min_param);
    char* end = nullptr;
    min_ms = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || min_ms < 0.0) {
      return ErrorResponse(400, "min_ms must be a non-negative number");
    }
  }
  const bool errors_only = request.HasQueryParam("error", "1");
  std::vector<std::shared_ptr<const TraceData>> traces =
      TraceRecorder::Instance().Snapshot();
  HttpResponse response;
  response.status = 200;
  response.SetHeader("Content-Type", "application/json");
  response.body = request.HasQueryParam("chrome", "1")
                      ? DumpChromeTrace(traces)
                      : RenderTraceJson(traces, min_ms, errors_only);
  return response;
}

HttpResponse SodaHttpServer::HandleDebugVars() const {
  // One JSON object with everything an operator at a misbehaving box
  // wants before reaching for a debugger: the knobs the server actually
  // runs with, the live service/cache state, the trace recorder's
  // totals plus its slow-query log, and enough build info to tell which
  // binary answered.
  std::string body = "{\"server\":{\"bind_address\":";
  AppendJsonQuoted(&body, options_.bind_address);
  body += ",\"port\":" + std::to_string(port_);
  body += ",\"num_threads\":" + std::to_string(options_.num_threads);
  body += ",\"shed_watermark\":" + std::to_string(options_.shed_watermark);
  body +=
      ",\"accept_queue_limit\":" + std::to_string(options_.accept_queue_limit);
  body += ",\"request_deadline_ms\":";
  AppendJsonNumber(&body, options_.request_deadline_ms);
  body += ",\"max_batch_queries\":" +
          std::to_string(options_.max_batch_queries);
  body += ",\"metrics_prefix\":";
  AppendJsonQuoted(&body, options_.metrics_prefix);
  body += ",\"search_inflight\":" + std::to_string(search_inflight_.load());

  body += "},\"service\":{\"num_threads\":" +
          std::to_string(service_->num_threads());
  body += ",\"queue_depth\":" + std::to_string(service_->queue_depth());
  CacheStats cache = service_->cache_stats();
  body += ",\"cache\":{\"hits\":" + std::to_string(cache.hits) +
          ",\"misses\":" + std::to_string(cache.misses) +
          ",\"evictions\":" + std::to_string(cache.evictions) +
          ",\"invalidations\":" + std::to_string(cache.invalidations) +
          ",\"size\":" + std::to_string(cache.size) +
          ",\"capacity\":" + std::to_string(cache.capacity) + "}";

  TraceRecorder& recorder = TraceRecorder::Instance();
  body += "},\"trace\":{\"enabled\":";
  body += recorder.enabled() ? "true" : "false";
  body += ",\"sample_every\":" + std::to_string(recorder.sample_every());
  body += ",\"slow_threshold_ms\":";
  AppendJsonNumber(&body, recorder.slow_threshold_ms());
  body += ",\"capacity\":" + std::to_string(recorder.capacity());
  body += ",\"started\":" + std::to_string(recorder.traces_started());
  body += ",\"kept\":" + std::to_string(recorder.traces_kept());
  body += ",\"dropped\":" + std::to_string(recorder.traces_dropped());
  body += ",\"slow_log\":[";
  std::vector<std::string> slow = recorder.SlowLog();
  for (size_t i = 0; i < slow.size(); ++i) {
    if (i > 0) body += ",";
    AppendJsonQuoted(&body, slow[i]);
  }
  body += "]},\"build\":{\"compiler\":";
  AppendJsonQuoted(&body, __VERSION__);
  body += ",\"failpoints\":";
  body += Failpoints::compiled_in() ? "true" : "false";
  body += "}}\n";

  HttpResponse response;
  response.status = 200;
  response.SetHeader("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

MetricsSnapshot SodaHttpServer::metrics_snapshot() const {
  MetricsSnapshot merged = sink_->Snapshot();
  merged.MergeFrom(service_->metrics_snapshot());
  if (options_.extra_metrics) merged.MergeFrom(options_.extra_metrics());
  return merged;
}

// ---------------------------------------------------------------------------
// Request body
// ---------------------------------------------------------------------------

Result<std::vector<std::string>> SodaHttpServer::ParseSearchBody(
    const std::string& body) const {
  SODA_ASSIGN_OR_RETURN(JsonValue document, ParseJson(body));
  if (!document.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  std::vector<std::string> queries;
  if (const JsonValue* single = document.Find("query")) {
    if (!single->is_string()) {
      return Status::InvalidArgument("\"query\" must be a string");
    }
    queries.push_back(single->as_string());
  } else if (const JsonValue* batch = document.Find("queries")) {
    if (!batch->is_array()) {
      return Status::InvalidArgument("\"queries\" must be an array");
    }
    for (const JsonValue& entry : batch->as_array()) {
      if (!entry.is_string()) {
        return Status::InvalidArgument("\"queries\" entries must be strings");
      }
      queries.push_back(entry.as_string());
    }
  } else {
    return Status::InvalidArgument(
        "request body needs \"query\" or \"queries\"");
  }
  if (queries.empty()) {
    return Status::InvalidArgument("no queries supplied");
  }
  if (queries.size() > options_.max_batch_queries) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(queries.size()) +
        " exceeds max_batch_queries=" +
        std::to_string(options_.max_batch_queries));
  }
  return queries;
}

// ---------------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------------

HttpResponse SodaHttpServer::ErrorResponse(int status,
                                           std::string_view detail) {
  HttpResponse response;
  response.status = status;
  response.SetHeader("Content-Type", "application/json");
  response.body = "{\"error\":";
  AppendJsonQuoted(&response.body, ReasonPhrase(status));
  response.body += ",\"detail\":";
  AppendJsonQuoted(&response.body, detail);
  response.body += "}\n";
  return response;
}

bool SodaHttpServer::SendAll(int fd, std::string_view data) const {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace soda
