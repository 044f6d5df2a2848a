// SodaHttpServer — the network front end over any SodaService.
//
// The paper's system ran as a shared service over a Credit Suisse
// warehouse; this is that deployment shape for the reproduction: a small
// HTTP/1.1 server that fronts a SodaService (single engine or sharded
// fleet — construction-time choice, as everywhere else) and puts the
// serving-robustness machinery in one place:
//
//   POST /search            single {"query":"..."} or batched
//                           {"queries":["...", ...]} JSON in; the
//                           deterministic RenderSearchResponseJson body
//                           out (byte-identical to an in-process
//                           SearchAll — see net/search_json.h). Wall
//                           time and cache observability travel as
//                           X-Soda-* headers, never in the body.
//   POST /search?stream=1   chunked newline-delimited JSON: the
//                           translated outputs first, then one
//                           {"event":"snippet",...} line per snippet as
//                           the returned SnippetStream runs it on the
//                           connection thread — in first-occurrence
//                           query order, then result order, at any shard
//                           count — closed by an {"event":"done",...}
//                           summary. A query's events are written
//                           together once its snippets have run (one
//                           write per query; the last shares the done
//                           line's write).
//   GET  /metrics           Prometheus text exposition of the server's
//                           own counters merged with the service fleet
//                           snapshot (and an optional extra snapshot,
//                           e.g. a FreshnessManager's).
//   GET  /healthz           200 with the bare body "ok\n" (probes key on
//                           the first line). Never shed, usable as a
//                           liveness probe under overload.
//
// Robustness layer:
//
//   * bounded accept/read loop — one accept thread polls the listening
//     socket; connections are served on a fixed ThreadPool
//     (common/thread_pool.h). When more connections are queued than
//     accept_queue_limit the accept thread answers 503 immediately
//     instead of queueing unboundedly;
//   * queue-depth-aware admission control — a /search is admitted only
//     while (in-flight searches + SodaService::queue_depth()) is below
//     shed_watermark; everything else is shed with 503 + Retry-After
//     and booked, never silently dropped. watermark 0 sheds everything
//     (useful in tests); /healthz and /metrics are never shed;
//   * per-request deadlines — a request that fails to arrive within
//     request_deadline_ms of its first byte is answered 408; a search
//     whose answer was computed after the deadline passed is answered
//     504 (the pipeline is not cancellable mid-flight; the budget caps
//     what the client waits for, not what the pool spends);
//   * graceful drain — Stop() (also run by the destructor) stops
//     accepting, lets every in-flight request complete and write its
//     response, then joins. Keep-alive connections are told
//     "Connection: close" on their in-flight response.
//
// Everything is booked through MetricsSink into the server's own sink:
// server.requests, server.accepted, server.shed, server.timeouts
// (counters, pre-registered at zero so /metrics always exports them)
// and server.inflight (histogram, sampled at every /search admission).
//
// Thread-safety: Start/Stop from one controlling thread; everything
// else is internal. The server never mutates the service beyond calling
// its const serving surface.

#ifndef SODA_NET_HTTP_SERVER_H_
#define SODA_NET_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/service.h"
#include "net/http.h"

namespace soda {

struct HttpServerOptions {
  /// Loopback by default: the reproduction's serving story is a
  /// same-host fleet; bind wider deliberately.
  std::string bind_address = "127.0.0.1";

  /// 0 binds an ephemeral port; read the outcome from port().
  uint16_t port = 0;

  /// Connection-serving workers (min 2 is enforced: a workerless pool
  /// would serve connections inline on the accept thread and wedge
  /// accepts behind keep-alive connections).
  size_t num_threads = 4;

  /// Admission watermark: a /search is admitted only while the number
  /// of already-admitted in-flight searches plus the service's
  /// queue_depth() is strictly below this. 0 sheds every search.
  size_t shed_watermark = 64;

  /// Connections waiting for a worker before the accept thread starts
  /// answering 503 without queueing.
  size_t accept_queue_limit = 256;

  /// Per-request budget, measured from the request's first byte.
  double request_deadline_ms = 30000.0;

  /// Framing limits (413 / 431 beyond them).
  size_t max_header_bytes = 8 * 1024;
  size_t max_body_bytes = 1 << 20;

  /// Requests served per keep-alive connection before the server closes
  /// it (fairness under connection churn).
  size_t max_keepalive_requests = 128;

  /// Cap on "queries" array length per /search (400 beyond it).
  size_t max_batch_queries = 64;

  /// Metric prefix of the /metrics exposition.
  std::string metrics_prefix = "soda";

  /// Extra snapshot merged into /metrics (e.g. a FreshnessManager's
  /// books). Called per scrape; must be thread-safe.
  std::function<MetricsSnapshot()> extra_metrics;
};

class SodaHttpServer {
 public:
  /// `service` must outlive the server.
  SodaHttpServer(SodaService* service, HttpServerOptions options);

  /// Stops and drains (see Stop).
  ~SodaHttpServer();

  SodaHttpServer(const SodaHttpServer&) = delete;
  SodaHttpServer& operator=(const SodaHttpServer&) = delete;

  /// Binds, listens and starts the accept thread. Fails with
  /// InvalidArgument/Internal on socket errors (port in use, bad
  /// address). Start after construction; a stopped server does not
  /// restart.
  Status Start();

  /// Graceful drain: stop accepting, serve every in-flight request to
  /// completion, join all threads. Idempotent.
  void Stop();

  /// The bound port (after Start; the ephemeral choice when port was 0).
  uint16_t port() const { return port_; }

  bool running() const { return started_ && !stopping_; }

  /// In-flight admitted searches right now (tests use this to observe
  /// the admission window).
  size_t search_inflight() const { return search_inflight_.load(); }

  /// The /metrics view: server.* merged with the service fleet snapshot
  /// and the optional extra snapshot.
  MetricsSnapshot metrics_snapshot() const;

  /// The server's own books only (server.*).
  MetricsSnapshot server_metrics() const { return sink_->Snapshot(); }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  /// Routes one parsed request. Returns true when the response was
  /// already written (streaming); otherwise fills *response.
  /// `trace_header` is the request's X-Soda-Trace-Id echo value ("" when
  /// the request has no id and tracing is off) — handlers that write the
  /// response themselves (streaming) must stamp it on their own head.
  bool HandleRequest(const HttpRequest& request, const Deadline& deadline,
                     int fd, bool keep_alive, const std::string& trace_header,
                     HttpResponse* response);

  /// The admission decision shared by both /search flavors: true when
  /// the request must be shed (fills *response with 503 + Retry-After).
  /// `occupancy_before` is the caller's pre-increment in-flight count.
  bool Shed(size_t occupancy_before, HttpResponse* response);

  HttpResponse HandleSearch(const HttpRequest& request,
                            const Deadline& deadline);
  bool HandleStreamingSearch(const HttpRequest& request, int fd,
                             bool keep_alive, const std::string& trace_header,
                             HttpResponse* error_response);
  HttpResponse HandleHealthz() const;
  HttpResponse HandleMetrics() const;

  /// GET /debug/traces — the TraceRecorder ring as deterministic JSON
  /// span trees (?min_ms=N filters fast traces, ?error=1 keeps errored
  /// ones only, ?chrome=1 emits Chrome trace_event format instead).
  HttpResponse HandleDebugTraces(const HttpRequest& request) const;

  /// GET /debug/vars — config knobs, service and cache state, trace
  /// recorder totals and the slow-query log as one JSON object.
  HttpResponse HandleDebugVars() const;

  /// Parses the /search body into a query list; non-OK → 400 detail.
  Result<std::vector<std::string>> ParseSearchBody(
      const std::string& body) const;

  static HttpResponse ErrorResponse(int status, std::string_view detail);

  bool SendAll(int fd, std::string_view data) const;

  SodaService* service_;
  HttpServerOptions options_;
  std::shared_ptr<InMemoryMetricsSink> sink_;
  ThreadPool pool_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::atomic<size_t> search_inflight_{0};
  // Open connections, counted for the drain barrier in Stop().
  mutable std::mutex drain_mu_;
  std::condition_variable drained_;
  size_t open_connections_ = 0;
};

}  // namespace soda

#endif  // SODA_NET_HTTP_SERVER_H_
