// Tests for the HTTP front end (net/http_server.h):
//
//   - wire-level byte-identity: the POST /search body equals
//     RenderSearchResponseJson over a direct SearchAll of the same
//     queries, at 1 and 4 stripes — and the two HTTP bodies are identical
//     to each other (the determinism contract survives the network);
//   - concurrent clients all read identical bytes;
//   - admission control: with the watermark filled by a blocked
//     in-flight search, the next request observes 503 + Retry-After and
//     the server's shed book, and is admitted after the window clears;
//   - graceful drain: Stop() lets an in-flight (slow) request complete
//     and deliver its full response;
//   - robustness: malformed request lines (400), bad JSON (400),
//     oversized bodies (413), oversized headers (431), wrong method
//     (405), unknown path (404), and stalled half-requests (408) — all
//     answered, none crash the server;
//   - chunked streaming: /search?stream=1 opens with the byte-identical
//     translation payload and closes with the done event, and whole
//     streamed bodies are byte-identical at 1, 2 and 4 stripes and under
//     concurrent clients; a stream is one write for the head plus one per
//     unique query's events;
//   - /healthz and /metrics (every server_* series present).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "core/engine.h"
#include "datasets/minibank.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/search_json.h"
#include "pattern/library.h"

namespace soda {
namespace {

std::vector<std::string> MiniBankQueries() {
  return {
      "customers Zürich financial instruments",
      "addresses Sara Guttinger",
      "sum(investments) group by (currency)",
      "private customers family name",
  };
}

std::string BatchBody(const std::vector<std::string>& queries) {
  std::string body = "{\"queries\":[";
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) body += ",";
    body += "\"" + queries[i] + "\"";
  }
  body += "]}";
  return body;
}

class HttpServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto built = BuildMiniBank();
    ASSERT_TRUE(built.ok()) << built.status();
    bank_ = built.value().release();
  }
  static void TearDownTestSuite() {
    delete bank_;
    bank_ = nullptr;
  }

  static std::unique_ptr<SodaEngine> MakeEngine(size_t stripes) {
    SodaConfig config;
    config.num_shards = stripes;
    config.num_threads = 2;
    config.cache_capacity = 32;
    auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                     CreditSuissePatternLibrary(), config);
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(engine).value();
  }

  static std::unique_ptr<SodaHttpServer> StartServer(
      SodaService* service, HttpServerOptions options = {}) {
    auto server = std::make_unique<SodaHttpServer>(service, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started;
    return server;
  }

  static HttpClient Connect(const SodaHttpServer& server) {
    return HttpClient("127.0.0.1", server.port());
  }

  static MiniBank* bank_;
};

MiniBank* HttpServerTest::bank_ = nullptr;

// ---------------------------------------------------------------------------
// Decorators for deterministic shed / drain scenarios. Everything above
// the engine programs against SodaService, so a test can interpose on
// the serving path.
// ---------------------------------------------------------------------------

class ForwardingService : public SodaService {
 public:
  explicit ForwardingService(SodaService* wrapped) : wrapped_(wrapped) {}

  using SodaService::SearchAll;

  std::vector<Result<SearchOutput>> SearchAll(
      std::span<const std::string> queries) const override {
    return wrapped_->SearchAll(queries);
  }
  AsyncSearch SearchAllAsync(std::span<const std::string> queries,
                             SnippetCallback on_snippet) const override {
    return wrapped_->SearchAllAsync(queries, std::move(on_snippet));
  }
  Result<SearchOutput> SearchSession(
      const std::string& query, const SessionConstraints& constraints,
      std::shared_ptr<const TranslationPlan>* plan) const override {
    return wrapped_->SearchSession(query, constraints, plan);
  }
  CacheStats cache_stats() const override { return wrapped_->cache_stats(); }
  size_t InvalidateWhere(const CachePredicate& pred) const override {
    return wrapped_->InvalidateWhere(pred);
  }
  size_t ApplyBaseDataDelta(const ChangeEvent& event) override {
    return wrapped_->ApplyBaseDataDelta(event);
  }
  void set_metrics_sink(std::shared_ptr<MetricsSink> sink) override {
    wrapped_->set_metrics_sink(std::move(sink));
  }
  MetricsSnapshot metrics_snapshot() const override {
    return wrapped_->metrics_snapshot();
  }
  size_t num_threads() const override { return wrapped_->num_threads(); }
  size_t queue_depth() const override { return wrapped_->queue_depth(); }

 protected:
  SodaService* wrapped_;
};

/// Blocks every SearchAll until Release() — fills the admission window
/// deterministically.
class BlockingService : public ForwardingService {
 public:
  using ForwardingService::ForwardingService;
  using ForwardingService::SearchAll;

  std::vector<Result<SearchOutput>> SearchAll(
      std::span<const std::string> queries) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      entered_cv_.notify_all();
      released_cv_.wait(lock, [this] { return released_; });
    }
    return wrapped_->SearchAll(queries);
  }

  void WaitUntilEntered(size_t n) const {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    released_cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable entered_cv_;
  mutable std::condition_variable released_cv_;
  mutable size_t entered_ = 0;
  bool released_ = false;
};

/// Delays every SearchAll — an in-flight request that outlives Stop().
class DelayService : public ForwardingService {
 public:
  DelayService(SodaService* wrapped, int delay_ms)
      : ForwardingService(wrapped), delay_ms_(delay_ms) {}
  using ForwardingService::SearchAll;

  std::vector<Result<SearchOutput>> SearchAll(
      std::span<const std::string> queries) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return wrapped_->SearchAll(queries);
  }

 private:
  int delay_ms_;
};

// ---------------------------------------------------------------------------
// Byte-identity over the wire
// ---------------------------------------------------------------------------

TEST_F(HttpServerTest, SearchBodyIsByteIdenticalToDirectSearchAllAcrossStripes) {
  const std::vector<std::string> queries = MiniBankQueries();
  std::vector<std::string> http_bodies;

  for (size_t stripes : {size_t{1}, size_t{4}}) {
    auto engine = MakeEngine(stripes);
    // The reference bytes: a direct in-process SearchAll rendered with
    // the shared renderer. Computed on a second engine so the HTTP
    // request's cache is cold (from_cache must not leak into the body).
    auto reference_engine = MakeEngine(stripes);
    auto outputs = reference_engine->SearchAll(queries);
    std::string expected = RenderSearchResponseJson(queries, outputs);

    auto server = StartServer(engine.get());
    HttpClient client = Connect(*server);
    auto response = client.Post("/search", BatchBody(queries));
    ASSERT_TRUE(response.ok()) << response.status() << " stripes=" << stripes;
    ASSERT_EQ(response->status, 200) << "stripes=" << stripes;
    EXPECT_EQ(response->body, expected) << "stripes=" << stripes;
    EXPECT_EQ(response->header("Content-Type"), "application/json");
    // Observability rides in headers, never the body.
    EXPECT_FALSE(response->header("X-Soda-Wall-Ms").empty());
    EXPECT_EQ(response->header("X-Soda-Queries"),
              std::to_string(queries.size()));
    http_bodies.push_back(response->body);

    // A repeat of the same request — now cache-warm — must not change a
    // byte.
    auto warm = client.Post("/search", BatchBody(queries));
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm->body, expected) << "cache state leaked into the body";
  }
  // 1-stripe and 4-stripe serving produce identical wire bytes.
  ASSERT_EQ(http_bodies.size(), 2u);
  EXPECT_EQ(http_bodies[0], http_bodies[1]);
}

TEST_F(HttpServerTest, ConcurrentClientsReadIdenticalBytes) {
  auto engine = MakeEngine(2);
  auto server = StartServer(engine.get());
  const std::vector<std::string> queries = MiniBankQueries();
  const std::string body = BatchBody(queries);

  constexpr size_t kClients = 6;
  constexpr size_t kRounds = 5;
  std::vector<std::string> bodies(kClients);
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client = Connect(*server);
      for (size_t round = 0; round < kRounds; ++round) {
        auto response = client.Post("/search", body);
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1);
          return;
        }
        if (round == 0) {
          bodies[c] = response->body;
        } else if (bodies[c] != response->body) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  ASSERT_EQ(failures.load(), 0u);
  for (size_t c = 1; c < kClients; ++c) {
    EXPECT_EQ(bodies[c], bodies[0]) << "client " << c;
  }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST_F(HttpServerTest, OverWatermarkRequestsAreShedWithRetryAfter) {
  auto engine = MakeEngine(1);
  BlockingService blocking(engine.get());
  HttpServerOptions options;
  options.shed_watermark = 1;  // one admitted search fills the window
  auto server = StartServer(&blocking, options);

  // Client A occupies the window (blocked inside SearchAll).
  std::thread occupier([&] {
    HttpClient client = Connect(*server);
    auto response = client.Post("/search", "{\"query\":\"addresses\"}");
    EXPECT_TRUE(response.ok()) << response.status();
    if (response.ok()) EXPECT_EQ(response->status, 200);
  });
  blocking.WaitUntilEntered(1);

  // Client B arrives over the watermark: 503, Retry-After, booked shed.
  HttpClient client = Connect(*server);
  auto shed = client.Post("/search", "{\"query\":\"addresses\"}");
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_EQ(shed->status, 503);
  EXPECT_EQ(shed->header("Retry-After"), "1");
  MetricsSnapshot books = server->server_metrics();
  EXPECT_GE(books.counter("server.shed"), 1u);

  // Window clears; the same client is admitted. queue_depth() is a
  // sticky load signal, not an exact token bucket: ParallelFor helper
  // tasks that lost the index race to the calling thread linger in the
  // pool queue as no-ops until a worker claims them, so on a loaded box
  // the watermark can briefly still read the drained search. Retry for
  // a bounded moment rather than assert the first post-drain sample.
  blocking.Release();
  occupier.join();
  auto admitted = client.Post("/search", "{\"query\":\"addresses\"}");
  for (int attempt = 0;
       attempt < 100 && admitted.ok() && admitted->status == 503; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    admitted = client.Post("/search", "{\"query\":\"addresses\"}");
  }
  ASSERT_TRUE(admitted.ok()) << admitted.status();
  EXPECT_EQ(admitted->status, 200);
}

TEST_F(HttpServerTest, HealthzAndMetricsAreNeverShed) {
  auto engine = MakeEngine(1);
  HttpServerOptions options;
  options.shed_watermark = 0;  // shed every search
  auto server = StartServer(engine.get(), options);
  HttpClient client = Connect(*server);

  auto search = client.Post("/search", "{\"query\":\"addresses\"}");
  ASSERT_TRUE(search.ok()) << search.status();
  EXPECT_EQ(search->status, 503);

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->status, 200);
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

TEST_F(HttpServerTest, StopCompletesInflightRequests) {
  auto engine = MakeEngine(1);
  DelayService slow(engine.get(), /*delay_ms=*/300);
  auto server = StartServer(&slow);

  const std::vector<std::string> queries = {"addresses Sara Guttinger"};
  auto outputs = engine->SearchAll(queries);
  std::string expected = RenderSearchResponseJson(queries, outputs);

  std::atomic<bool> got_response{false};
  std::thread inflight([&] {
    HttpClient client = Connect(*server);
    auto response =
        client.Post("/search", "{\"query\":\"addresses Sara Guttinger\"}");
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, expected);
    got_response.store(true);
  });

  // Wait until the request is admitted, then drain. Stop() must block
  // until the slow search delivers its full response.
  while (server->search_inflight() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server->Stop();
  EXPECT_EQ(server->search_inflight(), 0u);
  inflight.join();
  EXPECT_TRUE(got_response.load());

  // The listener is gone: new connections fail.
  HttpClient late("127.0.0.1", server->port(), /*timeout_ms=*/1000.0);
  auto refused = late.Get("/healthz");
  EXPECT_FALSE(refused.ok());
}

// ---------------------------------------------------------------------------
// Robustness: malformed, oversized, stalled
// ---------------------------------------------------------------------------

TEST_F(HttpServerTest, MalformedRequestLineGets400) {
  auto engine = MakeEngine(1);
  auto server = StartServer(engine.get());
  HttpClient client = Connect(*server);
  ASSERT_TRUE(client.SendRaw("THIS IS NOT HTTP\r\n\r\n").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 400);
}

TEST_F(HttpServerTest, BadJsonBodyGets400) {
  auto engine = MakeEngine(1);
  auto server = StartServer(engine.get());
  HttpClient client = Connect(*server);
  auto response = client.Post("/search", "{not json");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 400);

  auto missing = client.Post("/search", "{\"other\":1}");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->status, 400);

  // The connection survives client errors on well-framed requests.
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
}

TEST_F(HttpServerTest, OversizedBodyGets413) {
  auto engine = MakeEngine(1);
  HttpServerOptions options;
  options.max_body_bytes = 512;
  auto server = StartServer(engine.get(), options);
  HttpClient client = Connect(*server);
  std::string big = "{\"query\":\"" + std::string(1024, 'x') + "\"}";
  auto response = client.Post("/search", big);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 413);
}

TEST_F(HttpServerTest, OversizedHeadersGet431) {
  auto engine = MakeEngine(1);
  HttpServerOptions options;
  options.max_header_bytes = 256;
  auto server = StartServer(engine.get(), options);
  HttpClient client = Connect(*server);
  std::string request = "GET /healthz HTTP/1.1\r\nX-Big: " +
                        std::string(512, 'y') + "\r\n\r\n";
  ASSERT_TRUE(client.SendRaw(request).ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 431);
}

TEST_F(HttpServerTest, WrongMethodGets405UnknownPathGets404) {
  auto engine = MakeEngine(1);
  auto server = StartServer(engine.get());
  HttpClient client = Connect(*server);

  auto wrong_method = client.Get("/search");
  ASSERT_TRUE(wrong_method.ok()) << wrong_method.status();
  EXPECT_EQ(wrong_method->status, 405);
  EXPECT_EQ(wrong_method->header("Allow"), "POST");

  auto unknown = client.Get("/nope");
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_EQ(unknown->status, 404);
}

TEST_F(HttpServerTest, StalledHalfRequestGets408) {
  auto engine = MakeEngine(1);
  HttpServerOptions options;
  options.request_deadline_ms = 200.0;
  auto server = StartServer(engine.get(), options);
  HttpClient client = Connect(*server);
  // Half a request, then silence: the read deadline must answer 408
  // rather than hold the connection open forever.
  ASSERT_TRUE(client.SendRaw("POST /search HTTP/1.1\r\nContent-").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 408);
  MetricsSnapshot books = server->server_metrics();
  EXPECT_GE(books.counter("server.timeouts"), 1u);
}

// ---------------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------------

TEST_F(HttpServerTest, StreamingSearchDeliversTranslationsThenDone) {
  auto engine = MakeEngine(2);
  auto server = StartServer(engine.get());
  const std::vector<std::string> queries = MiniBankQueries();

  // The stream's opening payload renders the async translations —
  // snippets are not executed yet (they arrive as events), so the
  // reference comes from the same entry point the server uses.
  auto reference_engine = MakeEngine(2);
  AsyncSearch reference = reference_engine->SearchAllAsync(queries, nullptr);
  std::string expected_head =
      RenderSearchResponseJson(queries, reference.outputs);

  HttpClient client = Connect(*server);
  auto response = client.Post("/search?stream=1", BatchBody(queries));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status, 200);
  EXPECT_EQ(response->header("Content-Type"), "application/x-ndjson");

  // The stream opens with the byte-identical translation payload...
  ASSERT_GE(response->body.size(), expected_head.size());
  EXPECT_EQ(response->body.substr(0, expected_head.size()), expected_head);
  // ...and closes with the done event after every snippet event.
  size_t last_line_start = response->body.rfind('\n', response->body.size() - 2);
  std::string last_line = response->body.substr(last_line_start + 1);
  EXPECT_NE(last_line.find("\"event\":\"done\""), std::string::npos)
      << last_line;
}

// The wire contract of a streamed body: snippet events come in
// first-occurrence query order, then result order, whatever the stripe
// count. The full bodies — head, every event, done — of the same request
// sequence (a batch, a batch with in-batch repeats and queries the first
// one cached, the first batch again warm) are byte-identical at 1, 2
// and 4 stripes.
TEST_F(HttpServerTest, StreamedBodiesAreByteIdenticalAcrossStripeCounts) {
  const std::vector<std::string> minibank = MiniBankQueries();
  const std::vector<std::string> repeats = {
      minibank[1], minibank[3], "  addresses   Sara Guttinger",
      minibank[0], minibank[1], minibank[3], "sum(investments"};
  std::vector<std::vector<std::string>> bodies;
  for (size_t stripes : {size_t{1}, size_t{2}, size_t{4}}) {
    auto engine = MakeEngine(stripes);
    auto server = StartServer(engine.get());
    HttpClient client = Connect(*server);
    std::vector<std::string>& stripe_bodies = bodies.emplace_back();
    for (const auto* queries : {&minibank, &repeats, &minibank}) {
      auto response = client.Post("/search?stream=1", BatchBody(*queries));
      ASSERT_TRUE(response.ok()) << response.status() << " stripes=" << stripes;
      ASSERT_EQ(response->status, 200) << "stripes=" << stripes;
      stripe_bodies.push_back(response->body);
    }
  }
  // Every repeat of a query got its own events; the malformed query none.
  EXPECT_NE(bodies[0][1].find("{\"event\":\"snippet\",\"query\":4,"),
            std::string::npos);
  EXPECT_EQ(bodies[0][1].find("{\"event\":\"snippet\",\"query\":6,"),
            std::string::npos);
  for (size_t i = 1; i < bodies.size(); ++i) {
    for (size_t b = 0; b < bodies[0].size(); ++b) {
      EXPECT_EQ(bodies[i][b], bodies[0][b])
          << "stripe count #" << i << " request " << b;
    }
  }
}

// A streamed head never carries snippet payloads, so a request served
// from the cache sends the bytes its cold run sent: the same batch, cold
// then warm, gives one body at 1 and at 4 stripes.
TEST_F(HttpServerTest, StreamedBodyIsByteIdenticalColdAndWarm) {
  const std::string body = BatchBody(MiniBankQueries());
  std::string one_stripe;
  for (size_t stripes : {size_t{1}, size_t{4}}) {
    auto engine = MakeEngine(stripes);
    auto server = StartServer(engine.get());
    HttpClient client = Connect(*server);
    auto cold = client.Post("/search?stream=1", body);
    ASSERT_TRUE(cold.ok()) << cold.status();
    ASSERT_EQ(cold->status, 200);
    const size_t hits_before = engine->cache_stats().hits;
    auto warm = client.Post("/search?stream=1", body);
    ASSERT_TRUE(warm.ok()) << warm.status();
    ASSERT_EQ(warm->status, 200);
    EXPECT_EQ(engine->cache_stats().hits,
              hits_before + MiniBankQueries().size())
        << "stripes=" << stripes;
    EXPECT_NE(cold->body.find("\"event\":\"snippet\""), std::string::npos);
    EXPECT_EQ(warm->body, cold->body) << "stripes=" << stripes;
    if (one_stripe.empty()) one_stripe = cold->body;
    EXPECT_EQ(cold->body, one_stripe) << "stripes=" << stripes;
  }
}

// Concurrent streamed clients against a 4-stripe server read the bytes a
// 1-stripe server sends one client, the cache on at both: whichever
// client's stream caches an answer first, every head renders like a miss
// and every stream delivers the same events.
TEST_F(HttpServerTest, ConcurrentStreamedClientsReadTheOneStripeBytes) {
  const std::vector<std::string> queries = MiniBankQueries();
  const std::string body =
      BatchBody({queries[0], queries[1], queries[2], queries[1], queries[3]});

  std::string expected;
  {
    auto engine = MakeEngine(1);
    auto server = StartServer(engine.get());
    HttpClient client = Connect(*server);
    auto response = client.Post("/search?stream=1", body);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->status, 200);
    expected = response->body;
  }

  auto engine = MakeEngine(4);
  auto server = StartServer(engine.get());
  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 3;
  std::vector<std::string> mismatches(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client = Connect(*server);
      for (size_t round = 0; round < kRounds; ++round) {
        auto response = client.Post("/search?stream=1", body);
        if (!response.ok() || response->status != 200 ||
            response->body != expected) {
          mismatches[c] = "round " + std::to_string(round) + ": " +
                          (response.ok() ? response->body
                                         : response.status().ToString());
          return;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(mismatches[c].empty())
        << "client " << c << ": " << mismatches[c];
  }
}

// The write boundaries of a stream: the head alone, then one write per
// unique query's events, the last sharing the done line's write. A
// single-query stream is 2 writes however many snippets it has, a batch
// of R runs is R + 1, and a query with no results is the head and done.
TEST_F(HttpServerTest, StreamWritesOncePerQueryRun) {
  auto engine = MakeEngine(2);
  auto server = StartServer(engine.get());
  HttpClient client = Connect(*server);
  auto writes_for = [&](const std::string& body, std::string* response_body) {
    const uint64_t before =
        server->server_metrics().counter("server.stream_writes");
    auto response = client.Post("/search?stream=1", body);
    EXPECT_TRUE(response.ok()) << response.status();
    if (!response.ok()) return uint64_t{0};
    EXPECT_EQ(response->status, 200);
    *response_body = response->body;
    return server->server_metrics().counter("server.stream_writes") - before;
  };
  auto events_of = [](const std::string& body, size_t query) {
    const std::string prefix =
        "{\"event\":\"snippet\",\"query\":" + std::to_string(query) + ",";
    size_t count = 0;
    for (size_t at = body.find(prefix); at != std::string::npos;
         at = body.find(prefix, at + 1)) {
      ++count;
    }
    return count;
  };
  const std::vector<std::string> queries = MiniBankQueries();

  std::string body;
  EXPECT_EQ(writes_for("{\"query\":\"" + queries[3] + "\"}", &body), 2u);
  EXPECT_GE(events_of(body, 0), 2u) << body;

  EXPECT_EQ(writes_for(BatchBody({queries[3], queries[0], queries[1]}), &body),
            4u);
  for (size_t query = 0; query < 3; ++query) {
    EXPECT_GE(events_of(body, query), 1u) << "query " << query;
  }

  EXPECT_EQ(writes_for("{\"query\":\"qqqzzzx\"}", &body), 2u);
  EXPECT_EQ(events_of(body, 0), 0u) << body;
  EXPECT_NE(body.find("\"event\":\"done\""), std::string::npos) << body;
}

// ---------------------------------------------------------------------------
// Health and metrics
// ---------------------------------------------------------------------------

TEST_F(HttpServerTest, MetricsExposesEveryServerSeries) {
  auto engine = MakeEngine(1);
  auto server = StartServer(engine.get());
  HttpClient client = Connect(*server);
  // One search so engine-side series exist alongside the pre-registered
  // server ones.
  auto search = client.Post("/search", "{\"query\":\"addresses\"}");
  ASSERT_TRUE(search.ok()) << search.status();

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_EQ(metrics->status, 200);
  for (const char* series :
       {"soda_server_requests_total", "soda_server_accepted_total",
        "soda_server_shed_total", "soda_server_timeouts_total",
        "soda_server_stream_writes_total", "soda_server_inflight"}) {
    EXPECT_NE(metrics->body.find(series), std::string::npos)
        << "missing " << series;
  }
}

// ---------------------------------------------------------------------------
// Tracing: X-Soda-Trace-Id echo + rejection, /debug introspection
// ---------------------------------------------------------------------------

/// Configures the process-wide TraceRecorder for one test and restores
/// the sampled-off default on exit — the recorder is a singleton, so a
/// leaked config would bleed into unrelated tests.
class ScopedRecorder {
 public:
  ScopedRecorder(size_t sample_every, double slow_threshold_ms) {
    TraceRecorder::Instance().Clear();
    TraceRecorder::Instance().Configure(sample_every, slow_threshold_ms);
  }
  ~ScopedRecorder() {
    TraceRecorder::Instance().Configure(0, 0.0);
    TraceRecorder::Instance().Clear();
  }
};

TEST_F(HttpServerTest, TraceIdEchoDoesNotDependOnSampling) {
  // Recorder stays at the sampled-off default: the echo is a correlation
  // contract, not a sampling side effect.
  auto engine = MakeEngine(1);
  auto server = StartServer(engine.get());
  HttpClient client = Connect(*server);
  client.set_trace_id("00000000deadbeef");
  auto response = client.Post("/search", "{\"query\":\"addresses\"}");
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status, 200);
  EXPECT_EQ(response->header("X-Soda-Trace-Id"), "00000000deadbeef");

  // Short ids are legal (1-16 hex digits) and echo zero-padded — the
  // canonical form is what /debug/traces prints.
  client.set_trace_id("ab");
  auto padded = client.Post("/search", "{\"query\":\"addresses\"}");
  ASSERT_TRUE(padded.ok()) << padded.status();
  EXPECT_EQ(padded->header("X-Soda-Trace-Id"), "00000000000000ab");

  // The streaming handler writes its own head; the echo must ride it.
  client.set_trace_id("00000000deadbeef");
  auto streamed = client.Post("/search?stream=1", "{\"query\":\"addresses\"}");
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  ASSERT_EQ(streamed->status, 200);
  EXPECT_EQ(streamed->header("X-Soda-Trace-Id"), "00000000deadbeef");

  // Without an inbound id and with tracing off there is nothing to echo.
  client.set_trace_id("");
  auto plain = client.Post("/search", "{\"query\":\"addresses\"}");
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->header("X-Soda-Trace-Id"), "");
}

TEST_F(HttpServerTest, MalformedTraceIdGets400) {
  auto engine = MakeEngine(1);
  auto server = StartServer(engine.get());
  HttpClient client = Connect(*server);
  // Non-hex, zero, and over-long ids are all rejected before routing —
  // silently re-keying a client's correlation id would be worse than
  // failing loudly.
  for (const char* bad : {"xyz", "0", "12345678901234567", "dead beef"}) {
    client.set_trace_id(bad);
    auto response = client.Post("/search", "{\"query\":\"addresses\"}");
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status, 400) << "id '" << bad << "'";
    EXPECT_NE(response->body.find("malformed X-Soda-Trace-Id"),
              std::string::npos)
        << response->body;
    EXPECT_EQ(response->header("X-Soda-Trace-Id"), "");
  }
}

TEST_F(HttpServerTest, DebugTracesShowsRequestSpanTree) {
  ScopedRecorder recorder(/*sample_every=*/1, /*slow_threshold_ms=*/0.0);
  auto engine = MakeEngine(2);
  auto server = StartServer(engine.get());
  HttpClient client = Connect(*server);
  client.set_trace_id("00000000000000ab");
  auto search = client.Post("/search", "{\"query\":\"addresses\"}");
  ASSERT_TRUE(search.ok()) << search.status();
  ASSERT_EQ(search->status, 200);

  auto traces = client.Get("/debug/traces?min_ms=0");
  ASSERT_TRUE(traces.ok()) << traces.status();
  ASSERT_EQ(traces->status, 200);
  EXPECT_EQ(traces->header("Content-Type"), "application/json");
  auto doc = ParseJson(traces->body);
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(doc->is_object());
  const JsonValue* listing = doc->Find("traces");
  ASSERT_NE(listing, nullptr);
  ASSERT_TRUE(listing->is_array());
  // The search request was adopted under the client's id, rooted at the
  // server's span with the engine's work parented beneath it.
  EXPECT_NE(traces->body.find("\"00000000000000ab\""), std::string::npos)
      << traces->body;
  EXPECT_NE(traces->body.find("\"http.request\""), std::string::npos)
      << traces->body;
  EXPECT_NE(traces->body.find("\"batch.query\""), std::string::npos)
      << traces->body;

  // Filters: nothing errored, and nothing took a million ms.
  auto errored = client.Get("/debug/traces?error=1");
  ASSERT_TRUE(errored.ok()) << errored.status();
  EXPECT_EQ(errored->body.find("\"http.request\""), std::string::npos)
      << errored->body;
  auto slow = client.Get("/debug/traces?min_ms=1000000");
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_EQ(slow->body.find("\"http.request\""), std::string::npos);
  // Bad filter values are rejected, not defaulted.
  auto bad = client.Get("/debug/traces?min_ms=banana");
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_EQ(bad->status, 400);

  // Chrome export: same ring, trace_event framing.
  auto chrome = client.Get("/debug/traces?chrome=1");
  ASSERT_TRUE(chrome.ok()) << chrome.status();
  ASSERT_EQ(chrome->status, 200);
  EXPECT_NE(chrome->body.find("\"traceEvents\""), std::string::npos);
}

TEST_F(HttpServerTest, DebugVarsReportsConfigAndTraceState) {
  ScopedRecorder recorder(/*sample_every=*/1, /*slow_threshold_ms=*/0.0);
  auto engine = MakeEngine(2);
  auto server = StartServer(engine.get());
  HttpClient client = Connect(*server);

  auto vars = client.Get("/debug/vars");
  ASSERT_TRUE(vars.ok()) << vars.status();
  ASSERT_EQ(vars->status, 200);
  EXPECT_EQ(vars->header("Content-Type"), "application/json");
  auto doc = ParseJson(vars->body);
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(doc->is_object());
  for (const char* section : {"server", "service", "trace", "build"}) {
    EXPECT_NE(doc->Find(section), nullptr) << "missing " << section;
  }
  // Spot-check live values against what the test actually configured.
  EXPECT_NE(vars->body.find("\"port\":" + std::to_string(server->port())),
            std::string::npos)
      << vars->body;
  EXPECT_NE(vars->body.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(vars->body.find("\"sample_every\":1"), std::string::npos);
}

}  // namespace
}  // namespace soda
