// Service demo: the sharded SODA service — a folded-hash query router
// over SodaEngine shards sharing one Soda core, many user threads firing
// the paper's
// queries at it, the way a BI front end would (interactive query
// building over a warehouse à la Sigma Worksheet).
//
// Shows: the router splitting one dashboard refresh across shards (each
// with its own worker pool and LRU cache, byte-identical merge back into
// input order), async snippet streaming through a returned stream, live
// base data — a row appended mid-serve flows through the change log into
// the shared core's inverted index and invalidates exactly the dependent
// cache keys automatically (FreshnessManager) — and the fleet-level
// metrics snapshot, in both the human-readable dump and Prometheus text
// exposition format. Everything serves through the abstract SodaService
// interface — the demo would read the same over a single SodaEngine —
// including an interactive session (pin/ban/bind + incremental Refine).
//
// With --serve the same stack goes behind the HTTP front end
// (net/http_server.h) instead: the process prints its port + curl
// quickstart lines and serves /search, /metrics and /healthz until
// SIGINT/SIGTERM, then drains gracefully. The CI server smoke stage
// drives exactly this mode.

#include <csignal>
#include <cstring>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/prometheus_sink.h"
#include "core/freshness.h"
#include "core/session.h"
#include "core/sharded_engine.h"
#include "datasets/minibank.h"
#include "net/http_server.h"
#include "pattern/library.h"
#include "storage/change_log.h"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s [--serve] [--port N] [--shards N] [--threads N]\n"
      "\n"
      "Without flags: the scripted demo (router, sessions, freshness,\n"
      "async streaming, metrics) against the mini-bank warehouse.\n"
      "\n"
      "--serve: the same stack behind the HTTP front end. Quickstart:\n"
      "  %s --serve            # prints 'serving on http://127.0.0.1:PORT'\n"
      "  curl http://127.0.0.1:PORT/healthz\n"
      "  curl -X POST -d '{\"query\":\"addresses Sara Guttinger\"}' \\\n"
      "       http://127.0.0.1:PORT/search\n"
      "  curl -X POST -d '{\"queries\":[\"customers Z\\u00fcrich financial "
      "instruments\"]}' \\\n"
      "       'http://127.0.0.1:PORT/search?stream=1'   # chunked ndjson\n"
      "  curl http://127.0.0.1:PORT/metrics             # Prometheus text\n"
      "  curl 'http://127.0.0.1:PORT/debug/traces?min_ms=0'  # span trees\n"
      "  curl http://127.0.0.1:PORT/debug/vars          # config + state\n"
      "SIGINT/SIGTERM drain gracefully (in-flight requests complete).\n",
      argv0, argv0);
}

// The HTTP serving mode: mini-bank + sharded engine + freshness wiring
// behind a SodaHttpServer, alive until a stop signal.
int RunServe(uint16_t port, size_t shards, size_t threads) {
  auto bank = soda::BuildMiniBank();
  if (!bank.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 bank.status().ToString().c_str());
    return 1;
  }
  soda::SodaConfig config;
  config.num_shards = shards;
  config.num_threads = threads;
  config.cache_capacity = 64;
  // Serve mode keeps every trace (sample 1-in-1) so the /debug/traces
  // quickstart below shows span trees immediately; slow-query capture
  // flags anything over 250ms in /debug/vars' slow_log.
  config.trace_sample_n = 1;
  config.slow_query_threshold_ms = 250.0;
  auto created = soda::ShardedSodaEngine::Create(
      &(*bank)->db, &(*bank)->graph, soda::CreditSuissePatternLibrary(),
      config);
  if (!created.ok()) {
    std::fprintf(stderr, "engine construction failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  soda::FreshnessManager freshness(&(*bank)->db.change_log());
  freshness.Track(created->get());

  soda::HttpServerOptions options;
  options.port = port;
  options.extra_metrics = [&freshness] {
    return freshness.metrics_snapshot();
  };
  soda::SodaHttpServer server(created->get(), options);
  soda::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::printf("serving on http://127.0.0.1:%u (%zu shards x %zu threads)\n",
              server.port(), created->get()->num_shards(),
              created->get()->num_threads());
  std::printf("  curl http://127.0.0.1:%u/healthz\n", server.port());
  std::printf("  curl -X POST -d '{\"query\":\"addresses Sara Guttinger\"}' "
              "http://127.0.0.1:%u/search\n",
              server.port());
  std::printf("  curl http://127.0.0.1:%u/metrics\n", server.port());
  std::printf("  curl 'http://127.0.0.1:%u/debug/traces?min_ms=0'\n",
              server.port());
  std::printf("  curl http://127.0.0.1:%u/debug/vars\n", server.port());
  std::fflush(stdout);

  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("stop signal received — draining\n");
  server.Stop();
  std::printf("drained; served %llu request(s)\n",
              static_cast<unsigned long long>(
                  server.server_metrics().counter("server.requests")));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool serve = false;
  uint16_t port = 0;
  size_t shards = 2;
  size_t threads = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::strtoul(argv[++i], nullptr, 10);
    } else {
      PrintUsage(argv[0]);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }
  if (serve) return RunServe(port, shards, threads);

  auto bank = soda::BuildMiniBank();
  if (!bank.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 bank.status().ToString().c_str());
    return 1;
  }

  soda::SodaConfig config;
  config.num_shards = 2;
  config.num_threads = 2;
  config.cache_capacity = 32;
  auto created = soda::ShardedSodaEngine::Create(
      &(*bank)->db, &(*bank)->graph, soda::CreditSuissePatternLibrary(),
      config);
  if (!created.ok()) {
    std::fprintf(stderr, "engine construction failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  soda::ShardedSodaEngine& engine = **created;
  // Serving goes through the abstract interface: swap in a single
  // SodaEngine and nothing below this line changes.
  soda::SodaService& service = engine;
  std::printf("router up: %zu shard(s) x %zu worker thread(s), "
              "fleet cache capacity %zu\n\n",
              engine.num_shards(), engine.num_threads(),
              service.cache_stats().capacity);

  // Index memory accounting: every shard serves the one Soda core, so
  // the fleet holds one packed postings structure and one token
  // dictionary (the database's), whatever the shard count.
  std::printf("---- index memory accounting ----------------------------\n");
  const soda::InvertedIndex& index = engine.shard(0).soda().inverted_index();
  size_t index_bytes = index.ApproxMemoryBytes();
  std::printf("  shared core index:       %8.1f KiB (%zu values, %zu tokens, "
              "1 copy for %zu shards)\n",
              index_bytes / 1024.0, index.num_values(), index.num_tokens(),
              engine.num_shards());
  const auto& dict = (*bank)->db.token_dict();
  size_t dict_bytes = dict->ApproxMemoryBytes();
  std::printf("  shared token dict:       %8.1f KiB (%zu spellings)\n",
              dict_bytes / 1024.0, dict->size());
  std::printf("  fleet total:             %8.1f KiB\n\n",
              (index_bytes + dict_bytes) / 1024.0);

  // Live-base-data wiring: storage appends now publish ChangeEvents, the
  // manager applies incremental index deltas to the shared core and
  // fires keyed invalidation for exactly the affected cache entries,
  // judged from the dependencies each cached answer carries.
  soda::FreshnessManager freshness(&(*bank)->db.change_log());
  freshness.Track(&engine);

  // A small "dashboard" of queries every simulated user keeps refreshing.
  const std::vector<std::string> dashboard = {
      "customers Zürich financial instruments",
      "sum(investments) group by (currency)",
      "addresses Sara Guttinger",
      "private customers family name",
  };

  // First pass: cold cache — the whole dashboard goes in as ONE batch.
  // Steps 1-2 run once per unique query and every (query, interpretation)
  // pair shares the worker pool; a repeated query would cost one miss
  // plus in-batch hits.
  std::printf("---- cold pass (one SearchAll batch) --------------------\n");
  auto batch = service.SearchAll(dashboard);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i].ok()) {
      std::fprintf(stderr, "  error: %s\n",
                   batch[i].status().ToString().c_str());
      continue;
    }
    std::printf("  %-48s %2zu result(s)  %6.2f ms  %s\n",
                dashboard[i].c_str(), batch[i]->results.size(),
                batch[i]->timings.wall_ms,
                batch[i]->from_cache ? "cache" : "pipeline");
  }

  // Concurrent users hammering the same dashboard: mostly cache hits.
  std::printf("---- 8 users x 25 refreshes -----------------------------\n");
  std::atomic<size_t> answered{0};
  std::vector<std::thread> users;
  for (int u = 0; u < 8; ++u) {
    users.emplace_back([&, u] {
      for (int round = 0; round < 25; ++round) {
        const std::string& query = dashboard[(u + round) % dashboard.size()];
        auto output = service.Search(query);
        if (output.ok()) answered.fetch_add(1);
      }
    });
  }
  for (auto& user : users) user.join();

  soda::CacheStats stats = service.cache_stats();
  std::printf("  answered %zu requests; cache: %zu hit / %zu miss "
              "(%.0f%% hit rate, %zu entries)\n",
              answered.load(), stats.hits, stats.misses,
              100.0 * stats.hit_rate(), stats.size);

  // One warm request with the full observability surface.
  auto warm = service.Search(dashboard[0]);
  if (warm.ok()) {
    stats = service.cache_stats();
    std::printf("\nwarm '%s':\n  from_cache=%d wall=%.3f ms "
                "(fleet: %zu hits / %zu misses, %zu threads per shard)\n",
                dashboard[0].c_str(), warm->from_cache ? 1 : 0,
                warm->timings.wall_ms, stats.hits, stats.misses,
                service.num_threads());
  }

  // Interactive session: one user steering a translation. Ask answers
  // cold and captures a translation plan; every result carries a typed
  // Explanation (matched terms -> chosen entry points -> FROM tables ->
  // joins -> filters); pin/ban/bind levers re-run only the stages they
  // can affect on Refine — byte-identical to a cold constrained
  // translation, just cheaper.
  std::printf("---- interactive session --------------------------------\n");
  // Start cold so the Ask translates (and captures a resumable plan)
  // instead of answering from the dashboard-warmed cache.
  service.ClearCache();
  soda::SodaSession session(&service);
  auto asked = session.Ask("private customers family name");
  if (asked.ok()) {
    std::printf("  Ask('private customers family name'): %zu result(s)\n",
                asked->results.size());
    for (const soda::SodaResult& result : asked->results) {
      const soda::Explanation& why = result.provenance;
      std::printf("    score %.2f  terms:%zu  FROM:%zu  joins:%zu  "
                  "filters:%zu  (%s)\n",
                  result.score, why.terms.size(), why.tables.size(),
                  why.joins.size(), why.filters.size(),
                  result.explanation.c_str());
    }
  }
  auto banned = session.BanTable("securities").Refine();
  if (banned.ok()) {
    std::printf("  BanTable('securities') + Refine: %zu result(s), "
                "skipped %zu/5 stages (pin/ban gates Step 5 only)\n",
                banned->results.size(), banned->stages_skipped);
  }
  auto candidates = session.TermCandidates("name");
  std::printf("  'name' has %zu bindable entry point(s)\n",
              candidates.size());
  for (const auto& [entry_key, description] : candidates) {
    if (description.find("logical schema") == std::string::npos) continue;
    auto bound = session.BindTerm("name", entry_key).Refine();
    if (bound.ok()) {
      std::printf("  BindTerm('name' -> '%s') + Refine: %zu result(s), "
                  "skipped %zu/5 stages (re-ranked from the session's "
                  "cached lookup)\n",
                  description.c_str(), bound->results.size(),
                  bound->stages_skipped);
    }
    break;
  }

  // Manual keyed invalidation is still available for callers that know
  // which keys a change affects...
  size_t evicted = service.InvalidateWhere(
      [](const std::string& key, const soda::CachedAnswer&) {
        return key.find("investments") != std::string::npos;
      });
  auto recomputed = service.Search(dashboard[1]);
  std::printf("---- keyed invalidation ---------------------------------\n"
              "  InvalidateWhere(\"investments\") evicted %zu entr%s; "
              "'%s' now served from %s\n",
              evicted, evicted == 1 ? "y" : "ies", dashboard[1].c_str(),
              recomputed.ok() && recomputed->from_cache ? "cache"
                                                        : "pipeline");

  // ...but live base data does not need it: append a brand-new customer
  // while the fleet is up, and the change log + FreshnessManager update
  // every shard's inverted index in place and evict exactly the cached
  // answers the row can affect (the Zürich dashboard entry), leaving the
  // rest warm.
  std::printf("---- live base data (automatic freshness) ---------------\n");
  soda::Table* individuals = (*bank)->db.FindTable("individuals");
  soda::Table* addresses = (*bank)->db.FindTable("addresses");
  {
    soda::ChangeLog::EpochGuard epoch((*bank)->db.change_log());
    (void)individuals->Append(
        {soda::Value::Int(9001), soda::Value::Str("Nadia"),
         soda::Value::Str("Demozian"), soda::Value::Int(120000),
         soda::Value::DateV(soda::Date::FromYmd(1988, 4, 2))});
    (void)addresses->Append({soda::Value::Int(9001), soda::Value::Int(9001),
                             soda::Value::Str("Limmatquai 1"),
                             soda::Value::Str("Zürich"),
                             soda::Value::Str("CH")});
  }
  auto after_append = service.Search(dashboard[0]);
  std::printf("  appended individual 'Nadia Demozian' + Zürich address "
              "(one epoch, %llu events)\n",
              static_cast<unsigned long long>(freshness.events_seen()));
  std::printf("  '%s' served from %s (auto-invalidated, %llu key(s) "
              "evicted fleet-wide)\n",
              dashboard[0].c_str(),
              after_append.ok() && after_append->from_cache ? "cache"
                                                           : "pipeline",
              static_cast<unsigned long long>(freshness.keys_invalidated()));
  auto nadia = service.Search("addresses Nadia Demozian");
  if (nadia.ok()) {
    std::printf("  'addresses Nadia Demozian' now finds %zu result(s) "
                "without any rebuild\n", nadia->results.size());
  }

  // Async snippet streaming: translated, ranked SQL comes back at once;
  // running the returned stream then executes the snippets on this
  // thread, handing each to the callback in result order.
  std::printf("---- async streaming (fresh query) ----------------------\n");
  service.ClearCache();
  const std::vector<std::string> async_queries = {
      "trading volume transaction date between date(2010-01-01) "
      "date(2011-12-31)"};
  soda::AsyncSearch async = service.SearchAllAsync(
      async_queries,
      [](size_t, size_t result_index, const soda::SodaResult& result) {
        std::printf("  snippet #%zu streamed: %s (%zu rows)\n", result_index,
                    result.executed ? "ok" : "skipped",
                    result.snippet.rows.size());
      });
  if (async.outputs[0].ok()) {
    std::printf("  translation returned %zu ranked statement(s) "
                "immediately\n", async.outputs[0]->results.size());
  }
  soda::SnippetStream::Summary streamed = async.snippets.Run();
  std::printf("  stream done: %zu snippet callback(s), %zu exception(s)\n",
              streamed.delivered, streamed.callback_exceptions);

  // The fleet-level view: per-stage latency histograms and service
  // counters, aggregated across everything this process just did —
  // freshness.* books included (the manager writes into its own sink
  // here; fold it into the fleet view for one merged dump).
  soda::MetricsSnapshot fleet = service.metrics_snapshot();
  fleet.MergeFrom(freshness.metrics_snapshot());
  std::printf("---- metrics snapshot -----------------------------------\n%s",
              fleet.ToString().c_str());

  // The same snapshot a /metrics endpoint would serve, in Prometheus
  // text exposition format (counters only here — the histogram series
  // render too but would flood the terminal).
  std::printf("---- prometheus exposition (counters) -------------------\n");
  std::string exposition = soda::RenderPrometheusText(fleet);
  size_t pos = 0;
  while (pos < exposition.size()) {
    size_t eol = exposition.find('\n', pos);
    std::string line = exposition.substr(pos, eol - pos);
    if (line.find("_bucket{") == std::string::npos &&
        line.find("_sum") == std::string::npos &&
        line.find("_count") == std::string::npos &&
        line.find("histogram") == std::string::npos) {
      std::printf("  %s\n", line.c_str());
    }
    pos = eol == std::string::npos ? exposition.size() : eol + 1;
  }
  return 0;
}
