// Closed/open-loop load harness for the HTTP front end.
//
// Default mode is fully self-contained: build the mini-bank, put a
// sharded engine (with live-freshness wiring) behind a SodaHttpServer on
// an ephemeral loopback port, then drive a concurrency sweep of mixed
// traffic at it over real sockets:
//
//   * hit traffic     — the demo dashboard queries, repeated (cache hits
//                       after the first round);
//   * miss traffic    — per-request unique query strings (every one a
//                       cache miss that runs the full pipeline);
//   * mutation traffic— rows appended to the live database mid-sweep;
//                       the change log + FreshnessManager invalidate the
//                       dependent cache keys, so subsequent "hit" traffic
//                       re-misses: the freshness path under load.
//
// Each sweep level runs `--requests` requests through `--concurrency`
// workers. Closed loop by default (a worker fires its next request the
// moment the previous response lands); `--open-rate R` switches to an
// open loop where arrivals are scheduled at R requests/second and
// latency includes queueing delay behind slow responses.
//
// Latency percentiles are exact (every sample is kept and sorted —
// p50/p99/p999 are order statistics, not histogram-bucket estimates).
// Results go to --out as JSON (BENCH_http_load.json in CI, uploaded as
// an artifact) and to stdout as grep-friendly `key=value` lines that the
// Release CI leg asserts on (server_requests, server_shed, load_p99_ms).
//
// The accounting invariant CI enforces: every request is either ok (200),
// shed (503 — booked by the server AND counted here), or dropped
// (transport error / unexpected status). Dropped must be zero; shed must
// match the server's own server.shed book. Nothing is silently lost.
//
// `--probe` is a one-shot smoke check (healthz + search round trip + a
// streamed search ending in its done event + metrics exposition) against
// an already-running server — the no-curl fallback for the CI server
// smoke stage.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/freshness.h"
#include "core/sharded_engine.h"
#include "datasets/minibank.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "pattern/library.h"
#include "storage/change_log.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::vector<size_t> concurrency = {1, 2, 4};
  size_t requests = 200;       // per sweep level
  size_t shards = 2;
  size_t threads = 2;          // per shard
  size_t cache_capacity = 64;
  size_t watermark = 128;
  double open_rate = 0.0;      // requests/sec; 0 = closed loop
  double hit_fraction = 0.7;
  size_t mutate_every = 50;    // 0 = no mutation traffic
  size_t retry_shed = 0;       // client 503 retries (closed loop); 0 = off
  std::string out = "BENCH_http_load.json";
  std::string host = "127.0.0.1";
  uint16_t port = 0;           // 0 = spawn the in-process server
  bool probe = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --concurrency LIST  sweep levels, comma-separated (default 1,2,4)\n"
      "  --requests N        requests per level (default 200)\n"
      "  --shards N          engine shards for the in-process server (2)\n"
      "  --threads N         worker threads per shard (2)\n"
      "  --watermark N       admission shed watermark (128)\n"
      "  --hit-fraction F    fraction of cache-hit traffic (0.7)\n"
      "  --mutate-every N    one base-data append per N requests; 0=off (50)\n"
      "  --open-rate R       open-loop arrivals/sec; 0 = closed loop\n"
      "  --retry-shed N      client retries per shed 503, honoring\n"
      "                      Retry-After (closed loop only; 0 = off)\n"
      "  --out PATH          JSON report path (BENCH_http_load.json)\n"
      "  --host H --port P   target an external server instead\n"
      "  --probe             one-shot smoke probe (needs --port)\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, Options* options) {
  auto next = [&](int* i) -> const char* {
    if (*i + 1 >= argc) return nullptr;
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    const char* value = nullptr;
    if (flag == "--probe") {
      options->probe = true;
    } else if (flag == "--concurrency" && (value = next(&i))) {
      options->concurrency.clear();
      const char* p = value;
      while (*p != '\0') {
        char* end = nullptr;
        unsigned long level = std::strtoul(p, &end, 10);
        if (end == p || level == 0) return false;
        options->concurrency.push_back(level);
        p = (*end == ',') ? end + 1 : end;
        if (*end != '\0' && *end != ',') return false;
      }
      if (options->concurrency.empty()) return false;
    } else if (flag == "--requests" && (value = next(&i))) {
      options->requests = std::strtoul(value, nullptr, 10);
    } else if (flag == "--shards" && (value = next(&i))) {
      options->shards = std::strtoul(value, nullptr, 10);
    } else if (flag == "--threads" && (value = next(&i))) {
      options->threads = std::strtoul(value, nullptr, 10);
    } else if (flag == "--watermark" && (value = next(&i))) {
      options->watermark = std::strtoul(value, nullptr, 10);
    } else if (flag == "--hit-fraction" && (value = next(&i))) {
      options->hit_fraction = std::strtod(value, nullptr);
    } else if (flag == "--mutate-every" && (value = next(&i))) {
      options->mutate_every = std::strtoul(value, nullptr, 10);
    } else if (flag == "--open-rate" && (value = next(&i))) {
      options->open_rate = std::strtod(value, nullptr);
    } else if (flag == "--retry-shed" && (value = next(&i))) {
      options->retry_shed = std::strtoul(value, nullptr, 10);
    } else if (flag == "--out" && (value = next(&i))) {
      options->out = value;
    } else if (flag == "--host" && (value = next(&i))) {
      options->host = value;
    } else if (flag == "--port" && (value = next(&i))) {
      options->port = static_cast<uint16_t>(std::strtoul(value, nullptr, 10));
    } else {
      return false;
    }
  }
  return true;
}

const std::vector<std::string>& Dashboard() {
  static const std::vector<std::string> dashboard = {
      "customers Zürich financial instruments",
      "sum(investments) group by (currency)",
      "addresses Sara Guttinger",
      "private customers family name",
  };
  return dashboard;
}

/// Request body for request number `k` of a level: deterministic
/// hit/miss interleave (no RNG — identical invocations produce identical
/// traffic).
std::string RequestBody(size_t k, double hit_fraction) {
  size_t hit_tenths =
      static_cast<size_t>(std::lround(std::clamp(hit_fraction, 0.0, 1.0) *
                                      10.0));
  bool hit = (k % 10) < hit_tenths;
  std::string body;
  if (hit && k % 13 == 0) {
    // Occasional batch request: the whole dashboard as one POST.
    body = "{\"queries\":[";
    for (size_t i = 0; i < Dashboard().size(); ++i) {
      if (i > 0) body += ",";
      soda::AppendJsonQuoted(&body, Dashboard()[i]);
    }
    body += "]}";
    return body;
  }
  body = "{\"query\":";
  if (hit) {
    soda::AppendJsonQuoted(&body, Dashboard()[k % Dashboard().size()]);
  } else {
    soda::AppendJsonQuoted(
        &body, "customers Zürich financial instruments v" + std::to_string(k));
  }
  body += "}";
  return body;
}

/// Exact order-statistic percentile over an already-sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  double rank = p / 100.0 * static_cast<double>(sorted.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  if (index > 0) --index;
  index = std::min(index, sorted.size() - 1);
  return sorted[index];
}

struct LevelStats {
  size_t concurrency = 0;
  size_t requests = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t dropped = 0;
  size_t mutations = 0;
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
};

/// The in-process serving stack (absent when --port targets an external
/// server).
struct InProcessStack {
  std::unique_ptr<soda::MiniBank> bank;
  std::unique_ptr<soda::ShardedSodaEngine> engine;
  std::unique_ptr<soda::FreshnessManager> freshness;
  std::unique_ptr<soda::SodaHttpServer> server;
  std::atomic<int64_t> next_row_id{50000};

  /// One base-data mutation: append a fresh individual. Thread-safe
  /// (Table::Append takes the change log's exclusive data lock); the
  /// FreshnessManager listener applies index deltas and evicts dependent
  /// cache keys before the lock is released.
  void Mutate() {
    int64_t id = next_row_id.fetch_add(1);
    soda::Table* individuals = bank->db.FindTable("individuals");
    (void)individuals->Append(
        {soda::Value::Int(id), soda::Value::Str("Load"),
         soda::Value::Str("Harness" + std::to_string(id)),
         soda::Value::Int(100000),
         soda::Value::DateV(soda::Date::FromYmd(1990, 1, 1))});
  }
};

soda::Result<std::unique_ptr<InProcessStack>> BuildStack(
    const Options& options) {
  auto stack = std::make_unique<InProcessStack>();
  SODA_ASSIGN_OR_RETURN(stack->bank, soda::BuildMiniBank());

  soda::SodaConfig config;
  config.num_shards = options.shards;
  config.num_threads = options.threads;
  config.cache_capacity = options.cache_capacity;
  SODA_ASSIGN_OR_RETURN(
      stack->engine,
      soda::ShardedSodaEngine::Create(&stack->bank->db, &stack->bank->graph,
                                      soda::CreditSuissePatternLibrary(),
                                      config));

  stack->freshness = std::make_unique<soda::FreshnessManager>(
      &stack->bank->db.change_log());
  stack->freshness->Track(stack->engine.get());

  soda::HttpServerOptions server_options;
  size_t max_level = *std::max_element(options.concurrency.begin(),
                                       options.concurrency.end());
  server_options.num_threads = std::max<size_t>(4, max_level);
  server_options.shed_watermark = options.watermark;
  soda::FreshnessManager* freshness = stack->freshness.get();
  server_options.extra_metrics = [freshness] {
    return freshness->metrics_snapshot();
  };
  stack->server = std::make_unique<soda::SodaHttpServer>(
      stack->engine.get(), server_options);
  SODA_RETURN_NOT_OK(stack->server->Start());
  return stack;
}

LevelStats RunLevel(const Options& options, size_t concurrency, uint16_t port,
                    InProcessStack* stack) {
  LevelStats stats;
  stats.concurrency = concurrency;
  stats.requests = options.requests;

  std::atomic<size_t> next{0};
  std::atomic<size_t> ok{0};
  std::atomic<size_t> shed{0};
  std::atomic<size_t> dropped{0};
  std::atomic<size_t> mutations{0};
  std::vector<std::vector<double>> latencies(concurrency);

  Clock::time_point level_start = Clock::now();
  double interval_ms =
      options.open_rate > 0.0 ? 1000.0 / options.open_rate : 0.0;

  std::vector<std::thread> workers;
  workers.reserve(concurrency);
  for (size_t w = 0; w < concurrency; ++w) {
    workers.emplace_back([&, w] {
      soda::HttpClient client(options.host, port, /*timeout_ms=*/60000.0);
      if (options.retry_shed > 0 && interval_ms == 0.0) {
        // Closed loop only: an open loop must not stall its arrival
        // schedule sleeping out Retry-After.
        soda::HttpRetryPolicy policy;
        policy.max_retries = options.retry_shed;
        client.set_retry_policy(policy);
      }
      for (;;) {
        size_t k = next.fetch_add(1);
        if (k >= options.requests) break;

        if (stack != nullptr && options.mutate_every != 0 &&
            k % options.mutate_every == options.mutate_every - 1) {
          stack->Mutate();
          mutations.fetch_add(1);
        }

        Clock::time_point issue_at = level_start;
        if (interval_ms > 0.0) {
          // Open loop: arrival k is scheduled, not reactive; latency
          // below includes time spent queued behind slow responses.
          issue_at += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(
                  interval_ms * static_cast<double>(k)));
          std::this_thread::sleep_until(issue_at);
        } else {
          issue_at = Clock::now();
        }

        std::string body = RequestBody(k, options.hit_fraction);
        auto response = client.Post("/search", body);
        double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              issue_at)
                        .count();
        if (!response.ok()) {
          dropped.fetch_add(1);
          continue;
        }
        if (response->status == 200) {
          ok.fetch_add(1);
          latencies[w].push_back(ms);
        } else if (response->status == 503) {
          shed.fetch_add(1);
        } else {
          dropped.fetch_add(1);
        }
      }
      // 503s the client absorbed by retrying are still sheds the server
      // booked — add them back so the shed-accounting invariant (client
      // shed == server.shed) survives client-side retries.
      shed.fetch_add(client.sheds_absorbed());
    });
  }
  for (std::thread& worker : workers) worker.join();

  stats.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            level_start)
                      .count();
  stats.ok = ok.load();
  stats.shed = shed.load();
  stats.dropped = dropped.load();
  stats.mutations = mutations.load();

  std::vector<double> all;
  for (const std::vector<double>& lane : latencies) {
    all.insert(all.end(), lane.begin(), lane.end());
  }
  std::sort(all.begin(), all.end());
  stats.p50_ms = Percentile(all, 50.0);
  stats.p99_ms = Percentile(all, 99.0);
  stats.p999_ms = Percentile(all, 99.9);
  stats.max_ms = all.empty() ? 0.0 : all.back();
  return stats;
}

void AppendLevelJson(std::string* out, const LevelStats& stats) {
  char buf[512];
  double rps = stats.wall_ms > 0.0
                   ? 1000.0 * static_cast<double>(stats.ok + stats.shed) /
                         stats.wall_ms
                   : 0.0;
  std::snprintf(
      buf, sizeof(buf),
      "{\"concurrency\":%zu,\"requests\":%zu,\"ok\":%zu,\"shed\":%zu,"
      "\"dropped\":%zu,\"mutations\":%zu,\"wall_ms\":%.3f,"
      "\"throughput_rps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"p999_ms\":%.3f,\"max_ms\":%.3f}",
      stats.concurrency, stats.requests, stats.ok, stats.shed, stats.dropped,
      stats.mutations, stats.wall_ms, rps, stats.p50_ms, stats.p99_ms,
      stats.p999_ms, stats.max_ms);
  out->append(buf);
}

/// One-shot smoke probe against a running server: the CI server smoke
/// stage's fallback when curl is unavailable. Prints PROBE_OK / a
/// failure reason; exit status is the verdict.
int RunProbe(const Options& options) {
  if (options.port == 0) {
    std::fprintf(stderr, "--probe needs --port\n");
    return 2;
  }
  soda::HttpClient client(options.host, options.port, 15000.0);

  auto health = client.Get("/healthz");
  // First-line check: probes key on /healthz's first line.
  bool healthy = health.ok() && health->status == 200 &&
                 health->body.compare(0, 3, "ok\n") == 0;
  if (!healthy) {
    std::fprintf(stderr, "PROBE_FAIL healthz: %s\n",
                 health.ok() ? std::to_string(health->status).c_str()
                             : health.status().ToString().c_str());
    return 1;
  }

  auto search =
      client.Post("/search", RequestBody(/*k=*/1, /*hit_fraction=*/1.0));
  if (!search.ok() || search->status != 200 ||
      search->body.find("\"outputs\"") == std::string::npos) {
    std::fprintf(stderr, "PROBE_FAIL search: %s\n",
                 search.ok() ? std::to_string(search->status).c_str()
                             : search.status().ToString().c_str());
    return 1;
  }

  // The streamed form of one query: a 200 whose last body line is the
  // done event, written by the coalesced chunk writer.
  auto streamed = client.Post("/search?stream=1",
                              RequestBody(/*k=*/1, /*hit_fraction=*/1.0));
  std::string stream_error;
  if (!streamed.ok()) {
    stream_error = streamed.status().ToString();
  } else if (streamed->status != 200) {
    stream_error = std::to_string(streamed->status);
  } else {
    std::string_view body = streamed->body;
    if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
    std::string_view last = body.substr(body.rfind('\n') + 1);
    if (last.find("\"event\":\"done\"") == std::string_view::npos) {
      stream_error = "last line is not the done event";
    }
  }
  if (!stream_error.empty()) {
    std::fprintf(stderr, "PROBE_FAIL search?stream=1: %s\n",
                 stream_error.c_str());
    return 1;
  }

  auto metrics = client.Get("/metrics");
  if (!metrics.ok() || metrics->status != 200) {
    std::fprintf(stderr, "PROBE_FAIL metrics: %s\n",
                 metrics.ok() ? std::to_string(metrics->status).c_str()
                              : metrics.status().ToString().c_str());
    return 1;
  }
  for (const char* required :
       {"soda_server_requests_total", "soda_server_accepted_total",
        "soda_server_shed_total", "soda_server_timeouts_total",
        "soda_server_stream_writes_total", "soda_server_inflight"}) {
    if (metrics->body.find(required) == std::string::npos) {
      std::fprintf(stderr, "PROBE_FAIL metrics: missing %s\n", required);
      return 1;
    }
  }
  // The /debug introspection pair must answer valid JSON with their
  // load-bearing top-level keys — an operator's first stop at a
  // misbehaving box must never itself be broken.
  auto vars = client.Get("/debug/vars");
  if (!vars.ok() || vars->status != 200) {
    std::fprintf(stderr, "PROBE_FAIL debug/vars: %s\n",
                 vars.ok() ? std::to_string(vars->status).c_str()
                           : vars.status().ToString().c_str());
    return 1;
  }
  auto vars_doc = soda::ParseJson(vars->body);
  if (!vars_doc.ok() || !vars_doc->is_object() ||
      vars_doc->Find("server") == nullptr ||
      vars_doc->Find("service") == nullptr ||
      vars_doc->Find("trace") == nullptr) {
    std::fprintf(stderr, "PROBE_FAIL debug/vars: not a valid vars object\n");
    return 1;
  }
  auto traces = client.Get("/debug/traces?min_ms=0");
  if (!traces.ok() || traces->status != 200) {
    std::fprintf(stderr, "PROBE_FAIL debug/traces: %s\n",
                 traces.ok() ? std::to_string(traces->status).c_str()
                             : traces.status().ToString().c_str());
    return 1;
  }
  auto traces_doc = soda::ParseJson(traces->body);
  if (!traces_doc.ok() || !traces_doc->is_object() ||
      traces_doc->Find("traces") == nullptr ||
      !traces_doc->Find("traces")->is_array()) {
    std::fprintf(stderr,
                 "PROBE_FAIL debug/traces: not a valid trace listing\n");
    return 1;
  }
  std::printf("PROBE_OK healthz+search+stream+metrics+debug on %s:%u\n",
              options.host.c_str(), options.port);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage(argv[0]);
    return 2;
  }
  if (options.probe) return RunProbe(options);

  std::unique_ptr<InProcessStack> stack;
  uint16_t port = options.port;
  if (port == 0) {
    auto built = BuildStack(options);
    if (!built.ok()) {
      std::fprintf(stderr, "stack construction failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    stack = std::move(built).value();
    port = stack->server->port();
    std::printf("in-process server up on %s:%u (%zu shards x %zu threads, "
                "watermark %zu)\n",
                options.host.c_str(), port, options.shards, options.threads,
                options.watermark);
  } else {
    std::printf("targeting external server %s:%u (no mutation traffic)\n",
                options.host.c_str(), port);
  }

  std::vector<LevelStats> levels;
  size_t total_dropped = 0;
  for (size_t concurrency : options.concurrency) {
    LevelStats stats = RunLevel(options, concurrency, port, stack.get());
    total_dropped += stats.dropped;
    std::printf(
        "http_load concurrency=%zu requests=%zu ok=%zu shed=%zu dropped=%zu "
        "mutations=%zu wall_ms=%.1f p50_ms=%.3f p99_ms=%.3f p999_ms=%.3f\n",
        stats.concurrency, stats.requests, stats.ok, stats.shed,
        stats.dropped, stats.mutations, stats.wall_ms, stats.p50_ms,
        stats.p99_ms, stats.p999_ms);
    levels.push_back(stats);
  }

  // Overall percentiles across the whole sweep, as the grep tokens the
  // Release CI leg asserts on.
  size_t total_ok = 0;
  size_t total_shed = 0;
  for (const LevelStats& stats : levels) {
    total_ok += stats.ok;
    total_shed += stats.shed;
  }
  const LevelStats& last = levels.back();
  std::printf("load_p50_ms=%.3f\nload_p99_ms=%.3f\nload_p999_ms=%.3f\n",
              last.p50_ms, last.p99_ms, last.p999_ms);

  std::string json = "{\"bench\":\"http_load\",\"mode\":\"";
  json += options.open_rate > 0.0 ? "open" : "closed";
  json += "\",\"levels\":[";
  for (size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) json += ",";
    AppendLevelJson(&json, levels[i]);
  }
  json += "]";

  if (stack != nullptr) {
    // The server's own accounting must agree with the client's: every
    // shed the clients saw is booked, nothing vanished in between.
    soda::MetricsSnapshot server = stack->server->server_metrics();
    uint64_t server_requests = server.counter("server.requests");
    uint64_t server_shed = server.counter("server.shed");
    uint64_t server_timeouts = server.counter("server.timeouts");
    std::printf("server_requests=%llu\nserver_shed=%llu\n"
                "server_timeouts=%llu\n",
                static_cast<unsigned long long>(server_requests),
                static_cast<unsigned long long>(server_shed),
                static_cast<unsigned long long>(server_timeouts));
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\"server\":{\"requests\":%llu,\"shed\":%llu,"
                  "\"timeouts\":%llu}",
                  static_cast<unsigned long long>(server_requests),
                  static_cast<unsigned long long>(server_shed),
                  static_cast<unsigned long long>(server_timeouts));
    json += buf;
    if (server_shed != total_shed) {
      std::fprintf(stderr,
                   "FAIL: shed accounting mismatch (server booked %llu, "
                   "clients observed %zu)\n",
                   static_cast<unsigned long long>(server_shed), total_shed);
      return 1;
    }
  } else {
    std::printf("server_requests=external\nserver_shed=%zu\n", total_shed);
  }
  json += "}\n";

  std::ofstream out(options.out);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", options.out.c_str());
    return 1;
  }
  out << json;
  out.close();
  std::printf("report written to %s (%zu ok, %zu shed, %zu dropped)\n",
              options.out.c_str(), total_ok, total_shed, total_dropped);

  if (total_dropped != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu non-shed request(s) dropped — closed-loop "
                 "accounting must be lossless\n",
                 total_dropped);
    return 1;
  }
  if (stack != nullptr) stack->server->Stop();
  return 0;
}
