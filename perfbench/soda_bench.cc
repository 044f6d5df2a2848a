// End-to-end benchmark of the SODA serving stack.
//
// Builds the paper's enterprise warehouse, serves it through the real
// stack (ShardedSodaEngine 2 shards x 2 workers + FreshnessManager +
// SodaHttpServer with 4 connection threads on loopback) and drives one
// of three seeded workloads from this process:
//
//   analyst_cold     2 closed-loop clients, POST /search?stream=1, one
//                    Table 2 query (or a value variant) per request,
//                    result cache off: every request runs all five
//                    stages plus snippet execution.
//   dashboard_fresh  open loop: POST /search batches of 4-8 Zipf-popular
//                    panels from a pool larger than the fleet's cache,
//                    at a fixed rate, beside a writer that appends rows
//                    carrying pool values (delta + keyed invalidation).
//   session_steer    2 closed-loop in-process SodaSession users over an
//                    engine with execute_snippets=false: Ask, a seeded
//                    script of pin/ban/bind/unbind Refines, then a
//                    changed question.
//
// Every answer is checked byte-for-byte against a cache-off 1-thread
// SodaEngine reference. The last stdout line is one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which also replays the inputs through each layer's entry
// point under in-memory spans and writes them as Chrome trace JSON).
//
// Usage: soda_bench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR]

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/freshness.h"
#include "core/session.h"
#include "core/sharded_engine.h"
#include "datasets/enterprise.h"
#include "inputs.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/search_json.h"
#include "pattern/library.h"
#include "support.h"

#ifndef SODA_BENCH_BUILD_TYPE
#define SODA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef SODA_BENCH_COMPILER
#define SODA_BENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Fixed deployment and workload shape.
// ---------------------------------------------------------------------------

constexpr size_t kShards = 2;
constexpr size_t kWorkersPerShard = 2;
constexpr size_t kServerThreads = 4;
constexpr size_t kCacheCapacityPerShard = 128;  // SodaConfig default
constexpr size_t kSetupRepeats = 3;
constexpr double kWarmupSeconds = 2.0;

constexpr size_t kAnalystClients = 2;
constexpr size_t kAnalystVariantsPerTemplate = 7;

constexpr size_t kDashboardConnections = 4;
constexpr size_t kDashboardPool = 384;  // > fleet cache (2 x 128)
constexpr double kDashboardZipf = 1.0;
constexpr uint64_t kDashboardPoolSeed = 0xDA5B0A4D;
constexpr double kDashboardBatchRate = 55.0;  // batches per second
constexpr size_t kMinAppends = 240;
constexpr size_t kBurstAppends = 600;  // quiet write burst, closed loops

constexpr size_t kSessionUsers = 2;
constexpr size_t kSessionConversations = 600;
constexpr size_t kSessionVariantsPerTemplate = 40;

constexpr int64_t kFirstAppendId = 5000000;

enum class Kind { kAnalyst, kDashboard, kSession };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kAnalyst:
      return "analyst_cold";
    case Kind::kDashboard:
      return "dashboard_fresh";
    case Kind::kSession:
      return "session_steer";
  }
  return "?";
}

struct Options {
  Kind kind = Kind::kAnalyst;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

soda::SodaConfig DeployConfig(Kind kind) {
  soda::SodaConfig config;
  config.num_shards = kShards;
  config.num_threads = kWorkersPerShard;
  config.cache_capacity = kind == Kind::kAnalyst ? 0 : kCacheCapacityPerShard;
  config.execute_snippets = kind != Kind::kSession;
  config.trace_sample_n = 0;
  return config;
}

soda::SodaConfig ReferenceConfig(Kind kind) {
  soda::SodaConfig config;
  config.num_threads = 1;
  config.cache_capacity = 0;
  config.execute_snippets = kind != Kind::kSession;
  return config;
}

std::string RenderOne(const std::string& query,
                      const soda::Result<soda::SearchOutput>& output) {
  std::vector<std::string> queries = {query};
  std::vector<soda::Result<soda::SearchOutput>> outputs;
  outputs.push_back(output);
  return soda::RenderSearchResponseJson(queries, outputs);
}

// ---------------------------------------------------------------------------
// The serving stack.
// ---------------------------------------------------------------------------

struct SetupTimes {
  double warehouse_s = 0.0;
  double engine_s = 0.0;
  double server_s = 0.0;
  double total() const { return warehouse_s + engine_s + server_s; }
};

struct Stack {
  // Destroyed in reverse: server drains first, the freshness manager
  // detaches before the engine goes, the warehouse outlives both.
  std::unique_ptr<soda::EnterpriseWarehouse> warehouse;
  std::unique_ptr<soda::ShardedSodaEngine> engine;
  std::unique_ptr<soda::FreshnessManager> freshness;
  std::unique_ptr<soda::SodaHttpServer> server;
};

soda::Result<std::unique_ptr<Stack>> BuildStack(Kind kind, SetupTimes* times) {
  auto stack = std::make_unique<Stack>();
  Clock::time_point t0 = Clock::now();
  SODA_ASSIGN_OR_RETURN(stack->warehouse, soda::BuildEnterpriseWarehouse());
  Clock::time_point t1 = Clock::now();
  SODA_ASSIGN_OR_RETURN(
      stack->engine,
      soda::ShardedSodaEngine::Create(
          &stack->warehouse->db, &stack->warehouse->graph,
          soda::CreditSuissePatternLibrary(), DeployConfig(kind)));
  Clock::time_point t2 = Clock::now();
  stack->freshness = std::make_unique<soda::FreshnessManager>(
      &stack->warehouse->db.change_log());
  stack->freshness->Track(stack->engine.get());
  soda::HttpServerOptions options;
  options.num_threads = kServerThreads;
  // Sheds only under real overload: the offered load here never queues
  // more than a few batches of interpretations.
  options.shed_watermark = 4096;
  soda::FreshnessManager* freshness = stack->freshness.get();
  options.extra_metrics = [freshness] { return freshness->metrics_snapshot(); };
  stack->server =
      std::make_unique<soda::SodaHttpServer>(stack->engine.get(), options);
  SODA_RETURN_NOT_OK(stack->server->Start());
  Clock::time_point t3 = Clock::now();
  times->warehouse_s = MsBetween(t0, t1) / 1000.0;
  times->engine_s = MsBetween(t1, t2) / 1000.0;
  times->server_s = MsBetween(t2, t3) / 1000.0;
  return stack;
}

soda::Result<std::unique_ptr<soda::SodaEngine>> ReferenceEngine(
    const soda::EnterpriseWarehouse& warehouse, Kind kind) {
  return soda::SodaEngine::Create(&warehouse.db, &warehouse.graph,
                                  soda::CreditSuissePatternLibrary(),
                                  ReferenceConfig(kind));
}

// ---------------------------------------------------------------------------
// Run bookkeeping.
// ---------------------------------------------------------------------------

struct Failures {
  std::atomic<size_t> attempted{0};
  std::atomic<size_t> failed{0};
  std::atomic<size_t> shed{0};
  std::atomic<size_t> transport{0};
  std::atomic<size_t> mismatched{0};
  std::mutex mu;
  std::vector<std::string> examples;

  void Fail(const std::string& why) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    if (examples.size() < 5) examples.push_back(why);
  }
};

/// Per-thread samples of one measured phase, merged at the end.
struct Samples {
  std::vector<double> at_s;  // op start, seconds into the measured window
  std::vector<double> latency_ms;  // parallel to at_s
  std::vector<double> sql_ms;      // parallel to at_s
  std::vector<double> queue_depth;
  std::vector<double> net_overhead_ms;
  std::vector<double> late_ms;
  std::vector<double> refine_pinban_ms;
  std::vector<double> refine_bind_ms;
  std::vector<double> refine_new_ms;
  double stages_skipped = 0.0;
  size_t refines = 0;
  double response_bytes = 0.0;
  size_t responses = 0;
  Clock::time_point last_end{};

  void Merge(const Samples& other) {
    auto add = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    add(&at_s, other.at_s);
    add(&latency_ms, other.latency_ms);
    add(&sql_ms, other.sql_ms);
    add(&queue_depth, other.queue_depth);
    add(&net_overhead_ms, other.net_overhead_ms);
    add(&late_ms, other.late_ms);
    add(&refine_pinban_ms, other.refine_pinban_ms);
    add(&refine_bind_ms, other.refine_bind_ms);
    add(&refine_new_ms, other.refine_new_ms);
    stages_skipped += other.stages_skipped;
    refines += other.refines;
    response_bytes += other.response_bytes;
    responses += other.responses;
    last_end = std::max(last_end, other.last_end);
  }
};

struct PhaseResult {
  Samples samples;
  std::vector<double> append_ms;
  double measured_s = 0.0;
  size_t appends = 0;
  size_t ops = 0;      // every operation of the phase, warm-up included
  double cpu_s = 0.0;  // process CPU time over the same phase
};

/// Median over equal time windows of one statistic per window, so a
/// short burst of noise from outside the program moves one window, not
/// the run's figure. One window per 1000 operations (at most 15): each
/// window's p99 still has ten samples beyond it.
size_t WindowCount(const Samples& s) {
  return std::clamp<size_t>(s.at_s.size() / 1000, 1, 15);
}

double WindowedQuantile(const Samples& s, const std::vector<double>& values,
                        double q, double measured_s) {
  const size_t windows = WindowCount(s);
  std::vector<std::vector<double>> bins(windows);
  for (size_t i = 0; i < values.size(); ++i) {
    size_t bin = static_cast<size_t>(s.at_s[i] / measured_s *
                                     static_cast<double>(windows));
    bins[std::min(bin, windows - 1)].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& bin : bins) {
    if (!bin.empty()) per_window.push_back(Quantile(bin, q));
  }
  return Quantile(per_window, 0.5);
}

double WindowedRate(const Samples& s, double measured_s) {
  const size_t windows = WindowCount(s);
  std::vector<double> counts(windows, 0.0);
  for (double at : s.at_s) {
    size_t bin =
        static_cast<size_t>(at / measured_s * static_cast<double>(windows));
    counts[std::min(bin, windows - 1)] += 1.0;
  }
  for (double& count : counts) {
    count /= measured_s / static_cast<double>(windows);
  }
  return Quantile(counts, 0.5);
}


// ---------------------------------------------------------------------------
// analyst_cold
// ---------------------------------------------------------------------------

struct StreamReference {
  std::string head;                 // translated outputs, first chunk
  std::vector<std::string> events;  // snippet lines, sorted
  std::string done;
};

struct AnalystInputs {
  std::vector<std::string> pool;
  std::vector<std::string> requests;  // per pool entry, full HTTP bytes
  std::vector<StreamReference> references;
  std::vector<size_t> sequence;  // op -> pool index
};

soda::Status PrepareAnalyst(const soda::SodaEngine& reference,
                            const Vocab& vocab, Rng* rng,
                            AnalystInputs* inputs) {
  std::vector<std::string> candidates =
      VariantPool(vocab, kAnalystVariantsPerTemplate, rng);
  for (const std::string& query : candidates) {
    soda::Result<soda::SearchOutput> output = reference.Search(query);
    if (!output.ok()) continue;  // the generator keeps answerable queries
    StreamReference ref;
    soda::SearchOutput translated = *output;
    for (soda::SodaResult& result : translated.results) {
      result.executed = false;
      result.snippet = soda::ResultSet{};
      result.execution_status = soda::Status::OK();
    }
    ref.head = RenderOne(query, translated);
    for (size_t i = 0; i < output->results.size(); ++i) {
      ref.events.push_back(
          soda::RenderSnippetEventJson(0, i, output->results[i]));
    }
    std::sort(ref.events.begin(), ref.events.end());
    ref.done = soda::RenderStreamDoneJson(output->results.size(), 0);
    std::string body = "{\"query\":";
    soda::AppendJsonQuoted(&body, query);
    body += "}";
    inputs->pool.push_back(query);
    inputs->requests.push_back(PostRequest("/search?stream=1", body));
    inputs->references.push_back(std::move(ref));
  }
  if (inputs->pool.empty()) return soda::Status::Internal("empty pool");
  // Rounds of seeded permutations: every query appears once per round.
  std::vector<size_t> round(inputs->pool.size());
  for (size_t i = 0; i < round.size(); ++i) round[i] = i;
  for (size_t r = 0; r < 200; ++r) {
    for (size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[(*rng)() % i]);
    }
    inputs->sequence.insert(inputs->sequence.end(), round.begin(),
                            round.end());
  }
  return soda::Status::OK();
}

/// Checks one streamed body against its reference.
bool StreamMatches(const std::string& body, const StreamReference& ref) {
  std::vector<std::string_view> lines;
  size_t begin = 0;
  while (begin < body.size()) {
    size_t end = body.find('\n', begin);
    if (end == std::string::npos) return false;
    lines.emplace_back(body.data() + begin, end + 1 - begin);
    begin = end + 1;
  }
  if (lines.size() != ref.events.size() + 2) return false;
  if (lines.front() != ref.head || lines.back() != ref.done) return false;
  std::vector<std::string_view> events(lines.begin() + 1, lines.end() - 1);
  std::sort(events.begin(), events.end());
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i] != ref.events[i]) return false;
  }
  return true;
}

PhaseResult RunAnalyst(Stack* stack, const AnalystInputs& inputs,
                       double warmup_s, double measure_s, size_t* cursor,
                       Failures* failures, SpanLog* spans) {
  PhaseResult phase;
  std::atomic<size_t> next{*cursor};
  Clock::time_point start = Clock::now();
  Clock::time_point measure_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup_s));
  Clock::time_point end =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(measure_s));
  std::vector<Samples> lanes(kAnalystClients);
  const double cpu_start = ProcessCpuSeconds();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kAnalystClients; ++c) {
    clients.emplace_back([&, c] {
      HttpConn conn(stack->server->port());
      Samples& lane = lanes[c];
      HttpReply reply;
      for (;;) {
        Clock::time_point t0 = Clock::now();
        if (t0 >= end) break;
        size_t k = next.fetch_add(1);
        size_t q = inputs.sequence[k % inputs.sequence.size()];
        bool measured = t0 >= measure_from;
        if (measured) {
          lane.queue_depth.push_back(
              static_cast<double>(stack->engine->queue_depth()));
        }
        ScopedSpan op(spans, "op.stream", 0, k + 1);
        bool ok = conn.RoundTrip(inputs.requests[q], &reply);
        Clock::time_point t1 = Clock::now();
        op.End();
        failures->attempted.fetch_add(1);
        if (!ok) {
          failures->transport.fetch_add(1);
          failures->Fail("transport error");
          continue;
        }
        if (reply.status != 200) {
          if (reply.status == 503) failures->shed.fetch_add(1);
          failures->Fail("status " + std::to_string(reply.status));
          continue;
        }
        if (!StreamMatches(reply.body, inputs.references[q])) {
          failures->mismatched.fetch_add(1);
          failures->Fail("stream mismatch: " + inputs.pool[q]);
          continue;
        }
        if (!measured) continue;
        lane.at_s.push_back(MsBetween(measure_from, t0) / 1000.0);
        lane.latency_ms.push_back(MsBetween(t0, t1));
        lane.sql_ms.push_back(MsBetween(t0, reply.first_chunk_at));
        lane.response_bytes += static_cast<double>(reply.wire_bytes);
        ++lane.responses;
        lane.last_end = t1;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  phase.cpu_s = ProcessCpuSeconds() - cpu_start;
  phase.ops = next.load() - *cursor;
  for (const Samples& lane : lanes) phase.samples.Merge(lane);
  phase.measured_s = MsBetween(measure_from, phase.samples.last_end) / 1000.0;
  *cursor = next.load();
  return phase;
}

// ---------------------------------------------------------------------------
// dashboard_fresh
// ---------------------------------------------------------------------------

struct Batch {
  std::vector<uint32_t> panels;  // pool indices
  std::string request;
};

struct DashboardInputs {
  std::vector<std::string> pool;
  std::vector<AppendRow> appends;  // every phase's writes, in order
  double batch_rate = 0.0;         // batches per second
  double append_rate = 0.0;        // appends per second
  std::unique_ptr<ZipfSampler> zipf;
};

/// One observed batch answer: which epoch range it could have seen and
/// the hash of each per-panel output slice.
struct Observation {
  const Batch* batch = nullptr;
  size_t lo = 0;  // appends completed before the send
  size_t hi = 0;  // appends started before the reply arrived
  std::vector<uint64_t> hashes;
};

std::vector<Batch> MakeBatches(const DashboardInputs& inputs, size_t count,
                               Rng* rng) {
  std::vector<Batch> batches(count);
  for (Batch& batch : batches) {
    size_t size = 4 + (*rng)() % 5;
    while (batch.panels.size() < size) {
      uint32_t panel = static_cast<uint32_t>((*inputs.zipf)(rng));
      if (std::find(batch.panels.begin(), batch.panels.end(), panel) ==
          batch.panels.end()) {
        batch.panels.push_back(panel);
      }
    }
    std::string body = "{\"queries\":[";
    for (size_t i = 0; i < batch.panels.size(); ++i) {
      if (i > 0) body += ",";
      soda::AppendJsonQuoted(&body, inputs.pool[batch.panels[i]]);
    }
    body += "]}";
    batch.request = PostRequest("/search", body);
  }
  return batches;
}

std::vector<std::string> WordsInPool(const std::vector<std::string>& values,
                                     const std::vector<std::string>& pool) {
  std::set<std::string> pool_tokens;
  for (const std::string& query : pool) {
    for (std::string& token : FoldTokens(query)) pool_tokens.insert(token);
  }
  std::vector<std::string> hits;
  for (const std::string& value : values) {
    std::vector<std::string> tokens = FoldTokens(value);
    if (!tokens.empty() &&
        std::all_of(tokens.begin(), tokens.end(), [&](const std::string& t) {
          return pool_tokens.count(t) > 0;
        })) {
      hits.push_back(value);
    }
  }
  return hits;
}

soda::Status PrepareDashboard(const soda::SodaEngine& reference,
                              const Vocab& vocab, double seconds, Rng* rng,
                              DashboardInputs* inputs) {
  // A dashboard is a fixed set of panels: the pool comes from its own
  // constant seed, so the popular panels (and their cost) are the same
  // in every run. The run seed draws the refreshes and the writes.
  Rng pool_rng(kDashboardPoolSeed);
  for (const std::string& query :
       DistinctPool(vocab, kDashboardPool + 32, &pool_rng)) {
    if (inputs->pool.size() == kDashboardPool) break;
    if (reference.Search(query).ok()) inputs->pool.push_back(query);
  }
  // Popularity follows pool order: the paper queries are the most
  // popular panels, then the variants template by template.
  inputs->zipf =
      std::make_unique<ZipfSampler>(inputs->pool.size(), kDashboardZipf);
  inputs->batch_rate = kDashboardBatchRate;
  inputs->append_rate = static_cast<double>(kMinAppends) / seconds;
  // Enough writes for a traced second phase on top of the first.
  size_t appends = static_cast<size_t>(std::ceil(
                       inputs->append_rate * (2.0 * seconds + kWarmupSeconds))) +
                   8;
  inputs->appends =
      MakeAppends(vocab, WordsInPool(vocab.given_names, inputs->pool),
                  WordsInPool(vocab.places, inputs->pool), appends,
                  kFirstAppendId, rng);
  return soda::Status::OK();
}

struct EpochState {
  std::atomic<size_t> started{0};
  std::atomic<size_t> done{0};
};

PhaseResult RunDashboard(Stack* stack, const DashboardInputs& inputs,
                         const std::vector<Batch>& batches, double warmup_s,
                         double measure_s, EpochState* epochs,
                         std::vector<Observation>* observations,
                         Failures* failures, SpanLog* spans) {
  PhaseResult phase;
  const double total_s = warmup_s + measure_s;
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto at = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  const size_t batch_count = std::min(
      batches.size(),
      static_cast<size_t>(std::floor(inputs.batch_rate * total_s)));
  std::atomic<size_t> next{0};
  const double cpu_start = ProcessCpuSeconds();
  std::vector<Samples> lanes(kDashboardConnections);
  std::vector<std::vector<Observation>> lane_obs(kDashboardConnections);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kDashboardConnections; ++w) {
    workers.emplace_back([&, w] {
      HttpConn conn(stack->server->port());
      Samples& lane = lanes[w];
      HttpReply reply;
      std::vector<std::string_view> parts;
      for (;;) {
        size_t k = next.fetch_add(1);
        if (k >= batch_count) break;
        double due_s = static_cast<double>(k) / inputs.batch_rate;
        Clock::time_point due = at(due_s);
        std::this_thread::sleep_until(due);
        const Batch& batch = batches[k];
        bool measured = due_s >= warmup_s;
        Clock::time_point sent = Clock::now();
        if (measured) {
          lane.late_ms.push_back(MsBetween(due, sent));
          lane.queue_depth.push_back(
              static_cast<double>(stack->engine->queue_depth()));
        }
        size_t lo = epochs->done.load();
        ScopedSpan op(spans, "op.batch", 0, k + 1);
        bool ok = conn.RoundTrip(batch.request, &reply);
        Clock::time_point received = Clock::now();
        op.End();
        size_t hi = epochs->started.load();
        failures->attempted.fetch_add(1);
        if (!ok) {
          failures->transport.fetch_add(1);
          failures->Fail("transport error");
          continue;
        }
        if (reply.status != 200) {
          if (reply.status == 503) failures->shed.fetch_add(1);
          failures->Fail("status " + std::to_string(reply.status));
          continue;
        }
        if (!SplitOutputs(reply.body, &parts) ||
            parts.size() != batch.panels.size()) {
          failures->mismatched.fetch_add(1);
          failures->Fail("malformed batch body");
          continue;
        }
        Observation obs;
        obs.batch = &batch;
        obs.lo = lo;
        obs.hi = hi;
        for (std::string_view part : parts) obs.hashes.push_back(Fnv1a(part));
        lane_obs[w].push_back(std::move(obs));
        if (!measured) continue;
        double latency = MsBetween(due, received);
        lane.at_s.push_back(due_s - warmup_s);
        lane.latency_ms.push_back(latency);
        lane.sql_ms.push_back(latency);
        if (reply.wall_ms_header >= 0.0) {
          lane.net_overhead_ms.push_back(MsBetween(sent, received) -
                                         reply.wall_ms_header);
        }
        lane.response_bytes += static_cast<double>(reply.wire_bytes);
        ++lane.responses;
        lane.last_end = received;
      }
    });
  }

  // The writer: appends in schedule order, one at a time, so the row
  // order (and hence every epoch) is reproducible by a replay.
  std::thread writer([&] {
    for (size_t j = 0;; ++j) {
      double due_s = static_cast<double>(j) / inputs.append_rate;
      if (due_s >= total_s) break;
      size_t index = epochs->started.load();
      if (index >= inputs.appends.size()) break;
      std::this_thread::sleep_until(at(due_s));
      const AppendRow& append = inputs.appends[index];
      soda::Table* table = stack->warehouse->db.FindTable(append.table);
      epochs->started.fetch_add(1);
      ScopedSpan op(spans, "op.append", 0, 0);
      Clock::time_point t0 = Clock::now();
      soda::Status status = table->Append(append.row);
      Clock::time_point t1 = Clock::now();
      op.End();
      epochs->done.fetch_add(1);
      failures->attempted.fetch_add(1);
      if (!status.ok()) {
        failures->Fail("append failed: " + status.ToString());
        continue;
      }
      ++phase.appends;
      if (due_s >= warmup_s) phase.append_ms.push_back(MsBetween(t0, t1));
    }
  });
  for (std::thread& worker : workers) worker.join();
  writer.join();
  phase.cpu_s = ProcessCpuSeconds() - cpu_start;
  phase.ops = batch_count;
  for (size_t w = 0; w < kDashboardConnections; ++w) {
    phase.samples.Merge(lanes[w]);
    for (Observation& obs : lane_obs[w]) {
      observations->push_back(std::move(obs));
    }
  }
  phase.measured_s = MsBetween(at(warmup_s), phase.samples.last_end) / 1000.0;
  return phase;
}

/// Re-asks every pool query through the server after the run and
/// compares against a reference built fresh over the mutated data:
/// no cached answer may be stale.
void FreshnessSweep(Stack* stack, const DashboardInputs& inputs,
                    Failures* failures) {
  auto fresh = ReferenceEngine(*stack->warehouse, Kind::kDashboard);
  if (!fresh.ok()) {
    failures->Fail("fresh reference: " + fresh.status().ToString());
    return;
  }
  HttpConn conn(stack->server->port());
  HttpReply reply;
  for (const std::string& query : inputs.pool) {
    std::string body = "{\"query\":";
    soda::AppendJsonQuoted(&body, query);
    body += "}";
    failures->attempted.fetch_add(1);
    if (!conn.RoundTrip(PostRequest("/search", body), &reply) ||
        reply.status != 200) {
      failures->Fail("sweep request failed: " + query);
      continue;
    }
    if (reply.body != RenderOne(query, (*fresh)->Search(query))) {
      failures->mismatched.fetch_add(1);
      failures->Fail("stale answer after writes: " + query);
    }
  }
}

/// Replays the writes on a second copy of the warehouse and checks each
/// observed panel answer against the reference at some epoch it could
/// have seen. References are recomputed only when a write could have
/// changed the answer: the write's table is in the answer's FROM lists
/// or one of its tokens is one of the query's.
void VerifyEpochs(const DashboardInputs& inputs, size_t appends_applied,
                  std::vector<Observation>* observations, Failures* failures) {
  auto replica = soda::BuildEnterpriseWarehouse();
  if (!replica.ok()) {
    failures->Fail("replica: " + replica.status().ToString());
    return;
  }
  auto reference = ReferenceEngine(**replica, Kind::kDashboard);
  if (!reference.ok()) {
    failures->Fail("replica reference: " + reference.status().ToString());
    return;
  }
  soda::FreshnessManager deltas(&(*replica)->db.change_log());
  deltas.Track(reference->get());

  struct Memo {
    bool valid = false;
    uint64_t hash = 0;
    std::set<std::string> tables;
    std::set<std::string> tokens;
  };
  std::vector<Memo> memo(inputs.pool.size());
  for (size_t p = 0; p < inputs.pool.size(); ++p) {
    for (std::string& token : FoldTokens(inputs.pool[p])) {
      memo[p].tokens.insert(std::move(token));
    }
  }
  auto reference_hash = [&](uint32_t panel) {
    Memo& m = memo[panel];
    if (!m.valid) {
      const std::string& query = inputs.pool[panel];
      soda::Result<soda::SearchOutput> output = (*reference)->Search(query);
      m.hash = Fnv1a(OutputFragment(RenderOne(query, output)));
      m.tables.clear();
      if (output.ok()) {
        for (const soda::SodaResult& result : output->results) {
          for (const std::string& table : result.provenance.tables) {
            m.tables.insert(table);
          }
        }
      }
      m.valid = true;
    }
    return m.hash;
  };

  std::sort(observations->begin(), observations->end(),
            [](const Observation& a, const Observation& b) {
              return a.lo < b.lo;
            });
  std::vector<std::vector<bool>> matched(observations->size());
  for (size_t i = 0; i < observations->size(); ++i) {
    matched[i].assign((*observations)[i].hashes.size(), false);
  }
  size_t first_open = 0;
  for (size_t epoch = 0; epoch <= appends_applied; ++epoch) {
    for (size_t i = first_open; i < observations->size(); ++i) {
      const Observation& obs = (*observations)[i];
      if (obs.lo > epoch) break;
      if (obs.hi < epoch) continue;
      for (size_t f = 0; f < obs.hashes.size(); ++f) {
        if (!matched[i][f] &&
            reference_hash(obs.batch->panels[f]) == obs.hashes[f]) {
          matched[i][f] = true;
        }
      }
    }
    while (first_open < observations->size() &&
           (*observations)[first_open].hi <= epoch) {
      ++first_open;
    }
    if (epoch == appends_applied) break;
    const AppendRow& append = inputs.appends[epoch];
    (void)(*replica)->db.FindTable(append.table)->Append(append.row);
    for (Memo& m : memo) {
      if (!m.valid) continue;
      bool relevant = m.tables.count(append.table) > 0;
      for (const std::string& token : append.tokens) {
        relevant = relevant || m.tokens.count(token) > 0;
      }
      if (relevant) m.valid = false;
    }
  }
  for (size_t i = 0; i < observations->size(); ++i) {
    const Observation& obs = (*observations)[i];
    for (size_t f = 0; f < obs.hashes.size(); ++f) {
      if (!matched[i][f]) {
        failures->mismatched.fetch_add(1);
        failures->Fail("panel answer matches no epoch in [" +
                       std::to_string(obs.lo) + "," + std::to_string(obs.hi) +
                       "]: " + inputs.pool[obs.batch->panels[f]]);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// session_steer
// ---------------------------------------------------------------------------

enum class StepKind { kAsk, kPinBan, kBind, kNewQuestion };

struct Step {
  StepKind kind = StepKind::kAsk;
  // Constraint change applied before the call.
  enum class Lever { kNone, kPin, kBan, kBind, kUnbind } lever = Lever::kNone;
  std::string table;
  std::string term;
  std::string entry_key;
  std::string query;     // for kAsk / kNewQuestion
  std::string expected;  // cold constrained Search, rendered
  soda::SessionConstraints constraints;  // after the change
};

struct Conversation {
  std::vector<Step> steps;
};

struct SessionInputs {
  std::vector<std::string> questions;
  std::vector<Conversation> conversations;
};

soda::Status PrepareSession(soda::SodaEngine* reference, const Vocab& vocab,
                            Rng* rng, SessionInputs* inputs) {
  for (const std::string& query :
       VariantPool(vocab, kSessionVariantsPerTemplate, rng)) {
    if (reference->Search(query).ok()) inputs->questions.push_back(query);
  }
  if (inputs->questions.empty()) return soda::Status::Internal("no questions");
  auto pick = [&](size_t n) { return static_cast<size_t>((*rng)() % n); };
  for (size_t c = 0; c < kSessionConversations; ++c) {
    Conversation conv;
    soda::SodaSession session(reference);
    std::string question = inputs->questions[pick(inputs->questions.size())];
    soda::SessionConstraints constraints;
    soda::Result<soda::SearchOutput> last = session.Ask(question);
    Step ask;
    ask.kind = StepKind::kAsk;
    ask.query = question;
    conv.steps.push_back(ask);

    size_t refines = 2 + pick(3);
    for (size_t r = 0; r < refines && last.ok(); ++r) {
      Step step;
      bool have_tables =
          !last->results.empty() && !last->results[0].provenance.tables.empty();
      bool have_terms =
          !last->results.empty() && !last->results[0].provenance.terms.empty();
      bool table_lever = have_tables && (!have_terms || pick(2) == 0);
      if (table_lever) {
        const std::vector<std::string>& tables =
            last->results[0].provenance.tables;
        step.kind = StepKind::kPinBan;
        step.table = tables[pick(tables.size())];
        step.lever = pick(2) == 0 ? Step::Lever::kPin : Step::Lever::kBan;
        if (step.lever == Step::Lever::kPin) {
          constraints.PinTable(step.table);
          session.PinTable(step.table);
        } else {
          constraints.BanTable(step.table);
          session.BanTable(step.table);
        }
      } else if (!constraints.bindings.empty() && pick(3) == 0) {
        step.kind = StepKind::kBind;
        step.lever = Step::Lever::kUnbind;
        step.term = constraints.bindings[pick(constraints.bindings.size())].term;
        constraints.Unbind(step.term);
        session.UnbindTerm(step.term);
      } else if (have_terms) {
        const auto& terms = last->results[0].provenance.terms;
        step.term = terms[pick(terms.size())].phrase;
        auto candidates = session.TermCandidates(step.term);
        if (candidates.empty()) continue;
        step.kind = StepKind::kBind;
        step.lever = Step::Lever::kBind;
        step.entry_key = candidates[pick(candidates.size())].first;
        constraints.Bind(step.term, step.entry_key);
        session.BindTerm(step.term, step.entry_key);
      } else {
        continue;
      }
      last = session.Refine();
      step.constraints = constraints;
      conv.steps.push_back(step);
    }
    Step change;
    change.kind = StepKind::kNewQuestion;
    change.query = inputs->questions[pick(inputs->questions.size())];
    change.constraints = constraints;
    conv.steps.push_back(change);

    // Expected answers: cold constrained searches, never the session's
    // own resumed plans.
    std::string current = question;
    for (Step& step : conv.steps) {
      if (!step.query.empty()) current = step.query;
      soda::Result<soda::SearchOutput> cold =
          reference->Search(current, step.constraints);
      if (!cold.ok()) {
        conv.steps.clear();
        break;
      }
      step.expected = RenderOne(current, cold);
    }
    if (!conv.steps.empty()) inputs->conversations.push_back(std::move(conv));
  }
  return soda::Status::OK();
}

PhaseResult RunSession(Stack* stack, const SessionInputs& inputs,
                       double warmup_s, double measure_s, size_t* cursor,
                       Failures* failures, SpanLog* spans) {
  PhaseResult phase;
  std::atomic<size_t> next{*cursor};
  std::atomic<uint64_t> request{0};
  Clock::time_point start = Clock::now();
  Clock::time_point measure_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup_s));
  Clock::time_point end =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(measure_s));
  std::vector<Samples> lanes(kSessionUsers);
  const double cpu_start = ProcessCpuSeconds();
  std::vector<std::thread> users;
  for (size_t u = 0; u < kSessionUsers; ++u) {
    users.emplace_back([&, u] {
      Samples& lane = lanes[u];
      while (Clock::now() < end) {
        const Conversation& conv =
            inputs.conversations[next.fetch_add(1) %
                                 inputs.conversations.size()];
        soda::SodaSession session(stack->engine.get());
        std::string current;
        for (const Step& step : conv.steps) {
          switch (step.lever) {
            case Step::Lever::kPin:
              session.PinTable(step.table);
              break;
            case Step::Lever::kBan:
              session.BanTable(step.table);
              break;
            case Step::Lever::kBind:
              session.BindTerm(step.term, step.entry_key);
              break;
            case Step::Lever::kUnbind:
              session.UnbindTerm(step.term);
              break;
            case Step::Lever::kNone:
              break;
          }
          if (!step.query.empty()) current = step.query;
          Clock::time_point t0 = Clock::now();
          bool measured = t0 >= measure_from && t0 < end;
          if (measured) {
            lane.queue_depth.push_back(
                static_cast<double>(stack->engine->queue_depth()));
          }
          ScopedSpan op(spans, "op.session", 0, request.fetch_add(1) + 1);
          soda::Result<soda::SearchOutput> output =
              step.kind == StepKind::kAsk ? session.Ask(step.query)
              : step.kind == StepKind::kNewQuestion
                  ? session.Refine(step.query)
                  : session.Refine();
          Clock::time_point t1 = Clock::now();
          op.End();
          failures->attempted.fetch_add(1);
          if (!output.ok()) {
            failures->Fail("session call failed: " + output.status().ToString());
            continue;
          }
          if (RenderOne(current, output) != step.expected) {
            failures->mismatched.fetch_add(1);
            failures->Fail("refine differs from cold constrained search: " +
                           current);
            continue;
          }
          if (!measured) continue;
          double ms = MsBetween(t0, t1);
          lane.at_s.push_back(MsBetween(measure_from, t0) / 1000.0);
          lane.latency_ms.push_back(ms);
          lane.sql_ms.push_back(ms);
          lane.last_end = t1;
          if (step.kind == StepKind::kAsk) continue;
          ++lane.refines;
          lane.stages_skipped += static_cast<double>(output->stages_skipped);
          (step.kind == StepKind::kPinBan ? lane.refine_pinban_ms
           : step.kind == StepKind::kBind ? lane.refine_bind_ms
                                          : lane.refine_new_ms)
              .push_back(ms);
        }
      }
    });
  }
  for (std::thread& user : users) user.join();
  phase.cpu_s = ProcessCpuSeconds() - cpu_start;
  phase.ops = request.load();
  for (const Samples& lane : lanes) phase.samples.Merge(lane);
  phase.measured_s = MsBetween(measure_from, phase.samples.last_end) / 1000.0;
  *cursor = next.load();
  return phase;
}

/// Quiet write burst for the closed-loop workloads: the same
/// delta + invalidation path as dashboard_fresh, without reads beside it.
std::vector<double> AppendBurst(Stack* stack, const std::vector<AppendRow>& rows,
                                Failures* failures) {
  std::vector<double> ms;
  for (const AppendRow& append : rows) {
    soda::Table* table = stack->warehouse->db.FindTable(append.table);
    Clock::time_point t0 = Clock::now();
    soda::Status status = table->Append(append.row);
    ms.push_back(MsBetween(t0, Clock::now()));
    failures->attempted.fetch_add(1);
    if (!status.ok()) failures->Fail("append failed: " + status.ToString());
  }
  return ms;
}

// ---------------------------------------------------------------------------
// Layer replay (traced run).
// ---------------------------------------------------------------------------

struct ReplayTotals {
  std::map<std::string, double> stage_ms;  // summed over queries
  size_t queries = 0;
  double states = 0.0;
  double results = 0.0;
  double exec_ms = 0.0;
  size_t statements = 0;
  double rows_kept = 0.0;
  double rows_full = 0.0;
  std::vector<double> parse_us;
  std::vector<double> render_us;
  size_t ops = 0;
};

/// Runs one query through each stage's own entry point, then (when the
/// deployment executes snippets) the executor on each limited statement.
soda::Result<soda::SearchOutput> ReplayQuery(
    const soda::Soda& soda, const std::string& query,
    const soda::SessionConstraints* constraints, bool execute, SpanLog* spans,
    uint64_t parent, uint64_t request, ReplayTotals* totals) {
  soda::QueryContext ctx(query);
  ctx.config = &soda.config();
  if (constraints != nullptr && !constraints->empty()) {
    ctx.constraints = constraints;
  }
  const auto& stages = soda.stages();
  for (const soda::PipelineStage* stage : stages) {
    if (stage->per_interpretation()) continue;
    std::string name = "stage." + std::string(stage->name());
    ScopedSpan span(spans, name, parent, request);
    Clock::time_point t0 = Clock::now();
    soda::Status status = stage->Run(&ctx);
    totals->stage_ms[name] += MsBetween(t0, Clock::now());
    if (!status.ok()) return status;
  }
  for (soda::InterpretationState& state : ctx.states) {
    for (const soda::PipelineStage* stage : stages) {
      if (!stage->per_interpretation() || state.dropped) continue;
      std::string name = "stage." + std::string(stage->name());
      ScopedSpan span(spans, name, parent, request);
      Clock::time_point t0 = Clock::now();
      soda::Status status = stage->RunOne(ctx, &state);
      totals->stage_ms[name] += MsBetween(t0, Clock::now());
      if (!status.ok()) state.dropped = true;
    }
  }
  ++totals->queries;
  totals->states += static_cast<double>(ctx.states.size());
  soda::SearchOutput output = soda::FinalizeOutput(std::move(ctx));
  totals->results += static_cast<double>(output.results.size());
  if (!execute) return output;
  for (soda::SodaResult& result : output.results) {
    soda::SelectStatement limited = result.statement;
    if (!limited.limit.has_value() ||
        *limited.limit > static_cast<int64_t>(soda.config().snippet_rows)) {
      limited.limit = static_cast<int64_t>(soda.config().snippet_rows);
    }
    ScopedSpan span(spans, "exec.execute", parent, request);
    Clock::time_point t0 = Clock::now();
    soda::Result<soda::ResultSet> rows = soda.executor().Execute(limited);
    totals->exec_ms += MsBetween(t0, Clock::now());
    span.End();
    ++totals->statements;
    result.executed = rows.ok();
    result.execution_status = rows.status();
    if (!rows.ok()) continue;
    result.snippet = std::move(*rows);
    totals->rows_kept += static_cast<double>(result.snippet.rows.size());
    // Off the request path: what a limit-aware executor could skip.
    ScopedSpan full_span(spans, "exec.unlimited", parent, request);
    soda::SelectStatement full = result.statement;
    full.limit.reset();
    soda::Result<soda::ResultSet> all = soda.executor().Execute(full);
    if (all.ok()) totals->rows_full += static_cast<double>(all->rows.size());
  }
  return output;
}

double ParseUs(const std::string& request) {
  soda::HttpRequestParser parser(soda::HttpRequestParser::Limits{});
  Clock::time_point t0 = Clock::now();
  parser.Feed(request);
  return MsBetween(t0, Clock::now()) * 1000.0;
}

/// One replayed HTTP operation: parse -> route -> stages -> exec ->
/// render, every call under its own span below an "op.replay" root.
void ReplayHttpOp(const soda::Soda& soda, const std::string& request,
                  const std::vector<std::string>& queries, bool stream,
                  SpanLog* spans, uint64_t id, ReplayTotals* totals) {
  ScopedSpan root(spans, "op.replay", 0, id);
  {
    ScopedSpan span(spans, "net.parse", root.id(), id);
    totals->parse_us.push_back(ParseUs(request));
  }
  std::vector<soda::Result<soda::SearchOutput>> outputs;
  for (const std::string& query : queries) {
    {
      ScopedSpan span(spans, "router.route", root.id(), id);
      (void)soda::ShardOfKey(soda::NormalizedQueryKey(query), kShards);
    }
    outputs.push_back(ReplayQuery(soda, query, nullptr, true, spans,
                                  root.id(), id, totals));
  }
  ScopedSpan span(spans, "net.render", root.id(), id);
  Clock::time_point t0 = Clock::now();
  std::string body = soda::RenderSearchResponseJson(queries, outputs);
  if (stream) {
    for (size_t q = 0; q < outputs.size(); ++q) {
      if (!outputs[q].ok()) continue;
      for (size_t r = 0; r < outputs[q]->results.size(); ++r) {
        body += soda::RenderSnippetEventJson(q, r, outputs[q]->results[r]);
      }
    }
  }
  totals->render_us.push_back(MsBetween(t0, Clock::now()) * 1000.0);
  ++totals->ops;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    soda::AppendJsonQuoted(&out, metrics[i].name);
    double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), ":{\"value\":%.17g,\"unit\":", value);
    out += buf;
    soda::AppendJsonQuoted(&out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = true;
      if (value == "analyst_cold") {
        options->kind = Kind::kAnalyst;
      } else if (value == "dashboard_fresh") {
        options->kind = Kind::kDashboard;
      } else if (value == "session_steer") {
        options->kind = Kind::kSession;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && options->seconds > 0.0 && argc % 2 == 1;
}

int Run(const Options& options) {
  const Kind kind = options.kind;
  std::printf("perfbench workload=%s seed=%llu seconds=%.1f trace=%d\n",
              KindName(kind), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("build: type=%s compiler=%s nproc=%u\n", SODA_BENCH_BUILD_TYPE,
              SODA_BENCH_COMPILER, std::thread::hardware_concurrency());
  Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 0x50DA);
  Failures failures;

  // ---- inputs + references, before any timing ---------------------------
  AnalystInputs analyst;
  DashboardInputs dashboard;
  SessionInputs session;
  std::vector<AppendRow> writes;  // the quiet burst of the closed loops
  {
    auto ref_warehouse = soda::BuildEnterpriseWarehouse();
    if (!ref_warehouse.ok()) {
      std::fprintf(stderr, "warehouse: %s\n",
                   ref_warehouse.status().ToString().c_str());
      return 1;
    }
    Vocab vocab = ExtractVocab((*ref_warehouse)->db);
    auto reference = ReferenceEngine(**ref_warehouse, kind);
    if (!reference.ok()) {
      std::fprintf(stderr, "reference: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    soda::Status prepared =
        kind == Kind::kAnalyst
            ? PrepareAnalyst(**reference, vocab, &rng, &analyst)
        : kind == Kind::kDashboard
            ? PrepareDashboard(**reference, vocab, options.seconds, &rng,
                               &dashboard)
            : PrepareSession(reference->get(), vocab, &rng, &session);
    if (!prepared.ok()) {
      std::fprintf(stderr, "inputs: %s\n", prepared.ToString().c_str());
      return 1;
    }
    if (kind != Kind::kDashboard) {
      writes =
          MakeAppends(vocab, vocab.given_names, vocab.places, kBurstAppends,
                      kFirstAppendId, &rng);
    }
  }
  switch (kind) {
    case Kind::kAnalyst:
      std::printf("inputs: %zu queries (13 paper + variants), %zu ops queued\n",
                  analyst.pool.size(), analyst.sequence.size());
      break;
    case Kind::kDashboard:
      std::printf(
          "inputs: pool %zu panels vs fleet cache capacity %zu, zipf s=%.2f, "
          "%.1f batches/s, %.1f appends/s\n",
          dashboard.pool.size(), kShards * kCacheCapacityPerShard,
          kDashboardZipf, dashboard.batch_rate, dashboard.append_rate);
      break;
    case Kind::kSession:
      std::printf("inputs: %zu questions, %zu conversations\n",
                  session.questions.size(), session.conversations.size());
      break;
  }

  // ---- set-up, repeated; the last stack serves ---------------------------
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    stack.reset();
    SetupTimes times;
    auto built = BuildStack(kind, &times);
    if (!built.ok()) {
      std::fprintf(stderr, "stack: %s\n", built.status().ToString().c_str());
      return 1;
    }
    stack = std::move(built).value();
    setups.push_back(times);
  }
  auto median_of = [&](auto field) {
    std::vector<double> values;
    for (const SetupTimes& s : setups) values.push_back(field(s));
    return Quantile(values, 0.5);
  };

  const soda::CacheStats cache_before = stack->engine->cache_stats();
  const soda::MetricsSnapshot fleet_before = stack->engine->metrics_snapshot();
  const soda::MetricsSnapshot fresh_before =
      stack->freshness->metrics_snapshot();

  // ---- the measured run ---------------------------------------------------
  PhaseResult run;
  std::vector<Observation> observations;
  std::vector<Batch> batches;
  EpochState epochs;
  size_t cursor = 0;
  switch (kind) {
    case Kind::kAnalyst:
      run = RunAnalyst(stack.get(), analyst, kWarmupSeconds, options.seconds,
                       &cursor, &failures, nullptr);
      break;
    case Kind::kDashboard:
      batches = MakeBatches(
          dashboard,
          static_cast<size_t>(dashboard.batch_rate *
                              (kWarmupSeconds + options.seconds)) +
              1,
          &rng);
      run = RunDashboard(stack.get(), dashboard, batches, kWarmupSeconds,
                         options.seconds, &epochs, &observations, &failures,
                         nullptr);
      break;
    case Kind::kSession:
      run = RunSession(stack.get(), session, kWarmupSeconds, options.seconds,
                       &cursor, &failures, nullptr);
      break;
  }
  const soda::CacheStats cache_after = stack->engine->cache_stats();
  const soda::MetricsSnapshot fleet_after = stack->engine->metrics_snapshot();
  const soda::MetricsSnapshot fresh_after =
      stack->freshness->metrics_snapshot();
  // Resident set of the serving process once freed memory is handed
  // back: the footprint of warehouse, indexes and caches. The transient
  // peak of concurrent snippet execution depends on which heavy queries
  // happen to overlap, so it is reported per layer instead.
  const double peak_rss_mb = ProcStatusMb("VmHWM:");
  malloc_trim(0);
  const double rss_mb = ProcStatusMb("VmRSS:");

  // ---- traced second pass (trace mode) ------------------------------------
  SpanLog spans;
  PhaseResult traced;
  std::vector<Batch> traced_batches;
  if (options.trace) {
    switch (kind) {
      case Kind::kAnalyst:
        traced = RunAnalyst(stack.get(), analyst, 0.0, options.seconds,
                            &cursor, &failures, &spans);
        break;
      case Kind::kDashboard:
        traced_batches = MakeBatches(
            dashboard,
            static_cast<size_t>(dashboard.batch_rate * options.seconds) + 1,
            &rng);
        traced = RunDashboard(stack.get(), dashboard, traced_batches, 0.0,
                              options.seconds, &epochs, &observations,
                              &failures, &spans);
        break;
      case Kind::kSession:
        traced = RunSession(stack.get(), session, 0.0, options.seconds,
                            &cursor, &failures, &spans);
        break;
    }
  }

  // ---- writes (closed-loop workloads measure a quiet burst) --------------
  // The write-path layer metrics cover whichever phase did the writes.
  std::vector<double> append_ms = run.append_ms;
  size_t appends_total = run.appends + traced.appends;
  double write_count = static_cast<double>(run.appends);
  soda::CacheStats write_cache_before = cache_before;
  soda::CacheStats write_cache_after = cache_after;
  soda::MetricsSnapshot write_fresh_before = fresh_before;
  soda::MetricsSnapshot write_fresh_after = fresh_after;
  if (kind == Kind::kDashboard) {
    FreshnessSweep(stack.get(), dashboard, &failures);
  } else {
    write_cache_before = stack->engine->cache_stats();
    write_fresh_before = stack->freshness->metrics_snapshot();
    append_ms = AppendBurst(stack.get(), writes, &failures);
    write_cache_after = stack->engine->cache_stats();
    write_fresh_after = stack->freshness->metrics_snapshot();
    write_count = static_cast<double>(writes.size());
  }

  // ---- layer replay (trace mode) -------------------------------------------
  ReplayTotals replay;
  std::vector<Metric> layer;
  if (options.trace) {
    const soda::Soda& soda = stack->engine->shard(0).soda();
    uint64_t id = 1u << 30;
    Clock::time_point replay_end = Clock::now() + std::chrono::seconds(5);
    if (kind == Kind::kAnalyst) {
      for (size_t q = 0; q < analyst.pool.size() && Clock::now() < replay_end;
           ++q) {
        ReplayHttpOp(soda, analyst.requests[q], {analyst.pool[q]}, true,
                     &spans, ++id, &replay);
      }
    } else if (kind == Kind::kDashboard) {
      for (size_t b = 0; b < traced_batches.size() && b < 200 &&
                         Clock::now() < replay_end;
           ++b) {
        std::vector<std::string> queries;
        for (uint32_t panel : traced_batches[b].panels) {
          queries.push_back(dashboard.pool[panel]);
        }
        ReplayHttpOp(soda, traced_batches[b].request, queries, false, &spans,
                     ++id, &replay);
      }
    } else {
      for (size_t c = 0; c < session.conversations.size() &&
                         Clock::now() < replay_end;
           ++c) {
        std::string current;
        for (const Step& step : session.conversations[c].steps) {
          if (!step.query.empty()) current = step.query;
          ScopedSpan root(&spans, "op.replay", 0, ++id);
          {
            ScopedSpan span(&spans, "router.route", root.id(), id);
            (void)soda::ShardOfKey(soda::NormalizedQueryKey(current), kShards);
          }
          auto output = ReplayQuery(soda, current, &step.constraints, false,
                                    &spans, root.id(), id, &replay);
          ScopedSpan span(&spans, "net.render", root.id(), id);
          Clock::time_point t0 = Clock::now();
          (void)RenderOne(current, output);
          replay.render_us.push_back(MsBetween(t0, Clock::now()) * 1000.0);
          ++replay.ops;
        }
      }
    }
  }

  // ---- tear down, then the epoch check over a replica ---------------------
  const size_t index_bytes = [&] {
    size_t bytes = 0;
    for (size_t s = 0; s < stack->engine->num_shards(); ++s) {
      bytes += stack->engine->shard(s).soda().inverted_index()
                   .ApproxMemoryBytes();
    }
    return bytes + stack->engine->shard(0)
                       .soda()
                       .inverted_index()
                       .token_dict()
                       ->ApproxMemoryBytes();
  }();
  std::vector<double> shard_load(kShards, 0.0);
  auto count_route = [&](const std::string& query) {
    shard_load[soda::ShardOfKey(soda::NormalizedQueryKey(query), kShards)] +=
        1.0;
  };
  if (kind == Kind::kAnalyst) {
    for (size_t k = 0; k < cursor; ++k) {
      count_route(analyst.pool[analyst.sequence[k % analyst.sequence.size()]]);
    }
  } else if (kind == Kind::kDashboard) {
    for (const Batch& batch : batches) {
      for (uint32_t panel : batch.panels) count_route(dashboard.pool[panel]);
    }
  } else {
    for (const Conversation& conv : session.conversations) {
      std::string current;
      for (const Step& step : conv.steps) {
        if (!step.query.empty()) current = step.query;
        count_route(current);
      }
    }
  }
  stack.reset();
  if (kind == Kind::kDashboard) {
    VerifyEpochs(dashboard, epochs.done.load(), &observations, &failures);
  }

  // ---- end-to-end metrics ---------------------------------------------------
  const Samples& s = run.samples;
  std::vector<Metric> e2e = {
      {"setup_s", median_of([](const SetupTimes& t) { return t.total(); }),
       "s"},
      {"rss_mb", rss_mb, "MiB"},
      {"cpu_ms_per_op", Ratio(run.cpu_s * 1000.0, static_cast<double>(run.ops)),
       "ms"},
  };
  // Wall-clock latency and throughput as users see them. On a shared box
  // their run-to-run spread follows the neighbours' load, so they are
  // reported with every run but not gated; cpu_ms_per_op is.
  const std::vector<Metric> wall = {
      {"p50_ms", WindowedQuantile(s, s.latency_ms, 0.50, run.measured_s),
       "ms"},
      {"p99_ms", WindowedQuantile(s, s.latency_ms, 0.99, run.measured_s),
       "ms"},
      {"sql_p50_ms", WindowedQuantile(s, s.sql_ms, 0.50, run.measured_s),
       "ms"},
      {"sql_p99_ms", WindowedQuantile(s, s.sql_ms, 0.99, run.measured_s),
       "ms"},
      {"qps", WindowedRate(s, run.measured_s), "1/s"},
  };
  const size_t attempted = failures.attempted.load();
  const size_t failed = failures.failed.load();
  const double error_frac =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));

  // ---- per-layer metrics -----------------------------------------------------
  const double hits =
      static_cast<double>(cache_after.hits - cache_before.hits);
  const double misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  auto counter_delta = [](const soda::MetricsSnapshot& after,
                          const soda::MetricsSnapshot& before,
                          const std::string& name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  double shard_mean = 0.0;
  double shard_max = 0.0;
  for (double load : shard_load) {
    shard_mean += load / static_cast<double>(kShards);
    shard_max = std::max(shard_max, load);
  }
  double stage_total = 0.0;
  for (const auto& [name, ms] : replay.stage_ms) stage_total += ms;
  const double replay_queries = static_cast<double>(replay.queries);
  auto stage_metric = [&](const char* stage) {
    auto it = replay.stage_ms.find(std::string("stage.") + stage);
    return Ratio(it == replay.stage_ms.end() ? 0.0 : it->second,
                 replay_queries);
  };

  layer = wall;
  layer.insert(layer.end(), {
      {"net.overhead_ms", Quantile(s.net_overhead_ms, 0.5), "ms"},
      {"net.parse_us", Quantile(replay.parse_us, 0.5), "us"},
      {"net.render_us", Quantile(replay.render_us, 0.5), "us"},
      {"net.response_kb",
       Ratio(s.response_bytes, static_cast<double>(s.responses)) / 1024.0,
       "KiB"},
      {"router.shard_skew", Ratio(shard_max, shard_mean), "ratio"},
      {"router.retries", counter_delta(fleet_after, fleet_before,
                                       "router.retries"),
       "count"},
      {"router.shard_failures",
       counter_delta(fleet_after, fleet_before, "router.shard_failures"),
       "count"},
      {"cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"cache.hits", hits, "count"},
      {"cache.misses", misses, "count"},
      {"cache.evictions",
       static_cast<double>(cache_after.evictions - cache_before.evictions),
       "count"},
      {"cache.invalidations_per_append",
       Ratio(static_cast<double>(write_cache_after.invalidations -
                                 write_cache_before.invalidations),
             write_count),
       "count"},
      {"engine.queue_depth_p99", Quantile(s.queue_depth, 0.99), "count"},
      {"stage.lookup_ms", stage_metric("lookup"), "ms"},
      {"stage.rank_ms", stage_metric("rank"), "ms"},
      {"stage.tables_ms", stage_metric("tables"), "ms"},
      {"stage.filters_ms", stage_metric("filters"), "ms"},
      {"stage.sql_ms", stage_metric("sql"), "ms"},
      {"pipeline.states", Ratio(replay.states, replay_queries), "count"},
      {"pipeline.results_per_state", Ratio(replay.results, replay.states),
       "ratio"},
      {"exec.stmt_ms",
       Ratio(replay.exec_ms, static_cast<double>(replay.statements)), "ms"},
      {"exec.share", Ratio(replay.exec_ms, replay.exec_ms + stage_total),
       "ratio"},
      {"exec.full_rows_per_kept", Ratio(replay.rows_full, replay.rows_kept),
       "ratio"},
      {"index.bytes", static_cast<double>(index_bytes), "B"},
      {"freshness.keys_invalidated_per_append",
       Ratio(counter_delta(write_fresh_after, write_fresh_before,
                           "freshness.keys_invalidated"),
             write_count),
       "count"},
      {"freshness.append_p50_ms", Quantile(append_ms, 0.50), "ms"},
      {"freshness.append_p95_ms", Quantile(append_ms, 0.95), "ms"},
      {"freshness.delta_postings_per_append",
       Ratio(counter_delta(write_fresh_after, write_fresh_before,
                           "freshness.delta_postings"),
             write_count),
       "count"},
      {"session.stages_skipped_per_refine",
       Ratio(s.stages_skipped, static_cast<double>(s.refines)), "count"},
      {"session.refine_ms.pinban", Quantile(s.refine_pinban_ms, 0.5), "ms"},
      {"session.refine_ms.bind", Quantile(s.refine_bind_ms, 0.5), "ms"},
      {"session.refine_ms.new", Quantile(s.refine_new_ms, 0.5), "ms"},
      {"setup.warehouse_s",
       median_of([](const SetupTimes& t) { return t.warehouse_s; }), "s"},
      {"setup.engine_s",
       median_of([](const SetupTimes& t) { return t.engine_s; }), "s"},
      {"setup.server_s",
       median_of([](const SetupTimes& t) { return t.server_s; }), "s"},
      {"gen.late_p99_ms", Quantile(s.late_ms, 0.99), "ms"},
      {"mem.peak_rss_mb", peak_rss_mb, "MiB"},
      {"error_frac", error_frac, "ratio"},
  });

  if (options.trace) {
    // Self time per layer, per replayed operation.
    std::vector<SpanRecord> records = spans.Snapshot();
    std::map<uint64_t, std::vector<SpanRecord>> by_request;
    for (const SpanRecord& record : records) {
      if (record.request >= (1u << 30)) {
        by_request[record.request].push_back(record);
      }
    }
    const double replay_ops = static_cast<double>(by_request.size());
    const double miss_share = Ratio(misses, hits + misses);
    std::map<std::string, double> self;
    std::vector<double> explained_per_op;
    for (const auto& [request, op_spans] : by_request) {
      double fixed = 0.0;      // work every request pays
      double translate = 0.0;  // work a cache hit skips
      for (const auto& [name, ms] : SelfTimeMsByName(op_spans)) {
        self[name] += ms / replay_ops;
        if (name.rfind("stage.", 0) == 0 || name == "exec.execute") {
          translate += ms;
        } else if (name == "net.parse" || name == "net.render" ||
                   name == "router.route") {
          fixed += ms;
        }
      }
      // Dashboard answers mostly come from the cache: its replayed
      // pipeline work counts at the measured miss share.
      explained_per_op.push_back(
          kind == Kind::kDashboard ? fixed + miss_share * translate
                                   : fixed + translate);
    }
    static const std::vector<std::pair<const char*, const char*>> kLayers = {
        {"net.parse", "self.net_parse_ms"},
        {"router.route", "self.router_ms"},
        {"stage.lookup", "self.stage_lookup_ms"},
        {"stage.rank", "self.stage_rank_ms"},
        {"stage.tables", "self.stage_tables_ms"},
        {"stage.filters", "self.stage_filters_ms"},
        {"stage.sql", "self.stage_sql_ms"},
        {"exec.execute", "self.exec_ms"},
        {"net.render", "self.net_render_ms"},
        {"op.replay", "self.glue_ms"},
    };
    for (const auto& [span_name, metric] : kLayers) {
      layer.push_back({metric, self[span_name], "ms"});
    }
    // Coverage: the median replayed operation's layer self times (plus
    // the socket overhead the replay cannot see) over the untraced p50.
    const double p50 = Quantile(s.latency_ms, 0.5);
    layer.push_back(
        {"trace.coverage",
         Ratio(Quantile(explained_per_op, 0.5) +
                   Quantile(s.net_overhead_ms, 0.5),
               p50),
         "ratio"});
    layer.push_back({"trace.overhead_p50_ms",
                     Quantile(traced.samples.latency_ms, 0.5) - p50, "ms"});
    layer.push_back({"trace.overhead_p99_ms",
                     Quantile(traced.samples.latency_ms, 0.99) -
                         Quantile(s.latency_ms, 0.99),
                     "ms"});
    std::string path =
        options.out_dir + "/trace_" + KindName(kind) + ".json";
    if (spans.WriteChromeTrace(path)) {
      std::printf("span file: %s (%zu spans)\n", path.c_str(), records.size());
    } else {
      failures.Fail("cannot write span file " + path);
    }
  }

  // ---- report ----------------------------------------------------------------
  std::printf("ops measured: %zu over %.2f s in %zu windows; appends timed: "
              "%zu (%zu beside reads)\n",
              s.latency_ms.size(), run.measured_s, WindowCount(s),
              append_ms.size(), appends_total);
  std::printf("latency quantiles (whole run):");
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    std::printf(" p%g=%.3f ms", q * 100, Quantile(s.latency_ms, q));
  }
  std::printf("\n");
  std::printf("attempted=%zu failed=%zu shed=%zu transport=%zu mismatched=%zu\n",
              failures.attempted.load(), failures.failed.load(),
              failures.shed.load(), failures.transport.load(),
              failures.mismatched.load());
  for (const std::string& example : failures.examples) {
    std::printf("FAILURE: %s\n", example.c_str());
  }
  double retries = counter_delta(fleet_after, fleet_before, "router.retries");
  double shard_failures =
      counter_delta(fleet_after, fleet_before, "router.shard_failures");
  if (retries != 0.0 || shard_failures != 0.0) {
    std::printf("FLAG: router retries=%.0f shard_failures=%.0f (expected 0)\n",
                retries, shard_failures);
  }
  for (const Metric& m : e2e) {
    std::printf("e2e   %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : layer) {
    std::printf("layer %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = failures.failed.load() == 0;
  PrintJson(correct, std::max<size_t>(1, failures.attempted.load()),
            failures.failed.load(), options.trace ? layer : e2e);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload analyst_cold|dashboard_fresh|"
                 "session_steer --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(options);
}
