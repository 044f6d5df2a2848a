// Micro benchmarks for the base-data inverted index and the
// classification index (Step 1 building blocks).

#include <benchmark/benchmark.h>

#include "core/classification.h"
#include "datasets/enterprise.h"
#include "text/inverted_index.h"

namespace {

struct Env {
  std::unique_ptr<soda::EnterpriseWarehouse> warehouse;
  soda::InvertedIndex index;
  soda::ClassificationIndex classification;

  Env() {
    warehouse = std::move(soda::BuildEnterpriseWarehouse()).value();
    index.Build(warehouse->db);
    classification.Build(warehouse->graph, &index);
  }
};

Env* env() {
  static Env* instance = new Env();
  return instance;
}

// Note: the fixture is built lazily on first use (building it during
// static initialization would race the dataset's own static pools), so
// the first benchmark's first iteration absorbs the one-time setup cost.

void BM_InvertedIndexBuild(benchmark::State& state) {
  for (auto _ : state) {
    soda::InvertedIndex index;
    index.Build(env()->warehouse->db);
    benchmark::DoNotOptimize(index.num_tokens());
  }
}
BENCHMARK(BM_InvertedIndexBuild);

void BM_PhraseLookupHit(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(env()->index.LookupPhrase("credit suisse"));
  }
}
BENCHMARK(BM_PhraseLookupHit);

void BM_PhraseLookupMiss(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(env()->index.LookupPhrase("nonexistent term"));
  }
}
BENCHMARK(BM_PhraseLookupMiss);

void BM_ClassificationLookup(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env()->classification.Lookup("private customers"));
  }
}
BENCHMARK(BM_ClassificationLookup);

void BM_LongestCombinationSegmentation(benchmark::State& state) {
  std::vector<std::string> words = {"private", "customers", "family",
                                    "name", "zurich"};
  for (auto _ : state) {
    std::vector<std::string> ignored;
    benchmark::DoNotOptimize(
        env()->classification.SegmentKeywords(words, &ignored));
  }
}
BENCHMARK(BM_LongestCombinationSegmentation);

// ---------------------------------------------------------------------------
// Phrase-length × postings-skew sweep over a synthetic corpus with
// controlled token frequencies. Every value is "hot mid<i%97> rare<i>":
// "hot" occurs in all 20k values (dense), each "mid*" in ~206 (medium),
// each "rare*" in exactly one. The sweep shows what rarest-token-first
// intersection buys: a probe containing a rare token costs O(1) postings
// work regardless of how dense its other tokens are, where a first-token
// scan paid O(|postings(token0)|).
// ---------------------------------------------------------------------------

struct SkewEnv {
  soda::Database db;
  soda::InvertedIndex index;

  SkewEnv() {
    soda::Table* t =
        db.CreateTable("synthetic", {{"v", soda::ValueType::kString}})
            .value();
    for (int i = 0; i < 20000; ++i) {
      std::string value = "hot mid" + std::to_string(i % 97) + " rare" +
                          std::to_string(i);
      t->AppendUnchecked({soda::Value::Str(value)});
    }
    index.Build(db);
  }
};

SkewEnv* skew_env() {
  static SkewEnv* instance = new SkewEnv();
  return instance;
}

// range(0): probe phrase length in tokens. range(1): skew of the probe —
// 0 anchors the phrase at the dense end ("hot ..."), 1 includes a rare
// token. Counted, not materialized, so the measurement is pure probe.
void BM_PhraseCountSweep(benchmark::State& state) {
  const int64_t len = state.range(0);
  const bool rare_end = state.range(1) != 0;
  const int i = 1077;  // an arbitrary fixed value of the corpus
  const std::string mid = "mid" + std::to_string(i % 97);
  const std::string rare = "rare" + std::to_string(i);
  std::string phrase;
  if (len == 1) {
    phrase = rare_end ? rare : "hot";
  } else if (len == 2) {
    phrase = rare_end ? mid + " " + rare : "hot " + mid;
  } else {
    phrase = "hot " + mid + " " + rare;
  }
  size_t count = 0;
  for (auto _ : state) {
    count = skew_env()->index.CountPhrase(phrase);
    benchmark::DoNotOptimize(count);
  }
  state.counters["phrase_len"] = static_cast<double>(len);
  state.counters["rare_token"] = rare_end ? 1.0 : 0.0;
  state.counters["matches"] = static_cast<double>(count);
}
BENCHMARK(BM_PhraseCountSweep)->ArgsProduct({{1, 2, 3}, {0, 1}});

// A dense-token phrase that never matches ("hot mid3 hot") over the same
// skew corpus — the adversary for adjacency verification. A miss scans
// the same postings whichever probe runs it, so this uses the count
// probe; the name is kept for the ledger.
void BM_ContainsPhraseMissDense(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(skew_env()->index.CountPhrase("hot mid3 hot"));
  }
}
BENCHMARK(BM_ContainsPhraseMissDense);

// Memory accounting surface: reported once so the bench JSON records the
// packed-representation footprint alongside the probe latencies.
void BM_IndexMemoryFootprint(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(env()->index.ApproxMemoryBytes());
  }
  state.counters["index_bytes"] =
      static_cast<double>(env()->index.ApproxMemoryBytes());
  state.counters["dict_bytes"] =
      static_cast<double>(env()->index.token_dict()->ApproxMemoryBytes());
  state.counters["dict_tokens"] =
      static_cast<double>(env()->index.token_dict()->size());
}
BENCHMARK(BM_IndexMemoryFootprint);

}  // namespace
