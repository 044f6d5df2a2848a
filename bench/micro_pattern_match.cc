// Micro benchmarks for the graph-pattern matcher: the per-node pattern
// tests of Step 3 are SODA's inner loop.

#include <benchmark/benchmark.h>

#include "core/soda.h"
#include "datasets/enterprise.h"
#include "pattern/library.h"
#include "pattern/matcher.h"
#include "schema/warehouse_model.h"

namespace {

struct Env {
  std::unique_ptr<soda::EnterpriseWarehouse> warehouse;
  soda::PatternLibrary library = soda::CreditSuissePatternLibrary();
  std::unique_ptr<soda::PatternMatcher> matcher;

  Env() {
    warehouse = std::move(soda::BuildEnterpriseWarehouse()).value();
    matcher = std::make_unique<soda::PatternMatcher>(&warehouse->graph,
                                                     &library);
  }
};

Env* env() {
  static Env* instance = new Env();
  return instance;
}

// The fixture is built lazily on first use (building it during static
// initialization would race the dataset's own static pools). Every
// benchmark reaches it before its timed loop.

void BM_TablePatternAtTableNode(benchmark::State& state) {
  soda::NodeId node = env()->warehouse->graph.FindNode(
      soda::TableUri("indvl_td"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env()->matcher->Matches(soda::patterns::kTable, node));
  }
}
BENCHMARK(BM_TablePatternAtTableNode);

void BM_ColumnPatternAtColumnNode(benchmark::State& state) {
  soda::NodeId node = env()->warehouse->graph.FindNode(
      soda::ColumnUri("indvl_td", "birth_dt"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env()->matcher->Matches(soda::patterns::kColumn, node));
  }
}
BENCHMARK(BM_ColumnPatternAtColumnNode);

void BM_InheritanceChildPattern(benchmark::State& state) {
  soda::NodeId node = env()->warehouse->graph.FindNode(
      soda::TableUri("indvl_td"));
  for (auto _ : state) {
    auto matches =
        env()->matcher->MatchAt(soda::patterns::kInheritanceChild, node);
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_InheritanceChildPattern);

void BM_BridgeTablePatternMatchAll(benchmark::State& state) {
  const soda::PatternMatcher& matcher = *env()->matcher;
  for (auto _ : state) {
    auto matches = matcher.MatchAll(soda::patterns::kBridgeTableJoin,
                                    /*max_matches=*/100000);
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_BridgeTablePatternMatchAll);

// The pattern harvest plus the APSP path-closure precompute.
void BM_JoinGraphBuild(benchmark::State& state) {
  const soda::PatternMatcher& matcher = *env()->matcher;
  for (auto _ : state) {
    soda::JoinGraph graph;
    benchmark::DoNotOptimize(graph.Build(matcher));
  }
}
BENCHMARK(BM_JoinGraphBuild);

// The whole immutable core a SodaEngine builds once per process:
// indexes, pattern matcher, join graph and closures.
void BM_SodaCreateEnterprise(benchmark::State& state) {
  const soda::EnterpriseWarehouse& warehouse = *env()->warehouse;
  for (auto _ : state) {
    auto core = soda::Soda::Create(&warehouse.db, &warehouse.graph,
                                   soda::CreditSuissePatternLibrary(),
                                   soda::SodaConfig());
    benchmark::DoNotOptimize(core);
  }
}
BENCHMARK(BM_SodaCreateEnterprise)->Unit(benchmark::kMillisecond);

}  // namespace
