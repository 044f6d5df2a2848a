// Allocation budget of one cold query, end to end: SearchAllAsync plus
// the returned stream's Run(), with the result cache off and snippets on,
// over the 13 Table 2 queries of the enterprise warehouse. A counting
// global operator new (defined in this binary only) counts every heap
// allocation while a query is served; the test fails when the average
// per query exceeds the recorded ceiling. The count is deterministic on
// one thread, so a change that copies more than it should shows here
// without timing noise.
//
// ASan and TSan interpose the allocator themselves; under them the
// counting allocator (alloc_counter.h) is left out and the test skips.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "core/engine.h"
#include "datasets/enterprise.h"
#include "eval/workload.h"
#include "pattern/library.h"

namespace soda {
namespace {

// Average heap allocations per query: 484.5 measured (RelWithDebInfo,
// Release and Debug alike; 764.5 before entry points carried ids), plus
// 5%.
constexpr double kAllocationsPerQueryCeiling = 508.7;

TEST(AllocBudgetTest, ColdAsyncQueryStaysWithinBudget) {
  if (!alloc_counter::kAllocationsCounted) {
    GTEST_SKIP() << "the sanitizer interposes the allocator";
  }
  auto warehouse = BuildEnterpriseWarehouse();
  ASSERT_TRUE(warehouse.ok()) << warehouse.status();
  SodaConfig config;
  config.num_threads = 1;
  config.cache_capacity = 0;
  config.execute_snippets = true;
  auto engine = SodaEngine::Create(&(*warehouse)->db, &(*warehouse)->graph,
                                   CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(engine.ok()) << engine.status();

  std::vector<std::string> queries;
  for (const BenchmarkQuery& query : EnterpriseWorkload()) {
    queries.push_back(query.keywords);
  }
  size_t delivered = 0;
  auto serve = [&](const std::string& query) {
    AsyncSearch search = (*engine)->SearchAllAsync(
        std::span<const std::string>(&query, 1),
        [&delivered](size_t, size_t, const SodaResult&) { ++delivered; });
    search.snippets.Run();
  };
  // Warm-up: builds the closure memo and the tables' equality indexes.
  for (const std::string& query : queries) serve(query);

  size_t total = 0;
  for (const std::string& query : queries) {
    const size_t count = alloc_counter::Count([&] { serve(query); });
    std::printf("allocations %6zu  %s\n", count, query.c_str());
    total += count;
  }
  EXPECT_GT(delivered, 0u);
  const double per_query =
      static_cast<double>(total) / static_cast<double>(queries.size());
  std::printf("allocations per query: %.1f (ceiling %.1f)\n", per_query,
              kAllocationsPerQueryCeiling);
  EXPECT_LE(per_query, kAllocationsPerQueryCeiling);
}

}  // namespace
}  // namespace soda
