// Enterprise-workload identity through the sharded router against the
// serial Soda::Search reference — the heavyweight companion of
// pipeline_closure_test.cc. Kept in its
// own binary (name deliberately outside the sanitizer ctest filter):
// it builds several full enterprise engines, which does not fit the
// sanitizer legs' per-binary timeout; the closure concurrency surface
// runs under TSan/ASan via pipeline_closure_test's minibank sweep.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/sharded_engine.h"
#include "core/soda.h"
#include "datasets/enterprise.h"
#include "eval/workload.h"
#include "pattern/library.h"

namespace soda {
namespace {

std::string Fingerprint(const SearchOutput& output) {
  std::string fp = "complexity=" + std::to_string(output.complexity) + "\n";
  for (const std::string& word : output.ignored_words) {
    fp += "ignored=" + word + "\n";
  }
  for (const SodaResult& result : output.results) {
    fp += result.sql + "\n";
    fp += "score=" + std::to_string(result.score) + "\n";
    fp += "explanation=" + result.explanation + "\n";
    fp += "connected=" + std::to_string(result.fully_connected) + "\n";
    fp += "executed=" + std::to_string(result.executed) + "\n";
    if (result.executed) fp += result.snippet.ToAsciiTable() + "\n";
  }
  return fp;
}

TEST(ClosureEnterpriseTest, ShardedMatchesSerial) {
  auto warehouse = BuildEnterpriseWarehouse().value();
  SodaConfig serial_config;
  serial_config.execute_snippets = false;
  auto baseline = Soda::Create(&warehouse->db, &warehouse->graph,
                               CreditSuissePatternLibrary(), serial_config);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  std::vector<std::string> queries;
  for (const BenchmarkQuery& bench : EnterpriseWorkload()) {
    queries.push_back(bench.keywords);
  }
  for (size_t shards : {1u, 4u}) {
    for (size_t threads : {1u, 4u}) {
      SodaConfig config;
      config.execute_snippets = false;
      config.num_shards = shards;
      config.num_threads = threads;
      auto router = ShardedSodaEngine::Create(&warehouse->db,
                                              &warehouse->graph,
                                              CreditSuissePatternLibrary(),
                                              config);
      ASSERT_TRUE(router.ok()) << router.status();
      auto outputs = (*router)->SearchAll(queries);
      for (size_t q = 0; q < queries.size(); ++q) {
        auto expected = (*baseline)->Search(queries[q]);
        ASSERT_TRUE(expected.ok()) << expected.status();
        ASSERT_TRUE(outputs[q].ok()) << outputs[q].status();
        EXPECT_EQ(Fingerprint(*outputs[q]), Fingerprint(*expected))
            << "shards=" << shards << " threads=" << threads << " query="
            << queries[q];
      }
    }
  }
}

}  // namespace
}  // namespace soda
