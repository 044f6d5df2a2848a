// Output digest over the seeded benchmark pool.
//
// The end-to-end benchmark draws its queries from perfbench/inputs.cc:
// the 13 Table 2 queries followed by value variants of them. This test
// compiles that generator as it stands, builds DistinctPool(1500, seed 7)
// over the enterprise warehouse, and hashes each query's rendered answer
// (every result's SQL, explanation, score and LIMITed snippet rows) with
// 64-bit FNV-1a. The digests are pinned in tests/data/pool_digest.txt,
// one line per query, so a diff names the queries that moved.
//
// The pool is answered twice: by one shard with one worker and a cold
// cache, and by four shards with four workers each after a warm-up pass,
// so every answer comes from the result cache. Both must match the
// pinned digests. On a mismatch the test prints the full rendering of
// the first differing query and writes the actual digests to
// pool_digest.actual.txt in the working directory; after checking that
// the new output is intended, copy that file over the pinned one.

#include <gtest/gtest.h>

#include <cinttypes>
#include <fstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/sharded_engine.h"
#include "datasets/enterprise.h"
#include "inputs.h"
#include "pattern/library.h"

namespace soda {
namespace {

// SODA_TEST_DATA_DIR is tests/data, set by CMakeLists.txt.
constexpr char kDigestPath[] = SODA_TEST_DATA_DIR "/pool_digest.txt";
constexpr char kActualPath[] = "pool_digest.actual.txt";
constexpr size_t kPoolSize = 1500;
constexpr uint64_t kPoolSeed = 7;

class PoolGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    warehouse_ = BuildEnterpriseWarehouse().value().release();
    perfbench::Rng rng(kPoolSeed);
    pool_ = new std::vector<std::string>(perfbench::DistinctPool(
        perfbench::ExtractVocab(warehouse_->db), kPoolSize, &rng));
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete warehouse_;
  }

  static std::unique_ptr<ShardedSodaEngine> MakeEngine(size_t shards,
                                                       size_t threads) {
    SodaConfig config;
    config.num_shards = shards;
    config.num_threads = threads;
    config.cache_capacity = kPoolSize;  // per shard: the whole pool fits
    return ShardedSodaEngine::Create(&warehouse_->db, &warehouse_->graph,
                                     CreditSuissePatternLibrary(), config)
        .value();
  }

  // One query's answer as text: what the digest covers.
  static std::string Render(const Result<SearchOutput>& output) {
    if (!output.ok()) return "error: " + output.status().ToString() + "\n";
    std::string out;
    for (size_t i = 0; i < output->results.size(); ++i) {
      const SodaResult& result = output->results[i];
      out += "--- result " + std::to_string(i + 1) + "\n" + result.sql +
             "\n" + result.explanation + "\n" +
             StrFormat("score %.6f\n", result.score);
      if (!result.executed) {
        out += "not executed: " + result.execution_status.ToString() + "\n";
        continue;
      }
      out += Join(result.snippet.column_names, "\t") + "\n";
      for (const auto& row : result.snippet.rows) {
        std::vector<std::string> cells;
        for (const Value& value : row) cells.push_back(value.ToDisplayString());
        out += Join(cells, "\t") + "\n";
      }
    }
    return out;
  }

  static std::string DigestLine(const std::string& query,
                                const std::string& rendering) {
    return StrFormat("%016" PRIx64 " ", Fnv1a64(rendering)) + query;
  }

  // Compares one run's answers against the pinned digests.
  static void ExpectMatchesPinned(
      const std::vector<Result<SearchOutput>>& outputs, const char* run) {
    ASSERT_EQ(outputs.size(), pool_->size());
    std::ifstream file(kDigestPath);
    ASSERT_TRUE(file.good()) << "cannot read " << kDigestPath;
    std::vector<std::string> pinned;
    for (std::string line; std::getline(file, line);) {
      if (!line.empty() && line[0] != '#') pinned.push_back(line);
    }
    std::string actual;
    size_t first_diff = SIZE_MAX;
    size_t differing = 0;
    for (size_t q = 0; q < pool_->size(); ++q) {
      std::string line = DigestLine((*pool_)[q], Render(outputs[q]));
      actual += line + "\n";
      if (q >= pinned.size() || line != pinned[q]) {
        ++differing;
        if (first_diff == SIZE_MAX) first_diff = q;
      }
    }
    if (differing == 0 && pinned.size() == pool_->size()) return;
    std::ofstream(kActualPath) << actual;
    ASSERT_NE(differing, 0u) << kDigestPath << " has " << pinned.size()
                             << " digests for " << pool_->size()
                             << " queries; actual digests written to "
                             << kActualPath;
    FAIL() << run << ": " << differing << " of " << pool_->size()
           << " answers differ from " << kDigestPath << "; first is query "
           << first_diff + 1 << "\n  want: "
           << (first_diff < pinned.size() ? pinned[first_diff] : "<none>")
           << "\n   got: " << DigestLine((*pool_)[first_diff],
                                          Render(outputs[first_diff]))
           << "\nfull rendering:\n"
           << Render(outputs[first_diff]) << "actual digests written to "
           << kActualPath;
  }

  static EnterpriseWarehouse* warehouse_;
  static std::vector<std::string>* pool_;
};

EnterpriseWarehouse* PoolGoldenTest::warehouse_ = nullptr;
std::vector<std::string>* PoolGoldenTest::pool_ = nullptr;

TEST_F(PoolGoldenTest, OneShardOneThreadColdMatchesPinnedDigests) {
  auto engine = MakeEngine(1, 1);
  std::vector<Result<SearchOutput>> outputs = engine->SearchAll(*pool_);
  for (const auto& output : outputs) {
    if (output.ok()) ASSERT_FALSE(output->from_cache);
  }
  ExpectMatchesPinned(outputs, "1 shard x 1 thread, cold");
}

TEST_F(PoolGoldenTest, FourShardsFourThreadsWarmMatchesPinnedDigests) {
  auto engine = MakeEngine(4, 4);
  engine->SearchAll(*pool_);  // warm-up: fills every shard's cache
  std::vector<Result<SearchOutput>> outputs = engine->SearchAll(*pool_);
  for (const auto& output : outputs) {
    if (output.ok()) ASSERT_TRUE(output->from_cache);
  }
  ExpectMatchesPinned(outputs, "4 shards x 4 threads, warm");
}

}  // namespace
}  // namespace soda
