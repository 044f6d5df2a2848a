// Golden SQL for the paper's Table 2 workload on the enterprise warehouse.
//
// Every result's rendered `sql` and `explanation` for the 13
// EnterpriseWorkload() queries is pinned in tests/data/sql_golden.txt.
// Join paths of equal length are chosen by JoinGraph's edge insertion
// order, which is the pattern matcher's MatchAll order, so a change to
// either shows up here as changed SQL even when precision and recall
// (enterprise_eval_test) do not move. On a mismatch the test prints the
// first differing line and writes the full actual rendering to
// sql_golden.actual.txt in the working directory; after checking that
// the new SQL is intended, copy that file over the golden one.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/soda.h"
#include "datasets/enterprise.h"
#include "eval/workload.h"
#include "pattern/library.h"

namespace soda {
namespace {

// SODA_TEST_DATA_DIR is tests/data, set by CMakeLists.txt.
constexpr char kGoldenPath[] = SODA_TEST_DATA_DIR "/sql_golden.txt";
constexpr char kActualPath[] = "sql_golden.actual.txt";

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Renders every result of every workload query, one block per result.
std::string RenderWorkload(const Soda& soda) {
  std::string out =
      "# Golden SQL and explanations for the Table 2 workload on the\n"
      "# enterprise warehouse; see tests/sql_golden_test.cc.\n";
  for (const BenchmarkQuery& query : EnterpriseWorkload()) {
    out += "=== " + query.id + " " + query.keywords + "\n";
    auto output = soda.Search(query.keywords);
    if (!output.ok()) {
      out += "error: " + output.status().ToString() + "\n";
      continue;
    }
    for (size_t i = 0; i < output->results.size(); ++i) {
      const SodaResult& result = output->results[i];
      out += "--- result " + std::to_string(i + 1) + " sql\n" + result.sql +
             "\n--- result " + std::to_string(i + 1) + " explanation\n" +
             result.explanation + "\n";
    }
  }
  return out;
}

TEST(SqlGoldenTest, EnterpriseWorkloadMatchesGolden) {
  auto warehouse = BuildEnterpriseWarehouse();
  ASSERT_TRUE(warehouse.ok()) << warehouse.status();
  SodaConfig config;
  config.execute_snippets = false;
  auto soda = Soda::Create(&(*warehouse)->db, &(*warehouse)->graph,
                           CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(soda.ok()) << soda.status();
  std::string actual = RenderWorkload(**soda);

  std::ifstream golden_file(kGoldenPath);
  ASSERT_TRUE(golden_file.good()) << "cannot read " << kGoldenPath;
  std::stringstream golden;
  golden << golden_file.rdbuf();
  if (actual == golden.str()) return;

  std::ofstream(kActualPath) << actual;
  std::vector<std::string> want = Lines(golden.str());
  std::vector<std::string> got = Lines(actual);
  size_t line = 0;
  while (line < want.size() && line < got.size() && want[line] == got[line]) {
    ++line;
  }
  // The last query header before the difference names the query.
  std::string query = "(none)";
  for (size_t i = 0; i < line && i < want.size(); ++i) {
    if (want[i].rfind("=== ", 0) == 0) query = want[i].substr(4);
  }
  FAIL() << "SQL differs from " << kGoldenPath << " at line " << line + 1
         << ", query " << query << "\n  want: "
         << (line < want.size() ? want[line] : "<end of file>")
         << "\n   got: " << (line < got.size() ? got[line] : "<end of file>")
         << "\nfull output written to " << kActualPath;
}

}  // namespace
}  // namespace soda
