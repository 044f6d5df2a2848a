// Regenerates paper Table 5: qualitative comparison of SODA against
// DBExplorer, DISCOVER, BANKS, SQAK and Keymantic across the six query
// types. Two matrices are printed:
//
//   1. the *declared* capability matrix — what each system's publication
//      claims (this must equal the paper's Table 5), and
//   2. the *measured* matrix — what our re-implementations actually
//      achieve on the 13 benchmark queries (a statement counts when it
//      executes and scores P,R > 0 against the gold standard).

#include <cstdio>
#include <map>
#include <set>

#include "bench_util.h"
#include "sql/executor.h"

namespace {

using soda::QueryType;

constexpr QueryType kTypes[] = {
    QueryType::kBaseData,       QueryType::kSchema,
    QueryType::kInheritance,    QueryType::kDomainOntology,
    QueryType::kPredicates,     QueryType::kAggregates};

char TypeTag(QueryType type) {
  switch (type) {
    case QueryType::kBaseData:
      return 'B';
    case QueryType::kSchema:
      return 'S';
    case QueryType::kInheritance:
      return 'I';
    case QueryType::kDomainOntology:
      return 'D';
    case QueryType::kPredicates:
      return 'P';
    case QueryType::kAggregates:
      return 'A';
  }
  return '?';
}

}  // namespace

int main() {
  auto fixture = soda::bench::BuildFixture();
  const auto& workload = soda::EnterpriseWorkload();
  soda::Executor executor(&fixture->warehouse->db);

  // ---- declared matrix -------------------------------------------------
  std::printf("Table 5: Qualitative comparison (declared capabilities —\n"
              "must match the paper).\n\n");
  std::printf("%-16s", "Query type");
  for (const auto& system : fixture->baselines) {
    std::printf(" %-10s", system->name().c_str());
  }
  std::printf(" %-6s\n", "SODA");
  for (QueryType type : kTypes) {
    std::printf("%-16s", soda::QueryTypeName(type));
    for (const auto& system : fixture->baselines) {
      std::printf(" %-10s",
                  soda::SupportLevelSymbol(system->DeclaredSupport(type)));
    }
    std::printf(" %-6s\n", "X");
  }

  // ---- measured matrix -------------------------------------------------
  // For each system and type: does at least one benchmark query of that
  // type get a correct answer (some statement with P,R > 0)?
  std::printf("\nMeasured on the 13 benchmark queries (X = at least one\n"
              "query of the type answered with P,R > 0):\n\n");
  std::printf("%-16s", "Query type");
  for (const auto& system : fixture->baselines) {
    std::printf(" %-10s", system->name().c_str());
  }
  std::printf(" %-6s\n", "SODA");

  // Precompute gold tuple sets.
  std::vector<std::set<std::string>> golds;
  for (const auto& query : workload) {
    std::set<std::string> gold;
    for (const auto& sql : query.gold_sql) {
      auto rs = executor.ExecuteSql(sql);
      if (rs.ok()) {
        for (auto& tuple : soda::AllTuples(*rs)) gold.insert(tuple);
      }
    }
    golds.push_back(std::move(gold));
  }

  // SODA measured results per query (reuse the evaluation harness).
  auto soda_evaluations =
      soda::EvaluateWorkload(*fixture->soda, workload);

  for (QueryType type : kTypes) {
    std::printf("%-16s", soda::QueryTypeName(type));
    for (const auto& system : fixture->baselines) {
      bool any_correct = false;
      for (size_t q = 0; q < workload.size(); ++q) {
        if (workload[q].types.find(TypeTag(type)) == std::string::npos) {
          continue;
        }
        auto answer = system->Translate(workload[q].keywords);
        if (!answer.ok() || !answer->answered) continue;
        for (soda::SelectStatement stmt : answer->statements) {
          if (!soda::ResolveStatement(fixture->warehouse->db, &stmt).ok()) {
            continue;
          }
          auto rs = executor.Execute(stmt);
          if (!rs.ok()) continue;
          auto tuples = soda::ExtractTuples(*rs, workload[q].extractors);
          auto score = soda::ComputePr(tuples, golds[q]);
          if (score.precision > 0.0 && score.recall > 0.0) {
            any_correct = true;
            break;
          }
        }
        if (any_correct) break;
      }
      std::printf(" %-10s", any_correct ? "X" : "NO");
    }
    bool soda_correct = false;
    if (soda_evaluations.ok()) {
      for (size_t q = 0; q < workload.size(); ++q) {
        if (workload[q].types.find(TypeTag(type)) == std::string::npos) {
          continue;
        }
        if ((*soda_evaluations)[q].results_nonzero > 0) soda_correct = true;
      }
    }
    std::printf(" %-6s\n", soda_correct ? "X" : "NO");
  }

  // ---- per-system failure narratives ------------------------------------
  std::printf("\nSample failure reasons on this warehouse:\n");
  for (const auto& system : fixture->baselines) {
    auto answer = system->Translate("Sara");
    if (answer.ok() && !answer->answered) {
      std::printf("  %-10s on 'Sara': %s\n", system->name().c_str(),
                  answer->failure_reason.c_str());
    }
    auto agg = system->Translate("sum(investments) group by (currency)");
    if (agg.ok() && !agg->answered) {
      std::printf("  %-10s on Q10: %s\n", system->name().c_str(),
                  agg->failure_reason.c_str());
    }
  }
  return 0;
}
