// Regenerates paper Figure 6: the output of the tables step for the
// classification example — seven tables reached from the three entry
// points (parties, individuals, organizations, addresses, and the three
// financial-instrument tables).

#include <chrono>
#include <cstdio>

#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"

namespace {

// Per-op microseconds for TablesStep::Run over `entries`.
double MicrosPerRun(const soda::Soda& engine,
                    const std::vector<soda::EntryPoint>& entries,
                    int iterations) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    auto out = engine.tables_step().Run(entries);
    if (!out.ok()) return -1.0;
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::micro>(elapsed).count() /
         iterations;
}

}  // namespace

int main() {
  auto bank = soda::BuildMiniBank();
  if (!bank.ok()) {
    std::fprintf(stderr, "%s\n", bank.status().ToString().c_str());
    return 1;
  }
  soda::SodaConfig config;
  config.execute_snippets = false;
  auto engine_ptr = soda::Soda::Create(&(*bank)->db, &(*bank)->graph,
                                       soda::CreditSuissePatternLibrary(),
                                       config)
                        .value();
  soda::Soda& engine = *engine_ptr;

  std::printf("Figure 6: Output of Tables Step (join relationships not "
              "shown)\n\n");
  std::printf("Input (graph nodes):\n"
              "  Customers (Domain ontology)\n"
              "  Zürich (Base data)\n"
              "  Financial Instruments (Logical schema)\n\n");

  // Entry points as the lookup step would choose them: the ontology
  // concept for "customers", the logical-schema interpretation for
  // "financial instruments", the base-data hit for "Zürich".
  std::vector<soda::EntryPoint> entries;
  for (const auto& candidate : engine.classification().Lookup("customers")) {
    if (candidate.layer == soda::MetadataLayer::kDomainOntology) {
      entries.push_back(candidate);
      break;
    }
  }
  for (const auto& candidate :
       engine.classification().Lookup("financial instruments")) {
    if (candidate.layer == soda::MetadataLayer::kLogicalSchema) {
      entries.push_back(candidate);
      break;
    }
  }
  for (const auto& candidate : engine.classification().Lookup("Zürich")) {
    if (candidate.kind == soda::EntryPoint::Kind::kBaseData) {
      entries.push_back(candidate);
      break;
    }
  }

  auto tables = engine.tables_step().Run(entries);
  if (!tables.ok()) {
    std::fprintf(stderr, "%s\n", tables.status().ToString().c_str());
    return 1;
  }
  std::printf("Output (tables):\n");
  size_t total = 0;
  for (size_t i = 0; i < tables->tables_per_entry.size(); ++i) {
    std::printf("  from '%s':\n", std::string(entries[i].label).c_str());
    for (soda::TableId table : tables->tables_per_entry[i]) {
      std::printf("    %s\n",
                  engine.join_graph().catalog().name(table).c_str());
      ++total;
    }
  }
  std::printf("\n%zu tables (paper: 7 — parties, individuals, organizations,"
              "\naddresses, financial_instruments, fi_contains_sec, "
              "securities)\n", total);

  // Step 3 cost over the compiled closures (entry-point traversal memo
  // + APSP join paths).
  constexpr int kIterations = 2000;
  std::printf("\nTables step, %d runs: %8.2f us/run\n", kIterations,
              MicrosPerRun(engine, entries, kIterations));
  return 0;
}
