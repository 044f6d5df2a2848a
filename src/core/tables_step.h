// Step 3 - Tables: identify tables, joins, inheritance parents, and
// metadata-defined filters/aggregations for one interpretation.
//
// "Starting at every entry point which we discovered in the lookup phase,
//  we recursively follow all the outgoing edges in the metadata graph. At
//  every node we test a set of graph patterns to find tables and joins."
//
// The traversal follows the schema's downward edges (classification,
// implementation, realization, containment, inheritance) up to a depth
// bound and tests the Table / Column / Metadata-Filter patterns at every
// visited node; a table's inheritance parents come precomputed from the
// JoinGraph's Inheritance-Child matches. Join discovery then keeps the
// join conditions on a direct path between the entry-point tables
// (Figure 9) and finally adds bridge-table joins between entry points
// (Section 4.2.1). Tables and joins are the JoinGraph's TableIds and
// EdgeIds, named only by the SQL generator, and only a closure fill (the
// first traversal from a node) runs the pattern matcher.

#ifndef SODA_CORE_TABLES_STEP_H_
#define SODA_CORE_TABLES_STEP_H_

#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/entry_point.h"
#include "core/graph_utils.h"
#include "core/join_graph.h"
#include "pattern/matcher.h"
#include "sql/ast.h"

namespace soda {

class EntryPointClosure;   // core/closure.h — the Step-3 traversal memo
struct TraverseClosure;    // core/closure.h — one memoized traversal
class MetricsSink;         // common/metrics.h

/// A filter harvested from a metadata-filter node ("wealthy customers").
struct DiscoveredFilter {
  PhysicalColumnRef column;
  std::string op;     // textual, as stored in the metadata
  std::string value;  // textual; typed later against the column
};

/// An aggregation harvested from a metadata-aggregation node
/// ("trading volume" -> sum(fi_transactions.amount)).
struct DiscoveredAggregation {
  AggFunc func = AggFunc::kSum;
  PhysicalColumnRef column;
};

/// Step 3 output for one interpretation.
struct TablesOutput {
  /// Tables discovered per entry point (same order as the entry points
  /// handed to Run). This is what paper Figure 6 prints.
  std::vector<std::vector<TableId>> tables_per_entry;

  /// Final FROM list: entry tables first, then connector tables added by
  /// join-path discovery and bridge tables. Deduplicated, ordered.
  std::vector<TableId> tables;

  /// Join conditions to emit (direct paths + inheritance + bridges),
  /// deduplicated, in discovery order.
  std::vector<EdgeId> joins;

  /// The physical column each entry point resolves to, when it does
  /// (schema attributes and base-data hits; entities resolve to none).
  std::vector<std::optional<PhysicalColumnRef>> entry_columns;

  /// Metadata-defined filters/aggregations reached from the entry points.
  std::vector<DiscoveredFilter> filters;
  std::vector<DiscoveredAggregation> aggregations;

  /// False when some entry points could not be connected by any join path
  /// (the generated SQL then contains a cross product).
  bool fully_connected = true;
};

class TablesStep {
 public:
  /// `closure` memoizes the per-node traversal; it must be built over
  /// the same metadata graph as `matcher` and outlive this step.
  TablesStep(const PatternMatcher* matcher, const JoinGraph* join_graph,
             const SodaConfig* config, const EntryPointClosure* closure)
      : matcher_(matcher), join_graph_(join_graph), config_(config),
        closure_(closure) {}

  /// Runs table + join discovery for the given entry points (one per
  /// query term of the interpretation). When `metrics` is set, the
  /// closure layer books its counters there (closure.traverse_hits,
  /// closure.traverse_misses, closure.path_lookups).
  Result<TablesOutput> Run(const std::vector<EntryPoint>& entries,
                           MetricsSink* metrics = nullptr) const;

 private:
  void Traverse(NodeId start, TraverseClosure* out) const;

  /// The memoized traversal: Find, or Traverse + Publish. Returns
  /// nullptr when the node is out of the closure's range (it names no
  /// node of the graph, so it reaches nothing); `hit` reports whether it
  /// was served without traversing.
  const TraverseClosure* ClosureFor(NodeId start, bool* hit) const;

  const PatternMatcher* matcher_;
  const JoinGraph* join_graph_;
  const SodaConfig* config_;
  const EntryPointClosure* closure_;
};

}  // namespace soda

#endif  // SODA_CORE_TABLES_STEP_H_
