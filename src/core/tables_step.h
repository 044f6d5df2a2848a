// Step 3 - Tables: identify tables, joins, inheritance parents, and
// metadata-defined filters/aggregations for one interpretation.
//
// "Starting at every entry point which we discovered in the lookup phase,
//  we recursively follow all the outgoing edges in the metadata graph. At
//  every node we test a set of graph patterns to find tables and joins."
//
// The traversal follows the schema's downward edges (classification,
// implementation, realization, containment, inheritance) up to a depth
// bound and tests the Table / Column / Inheritance-Child / Metadata-Filter
// patterns at every visited node. Join discovery then keeps the join
// conditions on a direct path between the entry-point tables (Figure 9)
// and finally adds bridge-table joins between entry points (Section 4.2.1).

#ifndef SODA_CORE_TABLES_STEP_H_
#define SODA_CORE_TABLES_STEP_H_

#include <map>
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
  std::vector<std::vector<std::string>> tables_per_entry;

  /// Final FROM list: entry tables first, then connector tables added by
  /// join-path discovery and bridge tables. Deduplicated, ordered.
  std::vector<std::string> tables;

  /// Join conditions to emit (direct paths + inheritance + bridges).
  std::vector<JoinEdge> joins;

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

  /// The tables reachable from a single metadata node (exposed for the
  /// Figure 6 bench and the schema-explorer example), served from the
  /// closure.
  std::vector<std::string> TablesFromNode(NodeId node) const;

  /// Step 5 keeps statements "reasonable ... considering foreign keys and
  /// inheritance patterns in the schema": when two mutually exclusive
  /// inheritance children would be joined through the same parent row the
  /// statement is unsatisfiable, so an inheritance child is dropped when
  /// (a) a sibling child is also among the tables, (b) no filter, entry
  /// column or aggregation constrains it, and (c) all its joins lead to
  /// one single neighbor (it is a pure leaf). `protected_tables`
  /// (optional, folded names) are treated as constrained no matter what —
  /// the session layer passes its pinned tables so a pin can keep an
  /// otherwise-droppable inheritance child.
  void PruneUnconstrainedSiblings(
      TablesOutput* tables,
      const std::vector<PhysicalColumnRef>& constrained_columns,
      const std::vector<std::string>* protected_tables = nullptr) const;

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
