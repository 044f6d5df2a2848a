// Compiled entry-point closures for Step 3 - Tables.
//
// The metadata graph is immutable during a search session, so the result
// of the bounded Step-3 traversal from a given node — the tables (as
// TableIds), metadata filters and aggregations reachable from it — "is
// the same for every query" (the same argument src/core/join_graph.h
// makes for join conditions). TablesStep re-runs that traversal per
// entry point, per interpretation, per query; interpretations inside one
// combinatorial product share term candidates, so the same start nodes
// recur constantly. EntryPointClosure memoizes the traversal per NodeId.
//
// Concurrency model: one fixed-size slot per graph node, lazily filled.
// Readers do a single acquire load — lock-free after fill. Writers
// publish with a compare-exchange; losing a race just means the
// duplicate (identical, the graph is immutable) computation is thrown
// away. Each Soda core owns one instance (slots are keyed by NodeId
// only, so it is only valid for that core's graph and pattern library).
// An engine serves every query from its one core, so any query's
// traversals warm the entry points of all later ones.

#ifndef SODA_CORE_CLOSURE_H_
#define SODA_CORE_CLOSURE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "core/tables_step.h"

namespace soda {

/// Everything one Step-3 traversal discovers from a single start node:
/// its tables (first-seen order) and the node's own physical column.
struct TraverseClosure {
  std::vector<TableId> tables;
  std::optional<PhysicalColumnRef> column;
  std::vector<DiscoveredFilter> filters;
  std::vector<DiscoveredAggregation> aggregations;
};

class EntryPointClosure {
 public:
  /// One slot per node of the (immutable) metadata graph.
  explicit EntryPointClosure(size_t num_nodes);
  ~EntryPointClosure();

  EntryPointClosure(const EntryPointClosure&) = delete;
  EntryPointClosure& operator=(const EntryPointClosure&) = delete;

  /// The memoized closure for `node`, or nullptr when not yet filled
  /// (or `node` is out of range). Lock-free.
  const TraverseClosure* Find(NodeId node) const;

  /// Publishes a freshly computed closure for `node` and returns the
  /// canonical pointer: `value` when this thread won the race, the
  /// earlier winner's (identical — the graph is immutable) closure
  /// otherwise. `node` must be in range (callers gate on num_nodes()).
  const TraverseClosure* Publish(NodeId node,
                                 std::unique_ptr<TraverseClosure> value) const;

  size_t num_nodes() const { return slots_.size(); }

  /// Filled slots (for tests and capacity sizing).
  size_t filled() const;

 private:
  // Raw pointers + CAS instead of atomic<shared_ptr> (lock-based in
  // libstdc++): slots are write-once, freed in the destructor.
  mutable std::vector<std::atomic<const TraverseClosure*>> slots_;
};

}  // namespace soda

#endif  // SODA_CORE_CLOSURE_H_
