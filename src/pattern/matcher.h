// Compiled graph-pattern matcher.
//
// "To match a pattern on a given graph, we assign the variable x to the
//  current node and try to match each triple in the pattern to the graph
//  accordingly." (paper Section 4.2.1)
//
// Each library-expanded pattern (references inlined) is compiled once per
// matcher into two plans: one with `x` pre-bound (MatchAt) and one with
// nothing bound (MatchAll). A plan is a fixed sequence of steps:
//
//   - Dense slots. Node and text variables are numbered, so a partial
//     binding is two small arrays rather than string-keyed maps.
//   - Resolved ids. URI terms and predicates are resolved to NodeId /
//     UriId at compile time. A URI or predicate absent from the graph
//     makes the plan "never matches". Nodes and edges added after the
//     first match are seen; a URI that first appears later is not.
//   - Most-bound-first order. The next step is the remaining triple with
//     the best-bound ends: both ends bound (an existence check, or a label
//     compared), then one end bound by a variable (walk that node's
//     edges), then one end bound only by a URI (walk a type node's
//     in-edges: hubs, so late), then nothing bound (walk every node's
//     out-edges or labels, in node-id order). Ties keep library order.
//   - Distinct constraints are slot pairs, checked by the step that binds
//     the later of the two.
//
// Solution-order contract: plan order; a cap keeps a prefix of it. Each
// enumerating step walks its edge list in insertion order, so solutions
// come out in the lexicographic order of the edges the plan's steps
// pick, and a binding repeats once per combination of duplicate edges
// those steps enumerate (an edge check between two bound nodes counts
// once). MatchAt, Matches and MatchAll run the same way. JoinGraph::Build
// keeps MatchAll's order as its edge insertion order, which breaks ties
// between equal-length join paths; tests/sql_golden_test.cc pins the SQL
// that follows from it. tests/matcher_oracle_test.cc keeps the naive
// library-order walk as a reference: uncapped, the distinct bindings
// equal its set; capped, the result is a prefix of the uncapped run.

#ifndef SODA_PATTERN_MATCHER_H_
#define SODA_PATTERN_MATCHER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/metadata_graph.h"
#include "pattern/library.h"
#include "pattern/pattern.h"

namespace soda {

/// Variable names of a compiled plan, indexed by slot.
struct MatchVars {
  std::vector<std::string> nodes;
  std::vector<std::string> texts;
};

/// One solution: node and text bindings by slot.
struct MatchBinding {
  std::shared_ptr<const MatchVars> vars;
  std::vector<NodeId> nodes;       // parallel to vars->nodes
  std::vector<std::string> texts;  // parallel to vars->texts

  /// The node bound to `var`, or kInvalidNode.
  NodeId node(std::string_view var) const;
  /// The text bound to `var`, or empty.
  std::string text(std::string_view var) const;
};

struct CompiledPattern;  // defined in matcher.cc

class PatternMatcher {
 public:
  PatternMatcher(const MetadataGraph* graph, const PatternLibrary* library);
  ~PatternMatcher();

  /// Matches the named pattern with `x` pre-bound to `node`. Returns all
  /// bindings, capped at `max_matches`; none for kInvalidNode.
  Result<std::vector<MatchBinding>> MatchAt(const std::string& pattern_name,
                                            NodeId node,
                                            size_t max_matches = 64) const;

  /// True when the pattern matches at `node` at least once. Unknown
  /// patterns return false.
  bool Matches(const std::string& pattern_name, NodeId node) const;

  /// Matches without pre-binding x — enumerates over the whole graph.
  Result<std::vector<MatchBinding>> MatchAll(const std::string& pattern_name,
                                             size_t max_matches = 4096) const;

  const MetadataGraph* graph() const { return graph_; }
  const PatternLibrary* library() const { return library_; }

 private:
  Result<const CompiledPattern*> Compile(const std::string& name) const;

  const MetadataGraph* graph_;
  const PatternLibrary* library_;
  /// Guards the plan cache: MatchAt/MatchAll are const and called
  /// concurrently by the SodaEngine worker pool. Plans are never erased,
  /// so returned pointers stay valid after the lock is released.
  mutable std::mutex plans_mu_;
  mutable std::map<std::string, std::unique_ptr<const CompiledPattern>>
      plans_;
};

}  // namespace soda

#endif  // SODA_PATTERN_MATCHER_H_
