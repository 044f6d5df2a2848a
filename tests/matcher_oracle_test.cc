// Differential oracle for the compiled pattern matcher.
//
// The reference below is the naive matcher: it walks an expanded
// pattern's triples in library order with string-keyed bindings and
// resolves every URI and predicate on each step. The compiled matcher
// reorders triples and emits in its own plan order, so the oracle pins
// the contract callers rely on: uncapped, the same set of distinct
// bindings as the reference; capped, a prefix of the matcher's own
// uncapped run. It checks every library pattern at every node of both
// shipped graphs (MatchAt) and over the whole graph (MatchAll), plus the
// parser fixtures that exercise text literals, distinct constraints and
// references.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "datasets/enterprise.h"
#include "datasets/minibank.h"
#include "graph/metadata_graph.h"
#include "graph/vocab.h"
#include "pattern/library.h"
#include "pattern/matcher.h"
#include "pattern/pattern.h"

namespace soda {
namespace {

// ---------------------------------------------------------------------------
// naive reference: library-order backtracking over string-keyed bindings
// ---------------------------------------------------------------------------

struct RefBinding {
  std::map<std::string, NodeId> nodes;
  std::map<std::string, std::string> texts;

  auto operator<=>(const RefBinding&) const = default;
};

struct RefSearch {
  const MetadataGraph* graph;
  const GraphPattern* pattern;
  size_t max_matches;
  std::vector<RefBinding>* out;
};

// Returns the node a term refers to under `binding`, or kInvalidNode
// when it is an unbound variable; sets *is_unbound.
NodeId ResolveNodeTerm(const PatternTerm& term, const RefBinding& binding,
                       const MetadataGraph& graph, bool* is_unbound) {
  *is_unbound = false;
  if (term.kind == PatternTerm::Kind::kUri) {
    return graph.FindNode(term.name);  // kInvalidNode if the URI is absent
  }
  auto it = binding.nodes.find(term.name);
  if (it != binding.nodes.end()) return it->second;
  *is_unbound = true;
  return kInvalidNode;
}

bool ViolatesDistinct(const GraphPattern& pattern, const RefBinding& binding) {
  for (const auto& [a, b] : pattern.distinct_constraints) {
    auto ia = binding.nodes.find(a);
    auto ib = binding.nodes.find(b);
    if (ia != binding.nodes.end() && ib != binding.nodes.end() &&
        ia->second == ib->second) {
      return true;
    }
  }
  return false;
}

void Solve(RefSearch* ctx, size_t triple_index, RefBinding* binding);

// Tries to bind a node term to `node` and continue; undoes the binding.
void BindNodeAndContinue(RefSearch* ctx, size_t triple_index,
                         RefBinding* binding, const PatternTerm& term,
                         NodeId node) {
  if (term.kind == PatternTerm::Kind::kUri) {
    if (ctx->graph->FindNode(term.name) != node) return;
    Solve(ctx, triple_index + 1, binding);
    return;
  }
  auto it = binding->nodes.find(term.name);
  if (it != binding->nodes.end()) {
    if (it->second != node) return;
    Solve(ctx, triple_index + 1, binding);
    return;
  }
  binding->nodes[term.name] = node;
  if (!ViolatesDistinct(*ctx->pattern, *binding)) {
    Solve(ctx, triple_index + 1, binding);
  }
  binding->nodes.erase(term.name);
}

// Tries to bind a text term to `text` and continue.
void BindTextAndContinue(RefSearch* ctx, size_t triple_index,
                         RefBinding* binding, const PatternTerm& term,
                         const std::string& text) {
  if (term.kind == PatternTerm::Kind::kTextLiteral) {
    if (term.name != text) return;
    Solve(ctx, triple_index + 1, binding);
    return;
  }
  auto it = binding->texts.find(term.name);
  if (it != binding->texts.end()) {
    if (it->second != text) return;
    Solve(ctx, triple_index + 1, binding);
    return;
  }
  binding->texts[term.name] = text;
  Solve(ctx, triple_index + 1, binding);
  binding->texts.erase(term.name);
}

void Solve(RefSearch* ctx, size_t triple_index, RefBinding* binding) {
  if (ctx->out->size() >= ctx->max_matches) return;
  if (triple_index == ctx->pattern->triples.size()) {
    ctx->out->push_back(*binding);
    return;
  }
  const PatternTriple& triple = ctx->pattern->triples[triple_index];
  const MetadataGraph& graph = *ctx->graph;

  auto pred = graph.FindPredicate(triple.predicate);
  if (!pred.has_value()) return;

  bool subject_unbound = false;
  NodeId subject =
      ResolveNodeTerm(triple.subject, *binding, graph, &subject_unbound);
  if (!subject_unbound && subject == kInvalidNode) return;

  if (triple.object.is_text()) {
    if (!subject_unbound) {
      for (const TextEdge& e : graph.TextEdges(subject)) {
        if (e.predicate != *pred) continue;
        BindTextAndContinue(ctx, triple_index, binding, triple.object, e.text);
      }
    } else {
      for (NodeId n = 0; n < static_cast<NodeId>(graph.num_nodes()); ++n) {
        for (const TextEdge& e : graph.TextEdges(n)) {
          if (e.predicate != *pred) continue;
          binding->nodes[triple.subject.name] = n;
          if (!ViolatesDistinct(*ctx->pattern, *binding)) {
            BindTextAndContinue(ctx, triple_index, binding, triple.object,
                                e.text);
          }
          binding->nodes.erase(triple.subject.name);
        }
      }
    }
    return;
  }

  bool object_unbound = false;
  NodeId object =
      ResolveNodeTerm(triple.object, *binding, graph, &object_unbound);
  if (!object_unbound && object == kInvalidNode) return;

  if (!subject_unbound && !object_unbound) {
    for (const Edge& e : graph.OutEdges(subject)) {
      if (e.predicate == *pred && e.target == object) {
        Solve(ctx, triple_index + 1, binding);
        return;
      }
    }
    return;
  }
  if (!subject_unbound) {
    for (const Edge& e : graph.OutEdges(subject)) {
      if (e.predicate != *pred) continue;
      BindNodeAndContinue(ctx, triple_index, binding, triple.object, e.target);
    }
    return;
  }
  if (!object_unbound) {
    for (const Edge& e : graph.InEdges(object)) {
      if (e.predicate != *pred) continue;
      BindNodeAndContinue(ctx, triple_index, binding, triple.subject,
                          e.target);
    }
    return;
  }
  // Both unbound: every (subject, object) pair in subject-id order.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId n = 0; n < static_cast<NodeId>(graph.num_nodes()); ++n) {
    for (const Edge& e : graph.OutEdges(n)) {
      if (e.predicate == *pred) pairs.emplace_back(n, e.target);
    }
  }
  for (const auto& [s, o] : pairs) {
    binding->nodes[triple.subject.name] = s;
    if (!ViolatesDistinct(*ctx->pattern, *binding)) {
      BindNodeAndContinue(ctx, triple_index, binding, triple.object, o);
    }
    binding->nodes.erase(triple.subject.name);
  }
}

std::vector<RefBinding> ReferenceMatch(const MetadataGraph& graph,
                                       const GraphPattern& expanded,
                                       std::optional<NodeId> x,
                                       size_t max_matches) {
  std::vector<RefBinding> out;
  RefBinding binding;
  if (x.has_value()) binding.nodes["x"] = *x;
  RefSearch ctx{&graph, &expanded, max_matches, &out};
  Solve(&ctx, 0, &binding);
  return out;
}

std::vector<RefBinding> ToRef(const std::vector<MatchBinding>& bindings) {
  std::vector<RefBinding> out;
  for (const MatchBinding& b : bindings) {
    RefBinding ref;
    for (size_t i = 0; i < b.vars->nodes.size(); ++i) {
      ref.nodes[b.vars->nodes[i]] = b.nodes[i];
    }
    for (size_t i = 0; i < b.vars->texts.size(); ++i) {
      ref.texts[b.vars->texts[i]] = b.texts[i];
    }
    out.push_back(std::move(ref));
  }
  return out;
}

std::string Describe(const std::vector<RefBinding>& bindings) {
  std::string out = std::to_string(bindings.size()) + " solutions";
  for (size_t i = 0; i < bindings.size() && i < 4; ++i) {
    out += "\n  {";
    for (const auto& [var, node] : bindings[i].nodes) {
      out += " " + var + "=" + std::to_string(node);
    }
    for (const auto& [var, text] : bindings[i].texts) {
      out += " " + var + "=\"" + text + "\"";
    }
    out += " }";
  }
  return out;
}

constexpr size_t kUnbounded = SIZE_MAX;
constexpr size_t kCaps[] = {1, 2, 64};

// Checks one uncapped matcher run against the reference, then the capped
// runs produced by `run(cap)` against that run; `where` names the call.
template <typename RunFn>
void ExpectContract(const std::vector<RefBinding>& reference, RunFn run,
                    const std::string& where, size_t* compared) {
  auto all = run(kUnbounded);
  ASSERT_TRUE(all.ok()) << where << ": " << all.status();
  std::vector<RefBinding> got = ToRef(*all);
  std::set<RefBinding> want_set(reference.begin(), reference.end());
  ASSERT_EQ(std::set<RefBinding>(got.begin(), got.end()), want_set)
      << where << "\n got " << Describe(got) << "\nwant "
      << Describe(reference);
  *compared += got.size();
  for (size_t cap : kCaps) {
    auto capped = run(cap);
    ASSERT_TRUE(capped.ok()) << where << ": " << capped.status();
    std::vector<RefBinding> got_capped = ToRef(*capped);
    std::vector<RefBinding> prefix(got.begin(),
                                   got.begin() + std::min(cap, got.size()));
    ASSERT_EQ(got_capped, prefix)
        << where << " cap " << cap << "\n got " << Describe(got_capped)
        << "\nwant " << Describe(prefix);
    for (const RefBinding& b : got_capped) {
      ASSERT_TRUE(want_set.count(b) > 0) << where << " cap " << cap;
    }
  }
}

// Checks MatchAt at every node, then MatchAll, for every pattern of
// `library`; counts the uncapped solutions compared in `*compared`.
void ExpectSameAsReference(const MetadataGraph& graph,
                           const PatternLibrary& library, size_t* compared) {
  PatternMatcher matcher(&graph, &library);
  for (const std::string& name : library.names()) {
    auto expanded = library.Expand(name);
    EXPECT_TRUE(expanded.ok()) << name << ": " << expanded.status();
    if (!expanded.ok()) continue;
    for (NodeId node = 0; node < static_cast<NodeId>(graph.num_nodes());
         ++node) {
      ExpectContract(
          ReferenceMatch(graph, *expanded, node, kUnbounded),
          [&](size_t cap) { return matcher.MatchAt(name, node, cap); },
          name + " at node " + std::to_string(node) + " (" + graph.uri(node) +
              ")",
          compared);
      if (testing::Test::HasFatalFailure()) return;
    }
    ExpectContract(ReferenceMatch(graph, *expanded, std::nullopt, kUnbounded),
                   [&](size_t cap) { return matcher.MatchAll(name, cap); },
                   name + " MatchAll", compared);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(MatcherOracleTest, MiniBankEveryPatternEveryNode) {
  auto bank = BuildMiniBank();
  ASSERT_TRUE(bank.ok()) << bank.status();
  PatternLibrary library = CreditSuissePatternLibrary();
  size_t compared = 0;
  ExpectSameAsReference((*bank)->graph, library, &compared);
  EXPECT_GT(compared, 0u);
}

TEST(MatcherOracleTest, EnterpriseEveryPatternEveryNode) {
  auto warehouse = BuildEnterpriseWarehouse();
  ASSERT_TRUE(warehouse.ok()) << warehouse.status();
  PatternLibrary library = CreditSuissePatternLibrary();
  size_t compared = 0;
  ExpectSameAsReference((*warehouse)->graph, library, &compared);
  EXPECT_GT(compared, 0u);
}

// The parser fixtures: text literals, bound text variables, distinct
// constraints, references, self-loop triples (one walked by a scan),
// label-first patterns and absent URIs and predicates, on a small graph
// with duplicate edges.
TEST(MatcherOracleTest, ParserFixtures) {
  MetadataGraph graph;
  NodeId type_table =
      graph.GetOrAddNode(vocab::kPhysicalTable, MetadataLayer::kOther);
  NodeId type_column =
      graph.GetOrAddNode(vocab::kPhysicalColumn, MetadataLayer::kOther);
  NodeId type_inh =
      graph.GetOrAddNode(vocab::kInheritanceNode, MetadataLayer::kOther);
  // A table typed after all others: a type node's in-edges and the node
  // ids order it differently.
  NodeId late = *graph.AddNode("table/late", MetadataLayer::kPhysicalSchema);
  auto add_table = [&](const std::string& name) {
    NodeId node =
        *graph.AddNode("table/" + name, MetadataLayer::kPhysicalSchema);
    graph.AddEdge(node, vocab::kType, type_table);
    graph.AddTextEdge(node, vocab::kTablename, name);
    return node;
  };
  auto add_column = [&](NodeId table, const std::string& table_name,
                        const std::string& name) {
    NodeId node = *graph.AddNode("column/" + table_name + "." + name,
                                 MetadataLayer::kPhysicalSchema);
    graph.AddEdge(node, vocab::kType, type_column);
    graph.AddTextEdge(node, vocab::kColumnname, name);
    graph.AddEdge(table, vocab::kColumn, node);
    return node;
  };
  NodeId parties = add_table("parties");
  NodeId individuals = add_table("individuals");
  NodeId organizations = add_table("organizations");
  NodeId parties_id = add_column(parties, "parties", "id");
  NodeId individuals_id = add_column(individuals, "individuals", "id");
  NodeId organizations_id = add_column(organizations, "organizations", "id");
  graph.AddEdge(individuals_id, vocab::kForeignKey, parties_id);
  graph.AddEdge(organizations_id, vocab::kForeignKey, parties_id);
  NodeId inh = *graph.AddNode("inh/parties", MetadataLayer::kPhysicalSchema);
  graph.AddEdge(inh, vocab::kType, type_inh);
  graph.AddEdge(inh, vocab::kInheritanceParent, parties);
  graph.AddEdge(inh, vocab::kInheritanceChild, individuals);
  graph.AddEdge(inh, vocab::kInheritanceChild, organizations);
  // An edge added to an older subject, a self loop, a duplicate edge and
  // a duplicate label.
  graph.AddEdge(parties, "related", organizations);
  graph.AddEdge(organizations, "related", organizations);
  graph.AddEdge(individuals, "related", parties);
  graph.AddEdge(individuals, "related", parties);
  graph.AddTextEdge(organizations, vocab::kTablename, "organizations");
  graph.AddEdge(late, vocab::kType, type_table);
  graph.AddTextEdge(late, vocab::kTablename, "late");
  graph.AddEdge(late, "related", individuals);

  PatternLibrary library = CreditSuissePatternLibrary();
  auto add = [&](const char* name, const char* text) {
    ASSERT_TRUE(library.RegisterText(name, text).ok()) << name;
  };
  add("literal", "( x tablename t:\"parties\" )");
  add("literal_first", "( y tablename t:\"organizations\" ) & ( y related x )");
  add("label_first", "( y columnname t:n ) & ( z tablename t:n )");
  add("same_label", "( x tablename t:n ) & ( x tablename t:n )");
  add("self_loop", "( y related y ) & ( y type physical_table )");
  add("scan_self_loop", "( y related y )");
  add("related_pairs", "( x related y ) & ( y related z ) & ( x distinct z )");
  add("unbound_pairs", "( y related z ) & ( x type physical_table )");
  add("siblings",
      "( y inheritance_child c1 ) & ( y inheritance_child c2 ) &\n"
      "( c1 distinct c2 )");
  add("fk_tables",
      "( c foreign_key p ) & ( t column c ) & ( t matches-table ) &\n"
      "( u column p ) & ( u matches-table ) & ( t distinct u )");
  add("dup_check", "( x related y ) & ( x related y )");
  add("dup_reorder", "( y type physical_table ) & ( x related y )");
  add("no_such_uri", "( x type no_such_type )");
  add("no_such_predicate", "( x no_such_predicate y )");
  add("no_x", "( y type physical_column )");
  size_t compared = 0;
  ExpectSameAsReference(graph, library, &compared);
  EXPECT_GT(compared, 0u);
}

}  // namespace
}  // namespace soda
