#include "pattern/matcher.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

namespace soda {

NodeId MatchBinding::node(std::string_view var) const {
  if (vars == nullptr) return kInvalidNode;
  for (size_t i = 0; i < vars->nodes.size(); ++i) {
    if (vars->nodes[i] == var) return nodes[i];
  }
  return kInvalidNode;
}

std::string MatchBinding::text(std::string_view var) const {
  if (vars == nullptr) return std::string();
  for (size_t i = 0; i < vars->texts.size(); ++i) {
    if (vars->texts[i] == var) return texts[i];
  }
  return std::string();
}

namespace {

// One pattern compiled for one binding shape.
struct Plan {
  enum class Mode : uint8_t {
    kCheck,     // both ends bound: the edge exists (counted once)
    kOut,       // subject bound: walk its out-edges, bind the object
    kIn,        // object bound: walk its in-edges, bind the subject
    kScan,      // neither bound: walk every node's out-edges
    kText,      // text object, subject bound: walk the subject's labels
    kTextScan,  // text object, subject unbound: walk every node's labels
  };

  struct Step {
    size_t triple = 0;  // index in the expanded pattern
    Mode mode = Mode::kCheck;
    UriId predicate = 0;
    // Node ends: a slot, or (slot -1) a URI resolved to `*_node`.
    int subject_slot = -1;
    NodeId subject_node = kInvalidNode;
    int object_slot = -1;
    NodeId object_node = kInvalidNode;
    // Text end: a slot (bound here when `binds_text`), or (slot -1) the
    // literal `text`.
    int text_slot = -1;
    bool binds_text = false;
    std::string text;
    // Distinct slot pairs whose later slot this step binds.
    std::vector<std::pair<int, int>> distinct;
  };

  std::shared_ptr<const MatchVars> vars;
  std::vector<Step> steps;  // most-bound-first
  bool never = false;  // a URI or predicate is absent from the graph
};

using Mode = Plan::Mode;

int SlotOf(const std::vector<std::string>& names, const std::string& name) {
  auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

int AddSlot(std::vector<std::string>* names, const std::string& name) {
  int slot = SlotOf(*names, name);
  if (slot >= 0) return slot;
  names->push_back(name);
  return static_cast<int>(names->size()) - 1;
}

// Compiles `pattern` with x pre-bound (slot 0) or with nothing bound, in
// most-bound-first order.
Plan CompilePlan(const GraphPattern& pattern, const MetadataGraph& graph,
                 bool x_bound) {
  Plan plan;
  auto vars = std::make_shared<MatchVars>();
  if (x_bound) vars->nodes.push_back("x");
  for (const PatternTriple& t : pattern.triples) {
    if (t.subject.kind == PatternTerm::Kind::kVariable) {
      AddSlot(&vars->nodes, t.subject.name);
    }
    if (t.object.kind == PatternTerm::Kind::kVariable) {
      AddSlot(&vars->nodes, t.object.name);
    } else if (t.object.kind == PatternTerm::Kind::kTextVariable) {
      AddSlot(&vars->texts, t.object.name);
    }
  }
  plan.vars = vars;

  std::vector<bool> node_bound(vars->nodes.size(), false);
  std::vector<bool> text_bound(vars->texts.size(), false);
  if (x_bound) node_bound[0] = true;

  // 0 unbound, 1 a URI, 2 a bound variable.
  auto end_score = [&](const PatternTerm& term) {
    if (term.kind == PatternTerm::Kind::kUri) return 1;
    return node_bound[SlotOf(vars->nodes, term.name)] ? 2 : 0;
  };
  // 3 both ends bound, 2 one end bound by a variable, 1 only by a URI,
  // 0 nothing bound. A label walk needs its subject bound.
  auto score = [&](const PatternTriple& t) {
    int s = end_score(t.subject);
    if (t.object.is_text()) {
      if (s == 0) return 0;
      bool text_fixed = t.object.kind == PatternTerm::Kind::kTextLiteral ||
                        text_bound[SlotOf(vars->texts, t.object.name)];
      return text_fixed ? 3 : s;
    }
    int o = end_score(t.object);
    return s > 0 && o > 0 ? 3 : std::max(s, o);
  };

  std::vector<std::pair<int, int>> distinct;
  for (const auto& [a, b] : pattern.distinct_constraints) {
    int sa = SlotOf(vars->nodes, a);
    int sb = SlotOf(vars->nodes, b);
    if (sa >= 0 && sb >= 0) distinct.emplace_back(sa, sb);
  }

  std::vector<const PatternTriple*> remaining;
  for (const PatternTriple& t : pattern.triples) remaining.push_back(&t);
  while (!remaining.empty()) {
    auto best = remaining.begin();
    int best_score = score(**best);
    for (auto it = remaining.begin() + 1; it != remaining.end(); ++it) {
      int s = score(**it);
      if (s > best_score) best = it, best_score = s;
    }
    const PatternTriple& t = **best;
    remaining.erase(best);

    Plan::Step step;
    step.triple = &t - pattern.triples.data();
    std::optional<UriId> pred = graph.FindPredicate(t.predicate);
    if (pred.has_value()) step.predicate = *pred;
    plan.never |= !pred.has_value();

    // Resolves a node end; returns whether it was bound before this step.
    auto node_end = [&](const PatternTerm& term, int* slot, NodeId* node) {
      if (term.kind == PatternTerm::Kind::kUri) {
        *node = graph.FindNode(term.name);
        plan.never |= *node == kInvalidNode;
        return true;
      }
      *slot = SlotOf(vars->nodes, term.name);
      return static_cast<bool>(node_bound[*slot]);
    };
    bool s_bound = node_end(t.subject, &step.subject_slot, &step.subject_node);
    if (t.object.is_text()) {
      step.mode = s_bound ? Mode::kText : Mode::kTextScan;
      if (t.object.kind == PatternTerm::Kind::kTextLiteral) {
        step.text = t.object.name;
      } else {
        step.text_slot = SlotOf(vars->texts, t.object.name);
        step.binds_text = !text_bound[step.text_slot];
        text_bound[step.text_slot] = true;
      }
    } else {
      bool o_bound = node_end(t.object, &step.object_slot, &step.object_node);
      step.mode = s_bound && o_bound ? Mode::kCheck
                  : s_bound          ? Mode::kOut
                  : o_bound          ? Mode::kIn
                                     : Mode::kScan;
      if (step.object_slot >= 0) node_bound[step.object_slot] = true;
    }
    if (step.subject_slot >= 0) node_bound[step.subject_slot] = true;

    for (auto it = distinct.begin(); it != distinct.end();) {
      if (node_bound[it->first] && node_bound[it->second]) {
        step.distinct.push_back(*it);
        it = distinct.erase(it);
      } else {
        ++it;
      }
    }
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

// Backtracking walk of one plan. Slots hold the partial binding; texts
// point into the graph's labels until a solution is copied out.
class Search {
 public:
  Search(const MetadataGraph& graph, const Plan& plan, size_t max_matches,
         std::vector<MatchBinding>* out)
      : graph_(graph),
        plan_(plan),
        max_matches_(max_matches),
        out_(out),
        nodes_(plan.vars->nodes.size(), kInvalidNode),
        texts_(plan.vars->texts.size(), nullptr) {}

  void BindX(NodeId x) { nodes_[0] = x; }

  void Next(size_t i) {
    if (out_->size() >= max_matches_) return;
    if (i == plan_.steps.size()) {
      Emit();
      return;
    }
    const Plan::Step& step = plan_.steps[i];
    switch (step.mode) {
      case Mode::kCheck: {
        NodeId from = Node(step.subject_slot, step.subject_node);
        NodeId to = Node(step.object_slot, step.object_node);
        for (const Edge& e : graph_.OutEdges(from)) {
          if (e.predicate == step.predicate && e.target == to) {
            Continue(i);
            return;
          }
        }
        return;
      }
      case Mode::kOut:
        for (const Edge& e :
             graph_.OutEdges(Node(step.subject_slot, step.subject_node))) {
          if (e.predicate != step.predicate) continue;
          nodes_[step.object_slot] = e.target;
          Continue(i);
        }
        return;
      case Mode::kIn:
        for (const Edge& e :
             graph_.InEdges(Node(step.object_slot, step.object_node))) {
          if (e.predicate != step.predicate) continue;
          nodes_[step.subject_slot] = e.target;
          Continue(i);
        }
        return;
      case Mode::kScan:
        for (NodeId n = 0; n < static_cast<NodeId>(graph_.num_nodes()); ++n) {
          for (const Edge& e : graph_.OutEdges(n)) {
            if (e.predicate != step.predicate) continue;
            // `( y p y )`: the object is the subject just bound.
            if (step.object_slot == step.subject_slot && e.target != n) {
              continue;
            }
            nodes_[step.subject_slot] = n;
            nodes_[step.object_slot] = e.target;
            Continue(i);
          }
        }
        return;
      case Mode::kText:
        for (const TextEdge& e :
             graph_.TextEdges(Node(step.subject_slot, step.subject_node))) {
          if (e.predicate == step.predicate) MatchText(i, e.text);
        }
        return;
      case Mode::kTextScan:
        for (NodeId n = 0; n < static_cast<NodeId>(graph_.num_nodes()); ++n) {
          for (const TextEdge& e : graph_.TextEdges(n)) {
            if (e.predicate != step.predicate) continue;
            nodes_[step.subject_slot] = n;
            MatchText(i, e.text);
          }
        }
        return;
    }
  }

 private:
  NodeId Node(int slot, NodeId fixed) const {
    return slot >= 0 ? nodes_[slot] : fixed;
  }

  void MatchText(size_t i, const std::string& text) {
    const Plan::Step& step = plan_.steps[i];
    if (step.binds_text) {
      texts_[step.text_slot] = &text;
    } else if (text != (step.text_slot >= 0 ? *texts_[step.text_slot]
                                            : step.text)) {
      return;
    }
    Continue(i);
  }

  // Checks the step's distinct pairs and moves on to the next step.
  void Continue(size_t i) {
    for (const auto& [a, b] : plan_.steps[i].distinct) {
      if (nodes_[a] == nodes_[b]) return;
    }
    Next(i + 1);
  }

  void Emit() {
    MatchBinding binding;
    binding.vars = plan_.vars;
    binding.nodes = nodes_;
    binding.texts.reserve(texts_.size());
    for (const std::string* text : texts_) binding.texts.push_back(*text);
    out_->push_back(std::move(binding));
  }

  const MetadataGraph& graph_;
  const Plan& plan_;
  size_t max_matches_;
  std::vector<MatchBinding>* out_;
  std::vector<NodeId> nodes_;
  std::vector<const std::string*> texts_;
};

// Runs `plan` with x bound to `x` (kInvalidNode: nothing bound) and
// returns its first `max_matches` solutions in plan order.
std::vector<MatchBinding> Run(const MetadataGraph& graph, const Plan& plan,
                              NodeId x, size_t max_matches) {
  std::vector<MatchBinding> out;
  if (plan.never) return out;
  Search search(graph, plan, max_matches, &out);
  if (x != kInvalidNode) search.BindX(x);
  search.Next(0);
  return out;
}

}  // namespace

struct CompiledPattern {
  Plan at;   // x pre-bound to slot 0
  Plan all;  // nothing bound
};

PatternMatcher::PatternMatcher(const MetadataGraph* graph,
                               const PatternLibrary* library)
    : graph_(graph), library_(library) {}

PatternMatcher::~PatternMatcher() = default;

Result<const CompiledPattern*> PatternMatcher::Compile(
    const std::string& name) const {
  {
    std::lock_guard<std::mutex> lock(plans_mu_);
    auto it = plans_.find(name);
    if (it != plans_.end()) return it->second.get();
  }
  // Compile outside the lock — expansion walks the library; a racing
  // thread at worst compiles the same pattern twice and the loser's copy
  // is discarded by emplace.
  SODA_ASSIGN_OR_RETURN(GraphPattern expanded, library_->Expand(name));
  auto compiled = std::make_unique<CompiledPattern>();
  compiled->at = CompilePlan(expanded, *graph_, /*x_bound=*/true);
  compiled->all = CompilePlan(expanded, *graph_, /*x_bound=*/false);
  std::lock_guard<std::mutex> lock(plans_mu_);
  auto [it, inserted] = plans_.emplace(name, std::move(compiled));
  (void)inserted;
  return it->second.get();
}

Result<std::vector<MatchBinding>> PatternMatcher::MatchAt(
    const std::string& pattern_name, NodeId node, size_t max_matches) const {
  SODA_ASSIGN_OR_RETURN(const CompiledPattern* compiled,
                        Compile(pattern_name));
  if (node == kInvalidNode) return std::vector<MatchBinding>();
  return Run(*graph_, compiled->at, node, max_matches);
}

bool PatternMatcher::Matches(const std::string& pattern_name,
                             NodeId node) const {
  auto compiled = Compile(pattern_name);
  if (!compiled.ok() || node == kInvalidNode) return false;
  return !Run(*graph_, (*compiled)->at, node, /*max_matches=*/1).empty();
}

Result<std::vector<MatchBinding>> PatternMatcher::MatchAll(
    const std::string& pattern_name, size_t max_matches) const {
  SODA_ASSIGN_OR_RETURN(const CompiledPattern* compiled,
                        Compile(pattern_name));
  return Run(*graph_, compiled->all, kInvalidNode, max_matches);
}

}  // namespace soda
