#include "graph/metadata_graph.h"

#include <algorithm>

#include "common/strings.h"

namespace soda {

const char* MetadataLayerName(MetadataLayer layer) {
  switch (layer) {
    case MetadataLayer::kConceptualSchema:
      return "conceptual schema";
    case MetadataLayer::kLogicalSchema:
      return "logical schema";
    case MetadataLayer::kPhysicalSchema:
      return "physical schema";
    case MetadataLayer::kDomainOntology:
      return "domain ontology";
    case MetadataLayer::kDbpedia:
      return "DBpedia";
    case MetadataLayer::kBaseData:
      return "base data";
    case MetadataLayer::kOther:
      return "other";
  }
  return "other";
}

UriId UriTable::Intern(std::string_view uri) {
  auto it = index_.find(uri);
  if (it != index_.end()) return it->second;
  UriId id = static_cast<UriId>(uris_.size());
  uris_.emplace_back(uri);
  index_.emplace(uris_.back(), id);
  return id;
}

std::optional<UriId> UriTable::Find(std::string_view uri) const {
  auto it = index_.find(uri);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Result<NodeId> MetadataGraph::AddNode(std::string_view uri,
                                      MetadataLayer layer) {
  UriId uid = uri_table_.Intern(uri);
  if (node_by_uri_.count(uid) > 0) {
    return Status::AlreadyExists("node '" + std::string(uri) +
                                 "' already exists");
  }
  NodeId id = static_cast<NodeId>(layers_.size());
  node_uris_.push_back(uid);
  layers_.push_back(layer);
  out_.emplace_back();
  in_.emplace_back();
  text_.emplace_back();
  node_by_uri_[uid] = id;
  return id;
}

NodeId MetadataGraph::GetOrAddNode(std::string_view uri, MetadataLayer layer) {
  NodeId existing = FindNode(uri);
  if (existing != kInvalidNode) return existing;
  return *AddNode(uri, layer);
}

NodeId MetadataGraph::FindNode(std::string_view uri) const {
  auto uid = uri_table_.Find(uri);
  if (!uid.has_value()) return kInvalidNode;
  auto it = node_by_uri_.find(*uid);
  return it == node_by_uri_.end() ? kInvalidNode : it->second;
}

void MetadataGraph::AddEdge(NodeId from, std::string_view predicate,
                            NodeId to) {
  UriId pred = uri_table_.Intern(predicate);
  out_[from].push_back(Edge{pred, to});
  in_[to].push_back(Edge{pred, from});
  ++num_edges_;
}

void MetadataGraph::AddTextEdge(NodeId from, std::string_view predicate,
                                std::string_view text) {
  UriId pred = uri_table_.Intern(predicate);
  text_[from].push_back(TextEdge{pred, std::string(text)});
  ++num_text_edges_;
}

NodeId MetadataGraph::FirstTarget(NodeId n,
                                  std::string_view predicate) const {
  auto pred = uri_table_.Find(predicate);
  if (!pred.has_value()) return kInvalidNode;
  for (const Edge& e : out_[n]) {
    if (e.predicate == *pred) return e.target;
  }
  return kInvalidNode;
}

std::vector<NodeId> MetadataGraph::Targets(NodeId n,
                                           std::string_view predicate) const {
  std::vector<NodeId> out;
  auto pred = uri_table_.Find(predicate);
  if (!pred.has_value()) return out;
  for (const Edge& e : out_[n]) {
    if (e.predicate == *pred) out.push_back(e.target);
  }
  return out;
}

std::vector<NodeId> MetadataGraph::Sources(NodeId n,
                                           std::string_view predicate) const {
  std::vector<NodeId> out;
  auto pred = uri_table_.Find(predicate);
  if (!pred.has_value()) return out;
  for (const Edge& e : in_[n]) {
    if (e.predicate == *pred) out.push_back(e.target);
  }
  return out;
}

std::optional<std::string> MetadataGraph::FirstText(
    NodeId n, std::string_view predicate) const {
  auto pred = uri_table_.Find(predicate);
  if (!pred.has_value()) return std::nullopt;
  for (const TextEdge& e : text_[n]) {
    if (e.predicate == *pred) return e.text;
  }
  return std::nullopt;
}

bool MetadataGraph::HasEdge(NodeId from, std::string_view predicate,
                            NodeId to) const {
  auto pred = uri_table_.Find(predicate);
  if (!pred.has_value()) return false;
  for (const Edge& e : out_[from]) {
    if (e.predicate == *pred && e.target == to) return true;
  }
  return false;
}

bool MetadataGraph::HasType(NodeId n, std::string_view type_uri) const {
  NodeId type_node = FindNode(type_uri);
  if (type_node == kInvalidNode) return false;
  return HasEdge(n, "type", type_node);
}

std::vector<NodeId> MetadataGraph::NodesInLayer(MetadataLayer layer) const {
  std::vector<NodeId> result;
  for (NodeId n = 0; n < static_cast<NodeId>(layers_.size()); ++n) {
    if (layers_[n] == layer) result.push_back(n);
  }
  return result;
}

std::string MetadataGraph::ToDot(size_t max_nodes) const {
  std::string dot = "digraph metadata {\n  rankdir=LR;\n";
  size_t limit = std::min(max_nodes, layers_.size());
  for (size_t n = 0; n < limit; ++n) {
    dot += StrFormat("  n%zu [label=\"%s\\n(%s)\"];\n", n,
                     uri(static_cast<NodeId>(n)).c_str(),
                     MetadataLayerName(layers_[n]));
  }
  for (size_t n = 0; n < limit; ++n) {
    for (const Edge& e : out_[n]) {
      if (static_cast<size_t>(e.target) >= limit) continue;
      dot += StrFormat("  n%zu -> n%d [label=\"%s\"];\n", n, e.target,
                       uri_table_.Lookup(e.predicate).c_str());
    }
  }
  dot += "}\n";
  return dot;
}

}  // namespace soda
