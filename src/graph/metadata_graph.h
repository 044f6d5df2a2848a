// The extended metadata graph (paper Section 2.2, Figure 3).
//
// An RDF-style triple store over interned URIs. Triples either connect two
// nodes (`node --predicate--> node`) or attach a text label to a node
// (`node --predicate--> "text"`). Every node carries a provenance layer
// (conceptual / logical / physical schema, domain ontology, DBpedia, base
// data) which drives SODA's ranking heuristic in Step 2.

#ifndef SODA_GRAPH_METADATA_GRAPH_H_
#define SODA_GRAPH_METADATA_GRAPH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace soda {

using NodeId = int32_t;
using UriId = int32_t;

inline constexpr NodeId kInvalidNode = -1;

/// Provenance of a metadata node — which part of Figure 3 it lives in.
enum class MetadataLayer {
  kConceptualSchema = 0,
  kLogicalSchema,
  kPhysicalSchema,
  kDomainOntology,
  kDbpedia,
  kBaseData,   // virtual nodes representing inverted-index hits
  kOther,
};

const char* MetadataLayerName(MetadataLayer layer);

/// Interner mapping URI strings <-> dense ids. Lookups hash the
/// string_view directly (heterogeneous lookup), so they never allocate.
class UriTable {
 public:
  /// Returns the id for `uri`, creating it on first use.
  UriId Intern(std::string_view uri);

  /// Returns the id or nullopt when never interned.
  std::optional<UriId> Find(std::string_view uri) const;

  const std::string& Lookup(UriId id) const { return uris_[id]; }
  size_t size() const { return uris_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> uris_;
  std::unordered_map<std::string, UriId, Hash, std::equal_to<>> index_;
};

/// One node -> node edge.
struct Edge {
  UriId predicate;
  NodeId target;
};

/// One node -> text edge.
struct TextEdge {
  UriId predicate;
  std::string text;
};

/// The metadata graph. Nodes are identified by unique URIs; edges are
/// unordered multi-sets per node with both directions indexed.
class MetadataGraph {
 public:
  /// Creates a node with a unique URI. Fails when the URI exists.
  Result<NodeId> AddNode(std::string_view uri, MetadataLayer layer);

  /// Returns the node for `uri`, or creates it.
  NodeId GetOrAddNode(std::string_view uri, MetadataLayer layer);

  /// Finds a node by URI; kInvalidNode when absent.
  NodeId FindNode(std::string_view uri) const;

  /// Adds a node -> node triple.
  void AddEdge(NodeId from, std::string_view predicate, NodeId to);

  /// Adds a node -> text triple.
  void AddTextEdge(NodeId from, std::string_view predicate,
                   std::string_view text);

  size_t num_nodes() const { return layers_.size(); }
  size_t num_edges() const { return num_edges_; }
  size_t num_text_edges() const { return num_text_edges_; }

  const std::string& uri(NodeId n) const { return uri_table_.Lookup(node_uris_[n]); }
  MetadataLayer layer(NodeId n) const { return layers_[n]; }

  const std::vector<Edge>& OutEdges(NodeId n) const { return out_[n]; }
  const std::vector<Edge>& InEdges(NodeId n) const { return in_[n]; }
  const std::vector<TextEdge>& TextEdges(NodeId n) const { return text_[n]; }

  /// Interns a predicate URI (for matcher hot paths).
  UriId InternPredicate(std::string_view predicate) {
    return uri_table_.Intern(predicate);
  }
  std::optional<UriId> FindPredicate(std::string_view predicate) const {
    return uri_table_.Find(predicate);
  }
  const std::string& PredicateUri(UriId id) const {
    return uri_table_.Lookup(id);
  }

  /// First target of an out-edge `n --predicate-->`, or kInvalidNode.
  NodeId FirstTarget(NodeId n, std::string_view predicate) const;

  /// All targets of out-edges with the given predicate.
  std::vector<NodeId> Targets(NodeId n, std::string_view predicate) const;

  /// All sources of in-edges with the given predicate.
  std::vector<NodeId> Sources(NodeId n, std::string_view predicate) const;

  /// First text of `n --predicate--> "text"`, or nullopt.
  std::optional<std::string> FirstText(NodeId n,
                                       std::string_view predicate) const;

  /// True when the triple (from, predicate, to) exists.
  bool HasEdge(NodeId from, std::string_view predicate, NodeId to) const;

  /// True when node `n` has `type` edge to the node whose URI is
  /// `type_uri` (convenience for the common `( x type T )` test).
  bool HasType(NodeId n, std::string_view type_uri) const;

  /// All node ids whose layer equals `layer`.
  std::vector<NodeId> NodesInLayer(MetadataLayer layer) const;

  /// Graphviz dot rendering (used by the schema-explorer example).
  std::string ToDot(size_t max_nodes = 200) const;

 private:
  UriTable uri_table_;
  std::vector<UriId> node_uris_;
  std::vector<MetadataLayer> layers_;
  std::vector<std::vector<Edge>> out_;
  std::vector<std::vector<Edge>> in_;
  std::vector<std::vector<TextEdge>> text_;
  std::unordered_map<UriId, NodeId> node_by_uri_;
  size_t num_edges_ = 0;
  size_t num_text_edges_ = 0;
};

}  // namespace soda

#endif  // SODA_GRAPH_METADATA_GRAPH_H_
