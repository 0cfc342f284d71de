#ifndef GSI_GRAPH_GRAPH_H_
#define GSI_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace gsi {

/// One undirected edge with a label (Definition 1).
struct EdgeRecord {
  VertexId src;
  VertexId dst;
  Label label;

  friend bool operator==(const EdgeRecord&, const EdgeRecord&) = default;
};

/// An adjacency entry: neighbour vertex plus the connecting edge's label.
struct Neighbor {
  VertexId v;
  Label elabel;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Immutable vertex- and edge-labeled undirected graph (Definition 1).
///
/// Adjacency lists are stored CSR-style host-side and sorted by
/// (edge label, neighbour id) so that N(v, l) — "neighbors of v with edge
/// label l", the paper's core primitive — is a contiguous subrange.
///
/// Parallel edges with *different* labels between the same vertex pair are
/// allowed (RDF graphs like DBpedia have them); exact duplicate edges are
/// removed. Self-loops are rejected.
class Graph {
 public:
  Graph() = default;

  /// Validates and builds a graph. Fails on out-of-range endpoints or
  /// self-loops. `edges` are undirected (each inserted in both directions).
  static Result<Graph> Create(size_t num_vertices,
                              std::vector<Label> vertex_labels,
                              std::vector<EdgeRecord> edges);

  size_t num_vertices() const { return vertex_labels_.size(); }
  /// Number of undirected edges.
  size_t num_edges() const { return adj_.size() / 2; }

  Label vertex_label(VertexId v) const { return vertex_labels_[v]; }
  std::span<const Label> vertex_labels() const { return vertex_labels_; }

  /// All neighbours of v, sorted by (edge label, neighbour id).
  std::span<const Neighbor> neighbors(VertexId v) const {
    return {adj_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// N(v, l): neighbours of v over edges labeled l (contiguous subrange).
  std::span<const Neighbor> NeighborsWithLabel(VertexId v, Label l) const;

  size_t degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }
  size_t max_degree() const { return max_degree_; }

  /// True iff the undirected edge (a, b) with label l exists.
  bool HasEdge(VertexId a, VertexId b, Label l) const;
  /// True iff any edge between a and b exists.
  bool HasAnyEdge(VertexId a, VertexId b) const;

  /// Number of distinct vertex labels present.
  size_t num_vertex_labels() const { return vertex_label_freq_.size(); }
  /// Number of distinct edge labels present.
  size_t num_edge_labels() const { return edge_label_freq_.size(); }

  /// freq(l): number of undirected edges carrying label l (0 if unused).
  /// Used by Algorithm 2 (join-order scoring) and Algorithm 4 (first-edge
  /// selection).
  size_t EdgeLabelFrequency(Label l) const;
  /// Number of vertices carrying label l.
  size_t VertexLabelFrequency(Label l) const;
  /// Distinct vertex labels with their vertex counts, ascending by label.
  std::span<const std::pair<Label, uint32_t>> vertex_label_counts() const {
    return vertex_label_freq_;
  }

  /// Distinct edge labels, ascending.
  std::span<const Label> edge_labels() const { return edge_labels_; }

  /// The undirected edge list (each edge once, src < dst).
  std::vector<EdgeRecord> UndirectedEdges() const;

  /// True iff the graph is connected (the paper assumes connected queries).
  bool IsConnected() const;

  /// One-line summary like "|V|=196K |E|=1.9M |LV|=100 |LE|=100 maxdeg=29K".
  std::string Summary() const;

 private:
  std::vector<Label> vertex_labels_;
  std::vector<uint64_t> offsets_;  // size num_vertices + 1
  std::vector<Neighbor> adj_;      // both directions
  std::vector<Label> edge_labels_;
  std::vector<std::pair<Label, uint32_t>> edge_label_freq_;    // sorted
  std::vector<std::pair<Label, uint32_t>> vertex_label_freq_;  // sorted
  size_t max_degree_ = 0;
};

}  // namespace gsi

#endif  // GSI_GRAPH_GRAPH_H_
