#ifndef GSI_STORAGE_PARTITION_H_
#define GSI_STORAGE_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/common.h"

namespace gsi {

/// Edge label l-partitioned subgraph D = P(G, l): the subgraph induced by
/// all edges labeled l, with edge labels dropped (Section IV), restricted to
/// the rows of the vertices it was built for. Host-side representation from
/// which every label-partitioned device structure is built; neighbor ids
/// stay global, so a partition built for a share of V holds exactly the
/// directed edges (u -> w) whose source u is in the share.
struct LabelPartition {
  Label label = kInvalidLabel;
  /// Vertices with at least one l-labeled edge, ascending.
  std::vector<VertexId> vertices;
  /// offsets[i]..offsets[i+1] delimit neighbors of vertices[i].
  std::vector<uint64_t> offsets;
  /// Concatenated neighbor lists (each sorted ascending). Over all of V,
  /// both directions of every undirected edge appear, so size == 2 * |E(D)|.
  std::vector<VertexId> neighbors;

  size_t num_vertices() const { return vertices.size(); }
  size_t num_directed_edges() const { return neighbors.size(); }
};

/// Splits the rows of `vertices` (ascending ids of g) into one partition per
/// entry of g.edge_labels(), in that order; a label no listed vertex has an
/// edge of gets an empty partition. One pass over each listed vertex's
/// (label, id)-sorted adjacency. All of V gives P(G, l) for every l; a
/// device partition's owned vertices give its share.
std::vector<LabelPartition> PartitionByEdgeLabel(
    const Graph& g, std::span<const VertexId> vertices);

}  // namespace gsi

#endif  // GSI_STORAGE_PARTITION_H_
