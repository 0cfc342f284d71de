#ifndef GSI_STORAGE_PARTITION_H_
#define GSI_STORAGE_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/common.h"

namespace gsi {

/// Edge label l-partitioned subgraph D = P(G, l): the subgraph induced by
/// all edges labeled l, with edge labels dropped (Section IV). Host-side
/// representation from which every device structure is built.
struct LabelPartition {
  Label label = kInvalidLabel;
  /// Vertices with at least one l-labeled edge, ascending.
  std::vector<VertexId> vertices;
  /// offsets[i]..offsets[i+1] delimit neighbors of vertices[i].
  std::vector<uint64_t> offsets;
  /// Concatenated neighbor lists (each sorted ascending). Both directions
  /// of every undirected edge appear, so size == 2 * |E(D)|.
  std::vector<VertexId> neighbors;

  size_t num_vertices() const { return vertices.size(); }
  size_t num_directed_edges() const { return neighbors.size(); }
};

/// Splits G into one partition per distinct edge label, ordered by label.
std::vector<LabelPartition> PartitionByEdgeLabel(const Graph& g);

/// Builds the partition for a single label (empty partition if unused).
LabelPartition MakePartition(const Graph& g, Label l);

/// Like MakePartition, but keeps only the rows of vertices v with
/// keep[v] != 0: the unit from which a *device-partitioned* PCSR is built
/// (gsi/replication.h). Neighbor ids stay global — only the row set shrinks,
/// so each directed edge (u -> w) lands in exactly the partition that keeps
/// u. `keep` must have one entry per vertex of g.
LabelPartition MakePartitionForVertices(const Graph& g, Label l,
                                        std::span<const uint8_t> keep);

}  // namespace gsi

#endif  // GSI_STORAGE_PARTITION_H_
