#include "storage/partition.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace gsi {

std::vector<LabelPartition> PartitionByEdgeLabel(
    const Graph& g, std::span<const VertexId> vertices) {
  GSI_CHECK_MSG(std::ranges::adjacent_find(vertices, std::greater_equal<>()) ==
                    vertices.end(),
                "label partitions need ascending vertex ids");
  const std::span<const Label> labels = g.edge_labels();
  std::vector<LabelPartition> parts(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) parts[i].label = labels[i];
  for (VertexId v : vertices) {
    // Graph adjacency is sorted by (label, id): each label's run is
    // contiguous and ascending, and the runs come in label order.
    std::span<const Neighbor> nbrs = g.neighbors(v);
    auto label_it = labels.begin();
    for (size_t i = 0; i < nbrs.size();) {
      label_it = std::lower_bound(label_it, labels.end(), nbrs[i].elabel);
      LabelPartition& p = parts[label_it - labels.begin()];
      p.vertices.push_back(v);
      p.offsets.push_back(p.neighbors.size());
      for (; i < nbrs.size() && nbrs[i].elabel == *label_it; ++i) {
        p.neighbors.push_back(nbrs[i].v);
      }
    }
  }
  for (LabelPartition& p : parts) p.offsets.push_back(p.neighbors.size());
  return parts;
}

}  // namespace gsi
