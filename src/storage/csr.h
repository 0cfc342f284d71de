#ifndef GSI_STORAGE_CSR_H_
#define GSI_STORAGE_CSR_H_

#include <memory>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "graph/graph.h"
#include "storage/neighbor_store.h"

namespace gsi {

/// Traditional 3-layer CSR over the whole graph (Figure 10): row offsets,
/// column index, edge value (label). N(v, l) extraction must scan *all*
/// neighbors of v and check each edge label — O(|N(v)|) transactions and
/// wasted lanes, the weakness PCSR fixes.
class DeviceCsr final : public NeighborStore {
 public:
  static std::unique_ptr<DeviceCsr> Build(gpusim::Device& dev,
                                          const Graph& g);

  size_t NeighborCountUpperBound(gpusim::Warp& w, VertexId v,
                                 Label l) const override;

  size_t ExtractSlice(gpusim::Warp& w, VertexId v, Label l, size_t begin,
                      size_t end, std::vector<VertexId>& out) const override;

  size_t ExtractValueRange(gpusim::Warp& w, VertexId v, Label l, VertexId lo,
                           VertexId hi,
                           std::vector<VertexId>& out) const override;

  uint64_t device_bytes() const override;
  std::string name() const override { return "CSR"; }

  size_t num_vertices() const { return row_offsets_.size() - 1; }

 private:
  DeviceCsr() = default;

  gpusim::DeviceBuffer<uint64_t> row_offsets_;  // |V|+1
  gpusim::DeviceBuffer<VertexId> column_index_; // 2|E|, sorted per vertex
  gpusim::DeviceBuffer<Label> edge_value_;      // 2|E|
};

}  // namespace gsi

#endif  // GSI_STORAGE_CSR_H_
