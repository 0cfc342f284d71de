#ifndef GSI_STORAGE_COMPRESSED_REP_H_
#define GSI_STORAGE_COMPRESSED_REP_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "graph/graph.h"
#include "storage/neighbor_store.h"
#include "storage/partition.h"

namespace gsi {

/// "Compressed Representation" (Figure 11b): per-label CSR with an extra
/// sorted "vertex ID" layer; lookup binary-searches that layer, costing
/// ~log2 |V(G, l)| + 2 memory transactions — space-optimal but slow.
class CompressedRep final : public NeighborStore {
 public:
  static std::unique_ptr<CompressedRep> Build(gpusim::Device& dev,
                                              const Graph& g);

  size_t NeighborCountUpperBound(gpusim::Warp& w, VertexId v,
                                 Label l) const override;

  size_t ExtractSlice(gpusim::Warp& w, VertexId v, Label l, size_t begin,
                      size_t end, std::vector<VertexId>& out) const override;

  size_t ExtractValueRange(gpusim::Warp& w, VertexId v, Label l, VertexId lo,
                           VertexId hi,
                           std::vector<VertexId>& out) const override;

  uint64_t device_bytes() const override;
  std::string name() const override { return "CompressedRep"; }

 private:
  struct PerLabel {
    gpusim::DeviceBuffer<VertexId> vertex_ids;   // sorted, |V(D)|
    gpusim::DeviceBuffer<uint64_t> row_offsets;  // |V(D)|+1
    gpusim::DeviceBuffer<VertexId> column_index;
  };

  CompressedRep() = default;

  const PerLabel* Find(Label l) const;
  /// Binary search with per-probe transaction charging. Returns index in
  /// vertex_ids or SIZE_MAX.
  static size_t SearchVertex(gpusim::Warp& w, const PerLabel& pl, VertexId v);

  std::unordered_map<Label, size_t> label_index_;
  std::vector<PerLabel> per_label_;
};

}  // namespace gsi

#endif  // GSI_STORAGE_COMPRESSED_REP_H_
