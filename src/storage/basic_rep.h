#ifndef GSI_STORAGE_BASIC_REP_H_
#define GSI_STORAGE_BASIC_REP_H_

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

/// "Basic Representation" (Figure 11a): one CSR per edge label whose row
/// offset layer spans the *entire* vertex set, so lookup is O(1) by vertex
/// id, but space is O(|E| + |LE| x |V|) — unusable for graphs with many
/// edge labels (the paper could not even run it on the large datasets).
class BasicRep final : public NeighborStore {
 public:
  static std::unique_ptr<BasicRep> Build(gpusim::Device& dev, const Graph& g);

  size_t NeighborCountUpperBound(gpusim::Warp& w, VertexId v,
                                 Label l) const override;

  size_t ExtractSlice(gpusim::Warp& w, VertexId v, Label l, size_t begin,
                      size_t end, std::vector<VertexId>& out) const override;

  size_t ExtractValueRange(gpusim::Warp& w, VertexId v, Label l, VertexId lo,
                           VertexId hi,
                           std::vector<VertexId>& out) const override;

  uint64_t device_bytes() const override;
  std::string name() const override { return "BasicRep"; }

 private:
  struct PerLabel {
    gpusim::DeviceBuffer<uint64_t> row_offsets;  // |V(G)|+1
    gpusim::DeviceBuffer<VertexId> column_index;
  };

  BasicRep() = default;

  const PerLabel* Find(Label l) const;

  std::unordered_map<Label, size_t> label_index_;
  std::vector<PerLabel> per_label_;
};

}  // namespace gsi

#endif  // GSI_STORAGE_BASIC_REP_H_
