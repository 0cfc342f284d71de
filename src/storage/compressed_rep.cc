#include "storage/compressed_rep.h"

#include <numeric>

#include "storage/list_search.h"

namespace gsi {

std::unique_ptr<CompressedRep> CompressedRep::Build(gpusim::Device& dev,
                                                    const Graph& g) {
  auto rep = std::unique_ptr<CompressedRep>(new CompressedRep());
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  for (LabelPartition& part : PartitionByEdgeLabel(g, all)) {
    // The uploads take the partition's vectors, releasing its host copy.
    PerLabel pl;
    pl.vertex_ids = dev.Upload(std::move(part.vertices));
    pl.row_offsets = dev.Upload(std::move(part.offsets));
    pl.column_index = dev.Upload(std::move(part.neighbors));
    rep->label_index_[part.label] = rep->per_label_.size();
    rep->per_label_.push_back(std::move(pl));
  }
  return rep;
}

const CompressedRep::PerLabel* CompressedRep::Find(Label l) const {
  auto it = label_index_.find(l);
  if (it == label_index_.end()) return nullptr;
  return &per_label_[it->second];
}

size_t CompressedRep::SearchVertex(gpusim::Warp& w, const PerLabel& pl,
                                   VertexId v) {
  size_t lo = 0;
  size_t hi = pl.vertex_ids.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    VertexId probe = w.Load(pl.vertex_ids, mid);  // one transaction each
    w.Alu(1);
    if (probe == v) return mid;
    if (probe < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return SIZE_MAX;
}

size_t CompressedRep::NeighborCountUpperBound(gpusim::Warp& w, VertexId v,
                                              Label l) const {
  const PerLabel* pl = Find(l);
  if (pl == nullptr) return 0;
  size_t idx = SearchVertex(w, *pl, v);
  if (idx == SIZE_MAX) return 0;
  std::span<const uint64_t> off = w.LoadRange(pl->row_offsets, idx, 2);
  return off[1] - off[0];
}

size_t CompressedRep::ExtractSlice(gpusim::Warp& w, VertexId v, Label l,
                                   size_t begin, size_t end,
                                   std::vector<VertexId>& out) const {
  const PerLabel* pl = Find(l);
  if (pl == nullptr) return 0;
  size_t idx = SearchVertex(w, *pl, v);
  if (idx == SIZE_MAX) return 0;
  std::span<const uint64_t> off = w.LoadRange(pl->row_offsets, idx, 2);
  size_t count = off[1] - off[0];
  end = std::min(end, count);
  if (begin >= end) return 0;
  std::span<const VertexId> nbrs =
      w.LoadRange(pl->column_index, off[0] + begin, end - begin);
  out.insert(out.end(), nbrs.begin(), nbrs.end());
  return end - begin;
}

size_t CompressedRep::ExtractValueRange(gpusim::Warp& w, VertexId v, Label l,
                                        VertexId lo, VertexId hi,
                                        std::vector<VertexId>& out) const {
  const PerLabel* pl = Find(l);
  if (pl == nullptr) return 0;
  size_t idx = SearchVertex(w, *pl, v);
  if (idx == SIZE_MAX) return 0;
  std::span<const uint64_t> off = w.LoadRange(pl->row_offsets, idx, 2);
  if (off[0] == off[1]) return 0;
  size_t b = LowerBoundCharged(w, pl->column_index, off[0], off[1], lo);
  size_t e = UpperBoundCharged(w, pl->column_index, b, off[1], hi);
  if (b >= e) return 0;
  std::span<const VertexId> nbrs = w.LoadRange(pl->column_index, b, e - b);
  out.insert(out.end(), nbrs.begin(), nbrs.end());
  return e - b;
}

uint64_t CompressedRep::device_bytes() const {
  uint64_t total = 0;
  for (const PerLabel& pl : per_label_) {
    total += pl.vertex_ids.size() * sizeof(VertexId) +
             pl.row_offsets.size() * sizeof(uint64_t) +
             pl.column_index.size() * sizeof(VertexId);
  }
  return total;
}

}  // namespace gsi
