#include "storage/basic_rep.h"

#include <numeric>

#include "storage/list_search.h"

namespace gsi {

std::unique_ptr<BasicRep> BasicRep::Build(gpusim::Device& dev,
                                          const Graph& g) {
  auto rep = std::unique_ptr<BasicRep>(new BasicRep());
  size_t n = g.num_vertices();
  std::vector<VertexId> all(n);
  std::iota(all.begin(), all.end(), VertexId{0});
  for (LabelPartition& built : PartitionByEdgeLabel(g, all)) {
    // Moved out so each label's host copy is released once it is uploaded.
    LabelPartition part = std::move(built);
    std::vector<uint64_t> offsets(n + 1, 0);
    // Fill per-vertex counts, then prefix sum. Vertices absent from the
    // partition get empty ranges.
    for (size_t i = 0; i < part.vertices.size(); ++i) {
      offsets[part.vertices[i] + 1] = part.offsets[i + 1] - part.offsets[i];
    }
    for (size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    PerLabel pl;
    pl.row_offsets = dev.Upload(std::move(offsets));
    pl.column_index = dev.Upload(std::move(part.neighbors));
    rep->label_index_[part.label] = rep->per_label_.size();
    rep->per_label_.push_back(std::move(pl));
  }
  return rep;
}

const BasicRep::PerLabel* BasicRep::Find(Label l) const {
  auto it = label_index_.find(l);
  if (it == label_index_.end()) return nullptr;
  return &per_label_[it->second];
}

size_t BasicRep::NeighborCountUpperBound(gpusim::Warp& w, VertexId v,
                                         Label l) const {
  const PerLabel* pl = Find(l);
  if (pl == nullptr) return 0;
  std::span<const uint64_t> off = w.LoadRange(pl->row_offsets, v, 2);
  return off[1] - off[0];
}

size_t BasicRep::ExtractSlice(gpusim::Warp& w, VertexId v, Label l,
                              size_t begin, size_t end,
                              std::vector<VertexId>& out) const {
  const PerLabel* pl = Find(l);
  if (pl == nullptr) return 0;
  std::span<const uint64_t> off = w.LoadRange(pl->row_offsets, v, 2);
  size_t count = off[1] - off[0];
  end = std::min(end, count);
  if (begin >= end) return 0;
  std::span<const VertexId> nbrs =
      w.LoadRange(pl->column_index, off[0] + begin, end - begin);
  out.insert(out.end(), nbrs.begin(), nbrs.end());
  return end - begin;
}

size_t BasicRep::ExtractValueRange(gpusim::Warp& w, VertexId v, Label l,
                                   VertexId lo, VertexId hi,
                                   std::vector<VertexId>& out) const {
  const PerLabel* pl = Find(l);
  if (pl == nullptr) return 0;
  std::span<const uint64_t> off = w.LoadRange(pl->row_offsets, v, 2);
  if (off[0] == off[1]) return 0;
  size_t b = LowerBoundCharged(w, pl->column_index, off[0], off[1], lo);
  size_t e = UpperBoundCharged(w, pl->column_index, b, off[1], hi);
  if (b >= e) return 0;
  std::span<const VertexId> nbrs = w.LoadRange(pl->column_index, b, e - b);
  out.insert(out.end(), nbrs.begin(), nbrs.end());
  return e - b;
}

uint64_t BasicRep::device_bytes() const {
  uint64_t total = 0;
  for (const PerLabel& pl : per_label_) {
    total += pl.row_offsets.size() * sizeof(uint64_t) +
             pl.column_index.size() * sizeof(VertexId);
  }
  return total;
}

}  // namespace gsi
