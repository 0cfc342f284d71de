#include "storage/csr.h"

#include <algorithm>

namespace gsi {

std::unique_ptr<DeviceCsr> DeviceCsr::Build(gpusim::Device& dev,
                                            const Graph& g) {
  auto csr = std::unique_ptr<DeviceCsr>(new DeviceCsr());
  size_t n = g.num_vertices();
  std::vector<uint64_t> offsets(n + 1, 0);
  std::vector<VertexId> col;
  std::vector<Label> val;
  col.reserve(2 * g.num_edges());
  val.reserve(2 * g.num_edges());
  for (VertexId v = 0; v < n; ++v) {
    // A generic CSR keeps neighbors sorted by id (labels interleaved).
    std::vector<Neighbor> nbrs(g.neighbors(v).begin(), g.neighbors(v).end());
    std::sort(nbrs.begin(), nbrs.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return std::pair(a.v, a.elabel) < std::pair(b.v, b.elabel);
              });
    for (const Neighbor& nb : nbrs) {
      col.push_back(nb.v);
      val.push_back(nb.elabel);
    }
    offsets[v + 1] = col.size();
  }
  csr->row_offsets_ = dev.Upload(std::move(offsets));
  csr->column_index_ = dev.Upload(std::move(col));
  csr->edge_value_ = dev.Upload(std::move(val));
  return csr;
}

size_t DeviceCsr::NeighborCountUpperBound(gpusim::Warp& w, VertexId v,
                                          Label l) const {
  (void)l;
  // CSR cannot bound |N(v, l)| without scanning; the cheap bound is the
  // full degree, read with one transaction.
  std::span<const uint64_t> off = w.LoadRange(row_offsets_, v, 2);
  return off[1] - off[0];
}

size_t DeviceCsr::ExtractSlice(gpusim::Warp& w, VertexId v, Label l,
                               size_t begin, size_t end,
                               std::vector<VertexId>& out) const {
  std::span<const uint64_t> off = w.LoadRange(row_offsets_, v, 2);
  size_t base = off[0];
  size_t deg = off[1] - off[0];
  end = std::min(end, deg);
  if (begin >= end) return 0;
  size_t count = end - begin;
  std::span<const VertexId> nbrs =
      w.LoadRange(column_index_, base + begin, count);
  std::span<const Label> labels = w.LoadRange(edge_value_, base + begin,
                                              count);
  w.Alu(count);
  size_t added = 0;
  for (size_t i = 0; i < count; ++i) {
    if (labels[i] == l) {
      out.push_back(nbrs[i]);
      ++added;
    }
  }
  return added;
}

size_t DeviceCsr::ExtractValueRange(gpusim::Warp& w, VertexId v, Label l,
                                    VertexId lo, VertexId hi,
                                    std::vector<VertexId>& out) const {
  // CSR has no per-label index: bounded reads degrade to a full scan.
  std::vector<VertexId> all;
  Extract(w, v, l, all);
  size_t added = 0;
  for (VertexId x : all) {
    if (x >= lo && x <= hi) {
      out.push_back(x);
      ++added;
    }
  }
  return added;
}

uint64_t DeviceCsr::device_bytes() const {
  return row_offsets_.size() * sizeof(uint64_t) +
         column_index_.size() * sizeof(VertexId) +
         edge_value_.size() * sizeof(Label);
}

}  // namespace gsi
