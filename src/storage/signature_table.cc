#include "storage/signature_table.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "util/check.h"

namespace gsi {

SignatureTable SignatureTable::Build(gpusim::Device& dev, const Graph& g,
                                     int nbits, Layout layout) {
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  return BuildSubset(dev, g, all, nbits, layout);
}

SignatureTable SignatureTable::BuildSubset(gpusim::Device& dev,
                                           const Graph& g,
                                           std::span<const VertexId> vertices,
                                           int nbits, Layout layout) {
  GSI_CHECK_MSG(std::ranges::adjacent_find(vertices, std::greater_equal<>()) ==
                    vertices.end(),
                "signature table rows need ascending vertex ids");
  SignatureTable t;
  t.num_vertices_ = vertices.size();
  t.nbits_ = nbits;
  t.words_per_sig_ = Signature::WordsFor(nbits);
  t.layout_ = layout;

  // One counting sort by label. Buckets follow g's label alphabet, so a
  // share keeps an empty bucket for every label it owns no vertex of.
  for (const auto& [label, count] : g.vertex_label_counts()) {
    t.labels_.push_back(label);
  }
  std::vector<uint32_t> bucket_of(vertices.size());
  t.bucket_begin_.assign(t.labels_.size() + 1, 0);
  for (size_t i = 0; i < vertices.size(); ++i) {
    bucket_of[i] = static_cast<uint32_t>(
        std::ranges::lower_bound(t.labels_, g.vertex_label(vertices[i])) -
        t.labels_.begin());
    ++t.bucket_begin_[bucket_of[i] + 1];
  }
  std::partial_sum(t.bucket_begin_.begin(), t.bucket_begin_.end(),
                   t.bucket_begin_.begin());

  // Encode in id order; each vertex lands at its bucket's next free row, so
  // ids ascend inside a bucket.
  std::vector<size_t> next_row(t.bucket_begin_.begin(),
                               t.bucket_begin_.end() - 1);
  std::vector<VertexId> row_vertex(vertices.size());
  std::vector<uint32_t> data(t.num_vertices_ *
                             static_cast<size_t>(t.words_per_sig_));
  for (size_t i = 0; i < vertices.size(); ++i) {
    const size_t row = next_row[bucket_of[i]]++;
    row_vertex[row] = vertices[i];
    const Signature s = Signature::Encode(g, vertices[i], nbits);
    for (int w = 0; w < t.words_per_sig_; ++w) {
      data[t.IndexOf(row, w)] = s.word(w);
    }
  }
  t.data_ = dev.Upload(std::move(data));
  t.row_vertex_ = dev.Upload(std::move(row_vertex));
  return t;
}

SignatureTable::RowRange SignatureTable::LabelRows(Label l) const {
  auto it = std::ranges::lower_bound(labels_, l);
  if (it == labels_.end() || *it != l) return {};
  const size_t i = static_cast<size_t>(it - labels_.begin());
  return {bucket_begin_[i], bucket_begin_[i + 1]};
}

void SignatureTable::WarpReadWord(gpusim::Warp& w, size_t row0, size_t lanes,
                                  int word, uint32_t* out) const {
  GSI_CHECK(lanes <= static_cast<size_t>(gpusim::kWarpSize));
  GSI_CHECK(row0 + lanes <= num_vertices_);
  uint64_t idx[gpusim::kWarpSize];
  for (size_t k = 0; k < lanes; ++k) idx[k] = IndexOf(row0 + k, word);
  w.Gather(data_, std::span<const uint64_t>(idx, lanes),
           std::span<uint32_t>(out, lanes));
}

void SignatureTable::WarpReadVertices(gpusim::Warp& w, size_t row0,
                                      size_t lanes, VertexId* out) const {
  GSI_CHECK(lanes <= static_cast<size_t>(gpusim::kWarpSize));
  std::ranges::copy(w.LoadRange(row_vertex_, row0, lanes), out);
}

}  // namespace gsi
