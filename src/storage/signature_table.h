#ifndef GSI_STORAGE_SIGNATURE_TABLE_H_
#define GSI_STORAGE_SIGNATURE_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "graph/graph.h"
#include "storage/signature.h"

namespace gsi {

/// Device-resident table of data-vertex signatures (Figure 8b), stored as
/// one bucket of rows per vertex label: buckets in ascending label order,
/// vertex ids ascending inside a bucket. A device row map gives each row's
/// vertex, and LabelRows gives each label's row range. Signature word 0 is
/// the raw vertex label, so the filter's exact label comparison (Section
/// III-A) becomes choosing a row range: a scan visits only the buckets of
/// the query's labels and never reads word 0.
///
/// Layout matters (Figures 8c/8d): in the filter kernel every lane reads the
/// same word index of 32 *consecutive rows'* signatures. Row-major places
/// those 64B (a full signature) apart — uncoalesced; column-major places
/// them adjacent — one 128B transaction per warp. The benches expose both
/// to reproduce the paper's layout argument.
class SignatureTable {
 public:
  enum class Layout { kRowMajor, kColumnMajor };

  /// Rows [begin, end) of one label's bucket.
  struct RowRange {
    size_t begin = 0;
    size_t end = 0;
    size_t size() const { return end - begin; }
  };

  /// Empty table; Build() produces usable instances.
  SignatureTable() = default;

  /// Encodes all vertices of g offline and uploads the table: one row per
  /// vertex.
  static SignatureTable Build(gpusim::Device& dev, const Graph& g, int nbits,
                              Layout layout = Layout::kColumnMajor);

  /// One *device partition's* share: one row per vertex of `vertices`
  /// (ascending), bucketed like the full table, with the share's own row
  /// map. Signatures are still computed over g's full adjacency —
  /// ownership splits storage, not neighborhoods. The K shares of a graph
  /// sum to exactly the replicated table's bytes.
  static SignatureTable BuildSubset(gpusim::Device& dev, const Graph& g,
                                    std::span<const VertexId> vertices,
                                    int nbits,
                                    Layout layout = Layout::kColumnMajor);

  /// The bucket of label l; empty when no row carries l.
  RowRange LabelRows(Label l) const;

  /// Element index of (row, word) under the table's layout.
  uint64_t IndexOf(size_t row, int word) const {
    if (layout_ == Layout::kColumnMajor) {
      return static_cast<uint64_t>(word) * num_vertices_ + row;
    }
    return static_cast<uint64_t>(row) * words_per_sig_ + word;
  }

  /// Warp read of word `word` for rows [row0, row0 + lanes) (lane k reads
  /// row row0+k). Charges coalesced transactions per the layout. Returns
  /// values via `out` (up to 32 entries).
  void WarpReadWord(gpusim::Warp& w, size_t row0, size_t lanes, int word,
                    uint32_t* out) const;

  /// Warp read of the vertices of rows [row0, row0 + lanes) from the row
  /// map: one coalesced range load.
  void WarpReadVertices(gpusim::Warp& w, size_t row0, size_t lanes,
                        VertexId* out) const;

  int nbits() const { return nbits_; }
  int words_per_sig() const { return words_per_sig_; }
  /// Number of rows: one per vertex the table holds.
  size_t num_vertices() const { return num_vertices_; }
  Layout layout() const { return layout_; }
  /// Signature words plus the row map.
  uint64_t device_bytes() const {
    return data_.size() * sizeof(uint32_t) +
           row_vertex_.size() * sizeof(VertexId);
  }

  /// Host access for tests.
  uint32_t WordAt(size_t row, int word) const {
    return data_[IndexOf(row, word)];
  }
  VertexId VertexAt(size_t row) const { return row_vertex_[row]; }

 private:
  gpusim::DeviceBuffer<uint32_t> data_;
  gpusim::DeviceBuffer<VertexId> row_vertex_;  // row -> vertex
  std::vector<Label> labels_;         // bucket labels, ascending
  std::vector<size_t> bucket_begin_;  // label i's rows start here; size+1
  size_t num_vertices_ = 0;
  int nbits_ = kMaxSignatureBits;
  int words_per_sig_ = kSignatureWords;
  Layout layout_ = Layout::kColumnMajor;
};

}  // namespace gsi

#endif  // GSI_STORAGE_SIGNATURE_TABLE_H_
