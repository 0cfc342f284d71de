#ifndef GSI_GSI_FILTER_H_
#define GSI_GSI_FILTER_H_

#include <span>
#include <vector>

#include "gpusim/device.h"
#include "graph/graph.h"
#include "gsi/candidates.h"
#include "storage/signature.h"
#include "storage/signature_table.h"
#include "util/status.h"

namespace gsi {

/// Candidate filtering strategies compared in Table IV.
enum class FilterStrategy {
  /// GSI's 512-bit neighbourhood signatures (Section III-A).
  kSignature,
  /// GpSM-style: vertex label + degree + per-edge-label degree counts
  /// (requires scanning adjacency — scattered, imbalanced loads).
  kLabelDegreeNeighbor,
  /// GunrockSM-style: vertex label + degree only.
  kLabelDegree,
};

struct FilterOptions {
  FilterStrategy strategy = FilterStrategy::kSignature;
  /// Signature width N in bits (Table V sweeps 64..512).
  int signature_bits = kMaxSignatureBits;
  /// Signature table layout (Figure 8c/8d): column-major coalesces.
  SignatureTable::Layout layout = SignatureTable::Layout::kColumnMajor;
  /// Materialize candidate bitsets for the join's set operations.
  bool build_bitmaps = true;

  friend bool operator==(const FilterOptions&, const FilterOptions&) = default;
};

/// Result of the filtering phase: one candidate set per query vertex.
struct FilterResult {
  std::vector<CandidateSet> candidates;  // indexed by query vertex id
  /// Size of the smallest candidate set (the metric of Tables IV/V: "the
  /// joining phase always begins from the minimum candidate set").
  size_t min_candidate_size = 0;
  VertexId min_candidate_vertex = kInvalidVertex;
  /// Signature-table rows the scan read: the rows of the query labels'
  /// buckets (0 under the label/degree strategies and on a cache hit).
  uint64_t rows_scanned = 0;

  bool AnyEmpty() const {
    for (const CandidateSet& c : candidates) {
      if (c.empty()) return true;
    }
    return false;
  }
};

/// Materializes a query's candidate lists (C(u) = lists[u], each sorted) on
/// `dev`: one CandidateSet::Create call, and the smallest set (the first
/// such u on ties).
FilterResult MakeFilterResult(gpusim::Device& dev,
                              std::vector<std::vector<VertexId>> lists,
                              size_t num_data_vertices, bool build_bitmaps);

/// One warp of the signature scan: rows [row_begin, row_end) of the
/// bucket of `label` in the scan's table number `table`, inside one 32-row
/// grid cell of that table.
struct ScanTile {
  size_t table = 0;
  size_t row_begin = 0;
  size_t row_end = 0;
  Label label = 0;
};

/// The scan's tiles for `qsigs` over `tables`, table by table: each
/// distinct query label's bucket cut at the table's 32-row grid lines,
/// ascending by row. A label with no bucket contributes none.
std::vector<ScanTile> ScanTiles(std::span<const SignatureTable* const> tables,
                                std::span<const Signature> qsigs);

/// Output of one signature scan over one table.
struct CandidateScan {
  /// One list per query signature, ascending.
  std::vector<std::vector<VertexId>> lists;
  /// Rows the table's tiles cover.
  uint64_t rows_scanned = 0;
};

/// GSI's signature filter (Section III-A, Fig. 8) over `tiles` of
/// `tables`, for every query signature at once: one kernel, one warp per
/// tile, the query signatures staged in shared memory. The tile's label
/// already settles the exact label test, so a warp tests only the query
/// vertices of that label and never reads word 0. Word i > 0 is read only
/// if one of them still has a live lane and a nonzero word i — a zero query
/// word constrains nothing ((x & 0) == 0). A warp with a survivor reads its
/// rows' vertex ids from the row map in one coalesced load, and survivors
/// leave in one warp-aggregated store per query vertex. A warp's cost
/// depends only on its tile and the query, so one launch over several
/// tables charges the transactions of one launch per table. Returns one
/// CandidateScan per table. The tables share one signature width. No
/// tiles, no launch.
std::vector<CandidateScan> ScanSignatures(
    gpusim::Device& dev, std::span<const SignatureTable* const> tables,
    std::span<const Signature> qsigs, std::span<const ScanTile> tiles);

/// Precomputed device-side filtering context for a data graph ("we offline
/// compute all vertex signatures in G and record them in a signature
/// table"). Reused across queries.
class FilterContext {
 public:
  FilterContext(gpusim::Device& dev, const Graph& data,
                const FilterOptions& options);

  /// Runs the filtering phase for `query`, producing candidate sets: one
  /// ScanSignatures pass over the query labels' buckets (the label/degree
  /// strategies launch one kernel per query vertex over all of |V(G)|
  /// instead, as GpSM and GunrockSM do), then MakeFilterResult. Costs are
  /// charged to the context's build device.
  Result<FilterResult> Filter(const Graph& query) const;

  /// Same, but charges all device work (and allocates candidate buffers)
  /// on `dev` instead of the build device. The context's precomputed tables
  /// are only read, so concurrent calls with distinct devices are safe.
  Result<FilterResult> Filter(gpusim::Device& dev, const Graph& query) const;

 private:
  std::vector<VertexId> LabelDegreeCandidates(gpusim::Device& dev,
                                              const Graph& query,
                                              VertexId u) const;

  gpusim::Device* dev_;
  const Graph* data_;
  FilterOptions options_;
  bool has_signatures_ = false;
  SignatureTable signatures_;
  // Device arrays for the label/degree strategies.
  gpusim::DeviceBuffer<Label> labels_;
  gpusim::DeviceBuffer<uint32_t> degrees_;
};

}  // namespace gsi

#endif  // GSI_GSI_FILTER_H_
