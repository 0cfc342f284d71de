#ifndef GSI_GSI_FILTER_H_
#define GSI_GSI_FILTER_H_

#include <span>
#include <unordered_map>
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

/// GSI's signature filter (Section III-A, Fig. 8) over rows
/// [row_begin, row_end) of `table`, for every query signature at once: one
/// kernel, one warp per 32 rows, the query signatures staged in shared
/// memory. Word 0 (the raw vertex label) is read once per warp and compared
/// with every query vertex's label. Word i > 0 is read only if some query
/// vertex with a live lane in the warp has a nonzero word i — a zero query
/// word constrains nothing ((x & 0) == 0) — and is AND-tested against
/// exactly those vertices. Survivors leave in one warp-aggregated store per
/// query vertex, so list u is ascending. A warp's cost depends only on its
/// 32 rows and the query.
///
/// Returns one list per query signature. Row r is reported as vertex r, or
/// as row_ids[r] when row_ids is given (a partition's subset table, whose
/// row i holds owned vertex row_ids[i]).
std::vector<std::vector<VertexId>> ScanSignatures(
    gpusim::Device& dev, const SignatureTable& table,
    std::span<const Signature> qsigs, size_t row_begin, size_t row_end,
    std::span<const VertexId> row_ids = {});

/// Precomputed device-side filtering context for a data graph ("we offline
/// compute all vertex signatures in G and record them in a signature
/// table"). Reused across queries.
class FilterContext {
 public:
  FilterContext(gpusim::Device& dev, const Graph& data,
                const FilterOptions& options);

  /// Runs the filtering phase for `query`, producing candidate sets: one
  /// ScanSignatures pass over all of |V(G)| (the label/degree strategies
  /// launch one kernel per query vertex instead, as GpSM and GunrockSM
  /// do), then MakeFilterResult. Costs are charged to the context's build
  /// device.
  Result<FilterResult> Filter(const Graph& query) const;

  /// Same, but charges all device work (and allocates candidate buffers)
  /// on `dev` instead of the build device. The context's precomputed tables
  /// are only read, so concurrent calls with distinct devices are safe.
  Result<FilterResult> Filter(gpusim::Device& dev, const Graph& query) const;

  /// Candidate lists of every query vertex over the data-vertex range
  /// [v_begin, v_end), as one kernel — the unit the sharded filter stage
  /// fans out across devices. v_end is clamped to |V(G)|. Lists are
  /// ascending, so range results concatenated in order equal the whole
  /// range's; with a 32-aligned v_begin each range issues exactly the warps
  /// of the matching stretch of a whole scan, so counters sum to it too.
  /// The signature strategy runs ScanSignatures; the label/degree
  /// strategies run one fused kernel over (query vertex, 32 rows) warps.
  std::vector<std::vector<VertexId>> CandidateLists(
      gpusim::Device& dev, const Graph& query, VertexId v_begin = 0,
      VertexId v_end = kInvalidVertex) const;

  const FilterOptions& options() const { return options_; }
  /// |V(G)| of the data graph the context was built for (the bitset width
  /// MakeFilterResult needs when materializing lists elsewhere).
  size_t num_data_vertices() const;

 private:
  void LabelDegreeScanWarp(
      gpusim::Warp& w, Label ulabel, uint32_t udeg,
      const std::unordered_map<Label, uint32_t>& requirements,
      bool check_neighbors, VertexId v0, size_t lanes,
      std::vector<VertexId>& out) const;
  std::vector<VertexId> LabelDegreeCandidates(gpusim::Device& dev,
                                              const Graph& query, VertexId u,
                                              bool check_neighbors) const;

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
