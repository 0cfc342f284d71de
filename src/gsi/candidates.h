#ifndef GSI_GSI_CANDIDATES_H_
#define GSI_GSI_CANDIDATES_H_

#include <span>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "util/common.h"

namespace gsi {

/// Candidate set C(u) for one query vertex: the filtered data vertices that
/// may match u (Section III). Kept in two device forms:
///  - a sorted list (the join's "large" granularity input), and
///  - a bitset over |V(G)| for membership checks ("we first transform it
///    into a bitset, then use exactly one memory transaction to check if
///    vertex v belongs to C(u)", Section V); a warp checks up to 32
///    vertices per gather, one lane each.
class CandidateSet {
 public:
  CandidateSet() = default;

  /// Uploads every candidate list of a query (C(u) = lists[u], each
  /// sorted) and, when `build_bitmaps` is set, materializes all of their
  /// bitsets in one kernel charged to `dev`: one warp per 32 candidates of
  /// one list loads its tile and scatters the tile's bitmap words, so the
  /// transactions are the distinct 128B lines each tile touches.
  static std::vector<CandidateSet> Create(
      gpusim::Device& dev, std::vector<std::vector<VertexId>> lists,
      size_t num_data_vertices, bool build_bitmaps);

  VertexId query_vertex() const { return query_vertex_; }
  size_t size() const { return list_.size(); }
  bool empty() const { return list_.size() == 0; }

  const gpusim::DeviceBuffer<VertexId>& list() const { return list_; }
  bool has_bitmap() const { return bitmap_.size() > 0; }

  /// Host-side membership check (tests / reference paths).
  bool ContainsHost(VertexId v) const;

  /// Bytes and 128B lines of the bitset (0 without one).
  uint64_t bitset_bytes() const { return bitmap_.size() * sizeof(uint32_t); }
  uint64_t bitset_lines() const {
    return (bitset_bytes() + gpusim::kTransactionBytes - 1) /
           gpusim::kTransactionBytes;
  }

  /// Warp-wide bitset probe: lane k checks vs[k] (at most 32 vertices).
  /// One Warp::Gather of the bitmap words, so the cost is the distinct
  /// 128B lines touched — one transaction for vertices within a 1024-id
  /// span. Bit k of the result is set iff vs[k] is in C(u). A Pass A block
  /// whose first-edge slices hold at least as many elements as the bitset
  /// has lines stages it instead (StageBitset) and probes the copy
  /// (ProbeStaged).
  uint32_t ProbeBitset(gpusim::Warp& w, std::span<const VertexId> vs) const;

  /// Stages the bitset in `block`'s shared memory: reserves bitset_bytes()
  /// in the block's arena, and the block's warps take its 128B lines in
  /// turn, each line one load transaction and one warp-wide shared store
  /// (one shared access per word, as every shared write is charged). The
  /// staged probes read the bitmap itself, so no host copy is made.
  void StageBitset(gpusim::Block& block) const;

  /// ProbeBitset against the copy StageBitset put in the warp's block's
  /// shared memory: one shared access per lane and no global transaction.
  uint32_t ProbeStaged(gpusim::Warp& w, std::span<const VertexId> vs) const;

  /// Binary search on the sorted list, one transaction per probe (the
  /// naive set-op baseline of Section V).
  bool ContainsBinarySearch(gpusim::Warp& w, VertexId v) const;

 private:
  VertexId query_vertex_ = kInvalidVertex;
  gpusim::DeviceBuffer<VertexId> list_;
  gpusim::DeviceBuffer<uint32_t> bitmap_;  // |V(G)|/32 words
};

}  // namespace gsi

#endif  // GSI_GSI_CANDIDATES_H_
