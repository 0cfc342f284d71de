#ifndef GSI_GSI_SET_OPS_H_
#define GSI_GSI_SET_OPS_H_

#include <span>
#include <vector>

#include "gpusim/device_buffer.h"
#include "gpusim/launch.h"
#include "gsi/candidates.h"
#include "util/common.h"

namespace gsi {

/// How the join's inner set operations execute (Section V, "GPU-friendly
/// Set Operation" — ablated as "+SO" in Table VI and "write cache" in
/// Table VII).
struct SetOpFlags {
  /// Naive baseline: candidate membership via binary search on the sorted
  /// candidate list (log2 |C(u)| loads per probe) and a fresh kernel per
  /// set operation. GPU-friendly mode probes the candidate bitset 32
  /// vertices per warp gather (one transaction per distinct 128B line of
  /// bitmap words) and batches in shared memory.
  bool naive = false;
  /// 128B per-warp write cache: survivors are buffered in shared memory and
  /// flushed one transaction per 32 values instead of one per value.
  bool write_cache = true;
};

/// First-edge operation of Algorithm 3 (Lines 10-11), GPU-friendly mode, in
/// two halves. Both keep input order, so subtracting the row after the
/// membership test yields exactly the survivors (and order) of testing
/// membership after the subtraction.
///
/// Membership half: `members` (empty on entry) receives the members of C(u)
/// in `input`, in input order. The slice is read from shared memory 32
/// lanes at a time and each batch probes the candidate bitset: in one
/// gather (CandidateSet::ProbeBitset), or, when `staged` (the warp's block
/// staged the bitset with CandidateSet::StageBitset), with one shared
/// access per lane (CandidateSet::ProbeStaged). Both give the same
/// members. Within one join step the members of a slice are the same for
/// every row that reads it, so a block probes each distinct slice once
/// (BlockExtractionCache::GetMembers).
void FilterMembers(gpusim::Warp& w, std::span<const VertexId> input,
                   const CandidateSet& cand, bool staged,
                   std::vector<VertexId>& members);

/// Row half: `result` (empty on entry) receives `members` minus the
/// partial match `row`, in order. If `gba` is non-null the survivors are
/// also written to gba[gba_begin ...] (one store per 128B flush with
/// `write_cache`, one per element without); a null `gba` is the count-only
/// pass of the two-step output scheme.
///
/// Returns the survivor count.
size_t SubtractRow(gpusim::Warp& w, std::span<const VertexId> members,
                   std::span<const VertexId> row, bool write_cache,
                   gpusim::DeviceBuffer<VertexId>* gba, uint64_t gba_begin,
                   std::vector<VertexId>& result);

/// First-edge operation of the naive set-op baseline (Lines 10-11, fused):
/// filters the extracted neighbor slice `input` by (a) subtraction of the
/// partial match `row` and (b) a binary search of C(u)'s sorted list for
/// each element left. `result` (empty on entry) receives the survivors in
/// input order; if `gba` is non-null they are also written to
/// gba[gba_begin ...], one store each.
///
/// Returns the survivor count.
size_t FilterFirstEdge(gpusim::Warp& w, std::span<const VertexId> input,
                       std::span<const VertexId> row,
                       const CandidateSet& cand,
                       gpusim::DeviceBuffer<VertexId>* gba,
                       uint64_t gba_begin, std::vector<VertexId>& result);

/// When the two input sizes of IntersectSorted differ by more than this
/// factor, the GPU-friendly mode galloping-searches the longer list instead
/// of streaming it (the merge touches every element of both lists; a skewed
/// pair only needs O(short * log long) probes).
inline constexpr size_t kGallopRatio = 8;

/// Subsequent-edge operation (Line 13): intersection of the running buffer
/// `current` with the sorted neighbor list `other`; `current` is rewritten
/// in place. Comparable sizes use a linear sorted merge; sizes differing by
/// more than kGallopRatio use galloping search over the longer list (never
/// in the naive baseline, which models the one-kernel-per-op scheme). Both
/// paths produce identical results. If `gba` is non-null the surviving
/// values are rewritten to gba[gba_begin ...].
///
/// Returns the new size of `current`.
size_t IntersectSorted(gpusim::Warp& w, std::vector<VertexId>& current,
                       std::span<const VertexId> other,
                       const SetOpFlags& flags,
                       gpusim::DeviceBuffer<VertexId>* gba,
                       uint64_t gba_begin);

/// Charged write of `values` to gba[begin ...]: one transaction per 128B
/// flush with the write cache, one per element without.
void WriteToGba(gpusim::Warp& w, std::span<const VertexId> values,
                bool write_cache, gpusim::DeviceBuffer<VertexId>& gba,
                uint64_t begin);

}  // namespace gsi

#endif  // GSI_GSI_SET_OPS_H_
