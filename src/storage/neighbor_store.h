#ifndef GSI_STORAGE_NEIGHBOR_STORE_H_
#define GSI_STORAGE_NEIGHBOR_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/launch.h"
#include "util/common.h"

namespace gsi {

/// Device-resident graph storage abstraction: extraction of N(v, l) by one
/// warp, with all memory traffic charged to the warp. Implementations are
/// the four structures compared in Table II:
///   CSR  — O(|N(v)|) time, O(|E|) space
///   BR   — O(1) time, O(|E| + |LE|x|V|) space
///   CR   — O(log |V(G,l)|) time, O(|E|) space
///   PCSR — O(1) time, O(|E|) space
class NeighborStore {
 public:
  virtual ~NeighborStore() = default;

  /// Appends N(v, l) (ascending vertex ids) to `out`; returns the count.
  /// The whole-list read is the slice [0, SIZE_MAX), clamped by the store,
  /// so it charges exactly what that slice charges.
  size_t Extract(gpusim::Warp& w, VertexId v, Label l,
                 std::vector<VertexId>& out) const {
    return ExtractSlice(w, v, l, 0, SIZE_MAX, out);
  }

  /// Upper bound on |N(v, l)| obtainable without reading the neighbor list
  /// itself (used by Algorithm 4 to size GBA buffers). Exact for the
  /// label-partitioned structures; the full degree for CSR. Charges lookup
  /// transactions to `w`.
  virtual size_t NeighborCountUpperBound(gpusim::Warp& w, VertexId v,
                                         Label l) const = 0;

  /// Extracts the position subrange [begin, end) of the upper-bound list
  /// whose size NeighborCountUpperBound reports (the unit the load-balance
  /// scheme chunks by), clamping `end` to that size. For label-partitioned
  /// stores the upper-bound list is N(v, l) itself; for CSR it is the full
  /// adjacency filtered to l on the fly. The union of all slices is N(v, l).
  /// Charges every global-memory transaction to `w`.
  virtual size_t ExtractSlice(gpusim::Warp& w, VertexId v, Label l,
                              size_t begin, size_t end,
                              std::vector<VertexId>& out) const = 0;

  /// Appends the elements of N(v, l) with values in [lo, hi] — the bounded
  /// read used by chunked intersections so that parallelizing a heavy row
  /// does not re-read whole lists. Returns the count.
  virtual size_t ExtractValueRange(gpusim::Warp& w, VertexId v, Label l,
                                   VertexId lo, VertexId hi,
                                   std::vector<VertexId>& out) const = 0;

  /// Total simulated device memory consumed by the structure.
  virtual uint64_t device_bytes() const = 0;

  virtual std::string name() const = 0;
};

}  // namespace gsi

#endif  // GSI_STORAGE_NEIGHBOR_STORE_H_
