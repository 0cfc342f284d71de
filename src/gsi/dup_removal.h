#ifndef GSI_GSI_DUP_REMOVAL_H_
#define GSI_GSI_DUP_REMOVAL_H_

#include <map>
#include <tuple>
#include <vector>

#include "gpusim/launch.h"
#include "storage/neighbor_store.h"
#include "util/common.h"

namespace gsi {

class CandidateSet;

/// In-block duplicate removal (Section VI-B, Algorithm 5): warps in one
/// block whose rows need the same N(v, l) share a single global-memory
/// read through a shared-memory input buffer; only the first warp loads,
/// the others pay shared-memory traffic.
///
/// For a first-edge slice the block keeps the slice's members of C(u)
/// rather than the raw slice: the first warp extracts the slice and probes
/// C(u)'s bitset once, and every warp then subtracts its own row. Each
/// Pass A block builds its own instance, which is the block boundary; a
/// member entry assumes the one C(u) of the block's join step. The cache
/// capacity is bounded by the block's shared memory: an entry that would
/// exceed it is not kept, and later lookups of its key read and probe
/// again. A block that staged C(u)'s bitset in shared memory (see
/// JoinEngine's Pass A) builds its cache with `staged_bitset`, which the
/// member reads pass to FilterMembers, so their probes read the staged
/// copy.
class BlockExtractionCache {
 public:
  /// Shared-memory budget of a Pass A block's input buffers.
  static constexpr uint64_t kCapacityBytes = 32 * 1024;

  /// @param enabled  disabled instances always extract (the baseline).
  /// @param capacity_bytes shared-memory budget for cached input buffers.
  /// @param staged_bitset  the block staged C(u)'s bitset.
  explicit BlockExtractionCache(bool enabled,
                                uint64_t capacity_bytes = kCapacityBytes,
                                bool staged_bitset = false)
      : enabled_(enabled),
        capacity_(capacity_bytes),
        staged_bitset_(staged_bitset) {}

  /// N(v, l) slice [begin, end) (the naive first-edge read, and whole-list
  /// later-edge reads).
  const std::vector<VertexId>& GetSlice(gpusim::Warp& w,
                                        const NeighborStore& store,
                                        VertexId v, Label l, uint32_t begin,
                                        uint32_t end);

  /// The members of `cand` in N(v, l) slice [begin, end), in slice order
  /// (the GPU-friendly first-edge read; FilterMembers on a miss).
  const std::vector<VertexId>& GetMembers(gpusim::Warp& w,
                                          const NeighborStore& store,
                                          VertexId v, Label l,
                                          uint32_t begin, uint32_t end,
                                          const CandidateSet& cand);

  /// N(v, l) values within [lo, hi] (subsequent-edge reads).
  const std::vector<VertexId>& GetValueRange(gpusim::Warp& w,
                                             const NeighborStore& store,
                                             VertexId v, Label l, VertexId lo,
                                             VertexId hi);

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  enum class Read : uint8_t { kSlice, kMembers, kValueRange };
  using Key = std::tuple<VertexId, Label, uint64_t, uint64_t, Read>;

  /// `cand` is read only for Read::kMembers.
  const std::vector<VertexId>& Lookup(gpusim::Warp& w, const Key& key,
                                      const NeighborStore& store,
                                      const CandidateSet* cand);

  bool enabled_;
  uint64_t capacity_;
  bool staged_bitset_;
  uint64_t used_ = 0;
  std::map<Key, std::vector<VertexId>> cache_;
  std::vector<VertexId> scratch_;
  std::vector<VertexId> members_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace gsi

#endif  // GSI_GSI_DUP_REMOVAL_H_
