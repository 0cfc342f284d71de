#include "gsi/dup_removal.h"

#include "gsi/set_ops.h"

namespace gsi {

const std::vector<VertexId>& BlockExtractionCache::Lookup(
    gpusim::Warp& w, const Key& key, const NeighborStore& store,
    const CandidateSet* cand) {
  const auto [v, l, a, b, read] = key;
  if (enabled_) {
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      // Shared input buffer hit: the loading warp already paid the global
      // transactions (and, for members, the bitset probes); this warp only
      // reads shared memory (Algorithm 5, Line 10) after the block-wide
      // synchronization (Line 9).
      ++hits_;
      w.SharedAccess(it->second.size() + 2);
      return it->second;
    }
  }
  ++misses_;
  scratch_.clear();
  if (read == Read::kValueRange) {
    store.ExtractValueRange(w, v, l, static_cast<VertexId>(a),
                            static_cast<VertexId>(b), scratch_);
  } else {
    store.ExtractSlice(w, v, l, static_cast<size_t>(a),
                       static_cast<size_t>(b), scratch_);
  }
  if (read == Read::kMembers) {
    members_.clear();
    FilterMembers(w, scratch_, *cand, staged_bitset_, members_);
    scratch_.swap(members_);
  }
  if (!enabled_) return scratch_;
  uint64_t bytes = scratch_.size() * sizeof(VertexId);
  if (used_ + bytes > capacity_) return scratch_;  // over budget: no share
  used_ += bytes;
  auto [it, inserted] = cache_.emplace(key, scratch_);
  return it->second;
}

const std::vector<VertexId>& BlockExtractionCache::GetSlice(
    gpusim::Warp& w, const NeighborStore& store, VertexId v, Label l,
    uint32_t begin, uint32_t end) {
  return Lookup(w, Key{v, l, begin, end, Read::kSlice}, store, nullptr);
}

const std::vector<VertexId>& BlockExtractionCache::GetMembers(
    gpusim::Warp& w, const NeighborStore& store, VertexId v, Label l,
    uint32_t begin, uint32_t end, const CandidateSet& cand) {
  return Lookup(w, Key{v, l, begin, end, Read::kMembers}, store, &cand);
}

const std::vector<VertexId>& BlockExtractionCache::GetValueRange(
    gpusim::Warp& w, const NeighborStore& store, VertexId v, Label l,
    VertexId lo, VertexId hi) {
  return Lookup(w, Key{v, l, lo, hi, Read::kValueRange}, store, nullptr);
}

}  // namespace gsi
