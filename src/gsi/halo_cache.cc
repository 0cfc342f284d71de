#include "gsi/halo_cache.h"

#include <algorithm>
#include <utility>

#include "gpusim/device.h"

namespace gsi {

HaloCache::Entry* HaloCache::Touch(const Key& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->second;
}

HaloCache::Entry* HaloCache::TouchOrCreate(const Key& key) {
  if (Entry* e = Touch(key)) return e;
  lru_.emplace_front(key, Entry{});
  index_[key] = lru_.begin();
  stats_.resident_bytes += kEntryOverheadBytes;
  return &lru_.front().second;
}

void HaloCache::ChargeAndEvict(uint64_t before, uint64_t after) {
  stats_.resident_bytes -= before;
  stats_.resident_bytes += after;
  while (stats_.resident_bytes > budget_bytes_ && !lru_.empty()) {
    stats_.resident_bytes -= EntryBytes(lru_.back().second);
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void HaloCache::ChargeHit(gpusim::Warp& w, uint64_t bytes) {
  // One local line for the directory lookup, plus the local read of the
  // served list bytes — ordinary gld, never the interconnect premium.
  w.ChargeLoadTransactions(1 + gpusim::Device::RangeTransactions(0, bytes));
}

std::optional<size_t> HaloCache::ServeCount(gpusim::Warp& w, PartitionId p,
                                            VertexId v, Label l) {
  Entry* e = Touch(Key{p, v, l});
  if (e != nullptr && e->known_count != kUnknownCount) {
    ChargeHit(w, 0);
    return e->known_count;
  }
  return std::nullopt;
}

std::optional<size_t> HaloCache::ServeSlice(gpusim::Warp& w, PartitionId p,
                                            VertexId v, Label l, size_t begin,
                                            size_t end,
                                            std::vector<VertexId>& out) {
  Entry* e = Touch(Key{p, v, l});
  // Serving a slice needs the exact count — the store clamps `end` to it —
  // and a prefix long enough to cover the clamped range.
  if (e != nullptr && e->known_count != kUnknownCount) {
    const size_t clamped = std::min(end, e->known_count);
    if (begin >= clamped) {
      ChargeHit(w, 0);
      return 0;
    }
    if (e->values.size() >= clamped) {
      out.insert(out.end(), e->values.begin() + begin,
                 e->values.begin() + clamped);
      ChargeHit(w, (clamped - begin) * sizeof(VertexId));
      return clamped - begin;
    }
  }
  return std::nullopt;
}

std::optional<size_t> HaloCache::ServeValueRange(gpusim::Warp& w,
                                                 PartitionId p, VertexId v,
                                                 Label l, VertexId lo,
                                                 VertexId hi,
                                                 std::vector<VertexId>& out) {
  Entry* e = Touch(Key{p, v, l});
  if (e != nullptr && e->complete) {
    auto first = std::lower_bound(e->values.begin(), e->values.end(), lo);
    auto last = std::upper_bound(first, e->values.end(), hi);
    out.insert(out.end(), first, last);
    const size_t n = static_cast<size_t>(last - first);
    ChargeHit(w, n * sizeof(VertexId));
    return n;
  }
  return std::nullopt;
}

void HaloCache::RecordCount(PartitionId p, VertexId v, Label l,
                            size_t count) {
  Entry* e = TouchOrCreate(Key{p, v, l});
  const uint64_t before = EntryBytes(*e);
  if (e->known_count == kUnknownCount) e->known_count = count;
  if (e->values.size() == e->known_count) e->complete = true;
  ChargeAndEvict(before, EntryBytes(*e));
}

void HaloCache::RecordSlice(PartitionId p, VertexId v, Label l, size_t begin,
                            size_t requested,
                            std::span<const VertexId> values) {
  Entry* e = TouchOrCreate(Key{p, v, l});
  if (e->complete) return;
  const uint64_t before = EntryBytes(*e);
  // Extend the in-order prefix when this slice continues it exactly.
  if (begin == e->values.size() && !values.empty()) {
    e->values.insert(e->values.end(), values.begin(), values.end());
  }
  // A short return proves where the list ends — but only when the slice
  // returned data (or started at 0): an empty return for begin > 0 merely
  // says the list is no longer than `begin`.
  if (values.size() < requested && (begin == 0 || !values.empty()) &&
      e->known_count == kUnknownCount) {
    e->known_count = begin + values.size();
  }
  if (e->known_count != kUnknownCount &&
      e->values.size() == e->known_count) {
    e->complete = true;
  }
  ChargeAndEvict(before, EntryBytes(*e));
}

HaloCache::Stats HaloCache::stats() const {
  Stats s = stats_;
  s.entries = index_.size();
  return s;
}

}  // namespace gsi
