#include "gsi/set_ops.h"

#include <algorithm>

#include "util/check.h"

namespace gsi {

void WriteToGba(gpusim::Warp& w, std::span<const VertexId> values,
                bool write_cache, gpusim::DeviceBuffer<VertexId>& gba,
                uint64_t begin) {
  GSI_CHECK(begin + values.size() <= gba.size());
  if (values.empty()) return;
  if (write_cache) {
    // Valid elements accumulate in a 128B shared-memory cache; a full cache
    // flushes with exactly one store transaction (Section V).
    w.SharedAccess(values.size());
    for (size_t i = 0; i < values.size(); i += 32) {
      size_t chunk = std::min<size_t>(32, values.size() - i);
      w.StoreRange(gba, begin + i,
                   std::span<const VertexId>(values.data() + i, chunk));
    }
  } else {
    // One scattered store per valid element.
    for (size_t i = 0; i < values.size(); ++i) {
      w.Store(gba, begin + i, values[i]);
    }
  }
}

void FilterMembers(gpusim::Warp& w, std::span<const VertexId> input,
                   const CandidateSet& cand, bool staged,
                   std::vector<VertexId>& members) {
  // The slice is consumed batch-wise from shared memory; each batch's
  // members are compacted back into shared memory in input order.
  for (size_t i = 0; i < input.size(); i += gpusim::kWarpSize) {
    const std::span<const VertexId> lanes = input.subspan(
        i, std::min<size_t>(gpusim::kWarpSize, input.size() - i));
    const uint32_t hits =
        staged ? cand.ProbeStaged(w, lanes) : cand.ProbeBitset(w, lanes);
    for (size_t k = 0; k < lanes.size(); ++k) {
      if ((hits >> k) & 1u) members.push_back(lanes[k]);
    }
  }
  w.SharedAccess(input.size() + members.size());
}

size_t SubtractRow(gpusim::Warp& w, std::span<const VertexId> members,
                   std::span<const VertexId> row, bool write_cache,
                   gpusim::DeviceBuffer<VertexId>* gba, uint64_t gba_begin,
                   std::vector<VertexId>& result) {
  // The partial match (small list) stays cached in shared memory for the
  // subtraction; the members are consumed batch-wise.
  w.SharedAccess(row.size() + members.size());
  w.Alu(members.size() * (row.size() + 1));
  for (VertexId x : members) {
    if (std::find(row.begin(), row.end(), x) == row.end()) {
      result.push_back(x);
    }
  }
  if (gba != nullptr) WriteToGba(w, result, write_cache, *gba, gba_begin);
  return result.size();
}

size_t FilterFirstEdge(gpusim::Warp& w, std::span<const VertexId> input,
                       std::span<const VertexId> row,
                       const CandidateSet& cand,
                       gpusim::DeviceBuffer<VertexId>* gba,
                       uint64_t gba_begin, std::vector<VertexId>& result) {
  w.Alu(input.size() * (row.size() + 1));
  for (VertexId x : input) {
    if (std::find(row.begin(), row.end(), x) != row.end()) continue;
    if (cand.ContainsBinarySearch(w, x)) result.push_back(x);
  }
  if (gba != nullptr) {
    WriteToGba(w, result, /*write_cache=*/false, *gba, gba_begin);
  }
  return result.size();
}

namespace {

/// First index >= `lo` in the sorted `list` with list[idx] >= x, found by
/// exponential (galloping) search from `lo`. `probes` counts the
/// comparisons made, so callers can charge exactly the work done instead of
/// a full linear scan.
size_t GallopLowerBound(std::span<const VertexId> list, size_t lo, VertexId x,
                        uint64_t& probes) {
  const size_t n = list.size();
  if (lo >= n) return n;
  size_t step = 1;
  size_t hi = lo;
  while (hi < n && list[hi] < x) {
    ++probes;
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, n);
  while (lo < hi) {
    ++probes;
    size_t mid = lo + (hi - lo) / 2;
    if (list[mid] < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

size_t IntersectSorted(gpusim::Warp& w, std::vector<VertexId>& current,
                       std::span<const VertexId> other,
                       const SetOpFlags& flags,
                       gpusim::DeviceBuffer<VertexId>* gba,
                       uint64_t gba_begin) {
  GSI_CHECK(std::is_sorted(current.begin(), current.end()));
  const bool gallop_other = !flags.naive && !current.empty() &&
                            other.size() > kGallopRatio * current.size();
  const bool gallop_current = !flags.naive && !other.empty() &&
                              current.size() > kGallopRatio * other.size();
  size_t out = 0;
  if (gallop_other) {
    // `other` dwarfs `current`: gallop through the long list instead of
    // streaming it, touching O(|current| log) elements.
    uint64_t probes = 0;
    size_t j = 0;
    for (size_t i = 0; i < current.size(); ++i) {
      j = GallopLowerBound(other, j, current[i], probes);
      if (j >= other.size()) break;
      if (other[j] == current[i]) current[out++] = current[i];
    }
    w.Alu(probes + current.size());
    w.SharedAccess(probes);
  } else if (gallop_current) {
    // `current` dwarfs `other`: gallop through `current`. Writes land at
    // out <= j, behind the galloping frontier, so the in-place rewrite
    // never clobbers unread elements. The shared-memory list (`other`) is
    // still read in full; the probes into `current` are ALU work.
    uint64_t probes = 0;
    size_t j = 0;
    for (VertexId x : other) {
      j = GallopLowerBound({current.data(), current.size()}, j, x, probes);
      if (j >= current.size()) break;
      if (current[j] == x) {
        current[out++] = x;
        ++j;
      }
    }
    w.Alu(probes + other.size());
    w.SharedAccess(other.size());
  } else {
    // Comparable sizes (or the naive baseline): linear merge.
    w.Alu(current.size() + other.size());
    if (!flags.naive) w.SharedAccess(other.size());
    size_t j = 0;
    for (size_t i = 0; i < current.size(); ++i) {
      while (j < other.size() && other[j] < current[i]) ++j;
      if (j < other.size() && other[j] == current[i]) {
        current[out++] = current[i];
      }
    }
  }
  current.resize(out);
  if (gba != nullptr) {
    WriteToGba(w, current, flags.write_cache && !flags.naive, *gba,
               gba_begin);
  }
  return out;
}

}  // namespace gsi
