#include "gsi/candidates.h"

#include <algorithm>

#include "util/check.h"

namespace gsi {

using gpusim::kWarpSize;

std::vector<CandidateSet> CandidateSet::Create(
    gpusim::Device& dev, std::vector<std::vector<VertexId>> lists,
    size_t num_data_vertices, bool build_bitmaps) {
  build_bitmaps = build_bitmaps && num_data_vertices > 0;
  std::vector<CandidateSet> sets(lists.size());
  // Warps are numbered list by list; tile_end[u] is one past list u's last.
  std::vector<size_t> tile_end(lists.size());
  size_t tiles = 0;
  for (VertexId u = 0; u < lists.size(); ++u) {
    std::vector<VertexId>& list = lists[u];
    GSI_CHECK(std::is_sorted(list.begin(), list.end()));
    CandidateSet& c = sets[u];
    c.query_vertex_ = u;
    tiles += (list.size() + kWarpSize - 1) / kWarpSize;
    tile_end[u] = tiles;
    std::vector<uint32_t> bits;
    if (build_bitmaps) {
      bits.assign((num_data_vertices + 31) / 32, 0);
      for (VertexId v : list) bits[v / 32] |= 1u << (v % 32);
    }
    c.list_ = dev.Upload(std::move(list));
    if (build_bitmaps) c.bitmap_ = dev.Upload(std::move(bits));
  }
  if (!build_bitmaps) return sets;
  // Charge the build kernel: each warp loads 32 candidates of one list and
  // scatters one bit per candidate (values were materialized above; the
  // kernel models the device cost). A query whose lists are all empty
  // still launches, with one idle warp.
  gpusim::Launch(dev, std::max<size_t>(1, tiles), [&](gpusim::Warp& w) {
    const size_t t = w.global_id();
    const size_t u =
        std::upper_bound(tile_end.begin(), tile_end.end(), t) -
        tile_end.begin();
    if (u == sets.size()) return;
    CandidateSet& c = sets[u];
    const size_t begin = (t - (u == 0 ? 0 : tile_end[u - 1])) * kWarpSize;
    const size_t len = std::min<size_t>(kWarpSize, c.size() - begin);
    std::span<const VertexId> tile = w.LoadRange(c.list_, begin, len);
    w.Alu(len);
    uint64_t idx[kWarpSize];
    uint32_t vals[kWarpSize];
    for (size_t k = 0; k < len; ++k) {
      idx[k] = tile[k] / 32;
      vals[k] = c.bitmap_[idx[k]];
    }
    w.Scatter(c.bitmap_, std::span<const uint64_t>(idx, len),
              std::span<const uint32_t>(vals, len));
  });
  return sets;
}

bool CandidateSet::ContainsHost(VertexId v) const {
  return std::binary_search(list_.data(), list_.data() + list_.size(), v);
}

uint32_t CandidateSet::ProbeBitset(gpusim::Warp& w,
                                   std::span<const VertexId> vs) const {
  GSI_CHECK_MSG(bitmap_.size() > 0, "bitset not materialized");
  GSI_CHECK(vs.size() <= static_cast<size_t>(kWarpSize));
  uint64_t idx[kWarpSize];
  uint32_t words[kWarpSize];
  for (size_t k = 0; k < vs.size(); ++k) idx[k] = vs[k] / 32;
  w.Gather(bitmap_, std::span<const uint64_t>(idx, vs.size()),
           std::span<uint32_t>(words, vs.size()));
  w.Alu(vs.size());
  uint32_t hits = 0;
  for (size_t k = 0; k < vs.size(); ++k) {
    hits |= ((words[k] >> (vs[k] % 32)) & 1u) << k;
  }
  return hits;
}

void CandidateSet::StageBitset(gpusim::Block& block) const {
  GSI_CHECK_MSG(bitmap_.size() > 0, "bitset not materialized");
  block.shared().Reserve(bitset_bytes());
  constexpr size_t kWordsPerLine =
      gpusim::kTransactionBytes / sizeof(uint32_t);
  for (size_t line = 0; line * kWordsPerLine < bitmap_.size(); ++line) {
    gpusim::Warp& w = block.warp(line % block.num_warps());
    const size_t begin = line * kWordsPerLine;
    const size_t words = std::min(kWordsPerLine, bitmap_.size() - begin);
    w.LoadRange(bitmap_, begin, words);
    w.SharedAccess(words);
  }
}

uint32_t CandidateSet::ProbeStaged(gpusim::Warp& w,
                                   std::span<const VertexId> vs) const {
  GSI_CHECK_MSG(bitmap_.size() > 0, "bitset not materialized");
  GSI_CHECK(vs.size() <= static_cast<size_t>(kWarpSize));
  w.SharedAccess(vs.size());
  w.Alu(vs.size());
  uint32_t hits = 0;
  for (size_t k = 0; k < vs.size(); ++k) {
    hits |= ((bitmap_[vs[k] / 32] >> (vs[k] % 32)) & 1u) << k;
  }
  return hits;
}

bool CandidateSet::ContainsBinarySearch(gpusim::Warp& w, VertexId v) const {
  size_t lo = 0;
  size_t hi = list_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    VertexId probe = w.Load(list_, mid);
    w.Alu(1);
    if (probe == v) return true;
    if (probe < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

}  // namespace gsi
