#include "gsi/filter.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "gpusim/launch.h"
#include "storage/signature.h"
#include "util/check.h"

namespace gsi {
namespace {

using gpusim::kWarpSize;

/// Per-edge-label degree requirements of a query vertex: l -> |N(u, l)|.
std::unordered_map<Label, uint32_t> LabelDegreeRequirements(const Graph& q,
                                                            VertexId u) {
  std::unordered_map<Label, uint32_t> req;
  for (const Neighbor& n : q.neighbors(u)) ++req[n.elabel];
  return req;
}

}  // namespace

FilterContext::FilterContext(gpusim::Device& dev, const Graph& data,
                             const FilterOptions& options)
    : dev_(&dev), data_(&data), options_(options) {
  if (options.strategy == FilterStrategy::kSignature) {
    signatures_ =
        SignatureTable::Build(dev, data, options.signature_bits,
                              options.layout);
    has_signatures_ = true;
  } else {
    std::vector<Label> labels(data.vertex_labels().begin(),
                              data.vertex_labels().end());
    std::vector<uint32_t> degrees(data.num_vertices());
    for (VertexId v = 0; v < data.num_vertices(); ++v) {
      degrees[v] = static_cast<uint32_t>(data.degree(v));
    }
    labels_ = dev.Upload(std::move(labels));
    degrees_ = dev.Upload(std::move(degrees));
  }
}

std::vector<std::vector<VertexId>> ScanSignatures(
    gpusim::Device& dev, const SignatureTable& table,
    std::span<const Signature> qsigs, size_t row_begin, size_t row_end,
    std::span<const VertexId> row_ids) {
  const size_t nu = qsigs.size();
  std::vector<std::vector<VertexId>> out(nu);
  if (nu == 0 || row_begin >= row_end) return out;
  const int words = table.words_per_sig();
  // Every warp pays for staging all query words into shared memory: an
  // upper bound on its share of the block's cooperative copy that keeps a
  // warp's cost a function of its own rows.
  const uint64_t stage_accesses =
      (nu * static_cast<size_t>(words) + kWarpSize - 1) / kWarpSize;
  // Per-warp state, reused: warps of one launch run one after another.
  std::vector<uint32_t> alive(nu);  // lane k of query vertex u: bit k
  std::vector<size_t> live;         // query vertices with a live lane
  live.reserve(nu);
  const size_t num_warps = (row_end - row_begin + kWarpSize - 1) / kWarpSize;
  gpusim::Launch(dev, num_warps, [&](gpusim::Warp& w) {
    const size_t r0 = row_begin + w.global_id() * kWarpSize;
    const size_t lanes = std::min<size_t>(kWarpSize, row_end - r0);
    const VertexId v0 = static_cast<VertexId>(r0);
    uint32_t vals[kWarpSize];
    w.SharedAccess(stage_accesses);

    // Word 0 is the raw vertex label (Section VII-B): one read serves every
    // query vertex's exact comparison.
    table.WarpReadWord(w, v0, lanes, 0, vals);
    live.clear();
    for (size_t u = 0; u < nu; ++u) {
      const uint32_t q = qsigs[u].word(0);
      w.SharedAccess(1);
      w.Alu(lanes);
      alive[u] = 0;
      for (size_t k = 0; k < lanes; ++k) {
        alive[u] |= static_cast<uint32_t>(vals[k] == q) << k;
      }
      if (alive[u] != 0) live.push_back(u);
    }
    // Remaining words: bitwise AND domination, read only for the query
    // vertices that still have a live lane and a nonzero word here.
    for (int word = 1; word < words && !live.empty(); ++word) {
      bool loaded = false;
      w.Alu(1);  // uniform loop test over the live set
      for (size_t u : live) {
        const uint32_t q = qsigs[u].word(word);
        w.SharedAccess(1);
        if (q == 0) continue;
        if (!loaded) {
          table.WarpReadWord(w, v0, lanes, word, vals);
          loaded = true;
        }
        w.Alu(lanes);
        for (size_t k = 0; k < lanes; ++k) {
          if ((vals[k] & q) != q) alive[u] &= ~(1u << k);
        }
      }
      std::erase_if(live, [&](size_t u) { return alive[u] == 0; });
    }
    // Warp-aggregated survivor write per query vertex: one coalesced store.
    for (size_t u = 0; u < nu; ++u) {
      if (alive[u] == 0) continue;
      for (uint32_t m = alive[u]; m != 0; m &= m - 1) {
        const size_t r = r0 + static_cast<size_t>(std::countr_zero(m));
        out[u].push_back(row_ids.empty() ? static_cast<VertexId>(r)
                                         : row_ids[r]);
      }
      w.Alu(1);  // warp-aggregated atomic offset claim
      w.ChargeStoreTransactions(gpusim::Device::RangeTransactions(
          0, static_cast<uint64_t>(std::popcount(alive[u])) *
                 sizeof(VertexId)));
    }
  });
  return out;
}

void FilterContext::LabelDegreeScanWarp(
    gpusim::Warp& w, Label ulabel, uint32_t udeg,
    const std::unordered_map<Label, uint32_t>& requirements,
    bool check_neighbors, VertexId v0, size_t lanes,
    std::vector<VertexId>& out) const {
  const Graph& g = *data_;
  uint64_t idx[kWarpSize];
  for (size_t k = 0; k < lanes; ++k) idx[k] = v0 + k;
  Label lab[kWarpSize];
  uint32_t deg[kWarpSize];
  w.Gather(labels_, std::span<const uint64_t>(idx, lanes),
           std::span<Label>(lab, lanes));
  w.Gather(degrees_, std::span<const uint64_t>(idx, lanes),
           std::span<uint32_t>(deg, lanes));
  w.Alu(2 * lanes);

  uint32_t survivors = 0;
  for (size_t k = 0; k < lanes; ++k) {
    VertexId v = v0 + static_cast<VertexId>(k);
    if (lab[k] != ulabel || deg[k] < udeg) continue;
    if (check_neighbors) {
      // GpSM-style refinement: v must have at least |N(u, l)| l-labeled
      // neighbors for every edge label l around u. Requires scanning v's
      // adjacency — scattered loads, skewed workloads.
      std::span<const Neighbor> nbrs = g.neighbors(v);
      // Charge: stream the adjacency slice (ids + labels: two arrays).
      w.ChargeLoadTransactions(2 * gpusim::Device::RangeTransactions(
          0, nbrs.size() * sizeof(VertexId)));
      w.Alu(nbrs.size());
      std::unordered_map<Label, uint32_t> have;
      for (const Neighbor& nb : nbrs) ++have[nb.elabel];
      bool ok = true;
      // Order-safe: a pure conjunction over all entries — the verdict (and
      // the charged work, all outside the loop) is the same in any order.
      // NOLINTNEXTLINE(determinism:unordered-iteration)
      for (const auto& [l, need] : requirements) {
        auto it = have.find(l);
        if (it == have.end() || it->second < need) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
    }
    out.push_back(v);
    ++survivors;
  }
  if (survivors > 0) {
    w.Alu(1);
    w.ChargeStoreTransactions(gpusim::Device::RangeTransactions(
        0, survivors * sizeof(VertexId)));
  }
}

std::vector<VertexId> FilterContext::LabelDegreeCandidates(
    gpusim::Device& dev, const Graph& query, VertexId u,
    bool check_neighbors) const {
  const Label ulabel = query.vertex_label(u);
  const uint32_t udeg = static_cast<uint32_t>(query.degree(u));
  auto requirements = LabelDegreeRequirements(query, u);

  std::vector<VertexId> out;
  const size_t n = data_->num_vertices();
  gpusim::Launch(dev, (n + kWarpSize - 1) / kWarpSize, [&](gpusim::Warp& w) {
    VertexId v0 = static_cast<VertexId>(w.global_id() * kWarpSize);
    size_t lanes = std::min<size_t>(kWarpSize, n - v0);
    LabelDegreeScanWarp(w, ulabel, udeg, requirements, check_neighbors, v0,
                        lanes, out);
  });
  return out;
}

std::vector<std::vector<VertexId>> FilterContext::CandidateLists(
    gpusim::Device& dev, const Graph& query, VertexId v_begin,
    VertexId v_end) const {
  const size_t nu = query.num_vertices();
  v_end = std::min<VertexId>(v_end,
                             static_cast<VertexId>(data_->num_vertices()));
  if (has_signatures_) {
    return ScanSignatures(dev, signatures_,
                          Signature::EncodeAll(query, options_.signature_bits),
                          v_begin, v_end);
  }
  std::vector<std::vector<VertexId>> out(nu);
  if (nu == 0 || v_begin >= v_end) return out;
  const size_t n = v_end;
  const size_t warps_per_u = (n - v_begin + kWarpSize - 1) / kWarpSize;
  std::vector<Label> ulabels(nu);
  std::vector<uint32_t> udegs(nu);
  std::vector<std::unordered_map<Label, uint32_t>> requirements(nu);
  for (VertexId u = 0; u < nu; ++u) {
    ulabels[u] = query.vertex_label(u);
    udegs[u] = static_cast<uint32_t>(query.degree(u));
    requirements[u] = LabelDegreeRequirements(query, u);
  }
  // One fused kernel: warp w scans 32 vertices for query vertex
  // w / warps_per_u — the per-vertex kernels' warps in a single launch, so
  // a 1/K range costs ~1/K the makespan instead of |V(Q)| under-filled
  // launches.
  gpusim::Launch(dev, nu * warps_per_u, [&](gpusim::Warp& w) {
    const VertexId u = static_cast<VertexId>(w.global_id() / warps_per_u);
    VertexId v0 = v_begin + static_cast<VertexId>(
                                (w.global_id() % warps_per_u) * kWarpSize);
    size_t lanes = std::min<size_t>(kWarpSize, n - v0);
    LabelDegreeScanWarp(
        w, ulabels[u], udegs[u], requirements[u],
        options_.strategy == FilterStrategy::kLabelDegreeNeighbor, v0, lanes,
        out[u]);
  });
  return out;
}

Result<FilterResult> FilterContext::Filter(const Graph& query) const {
  return Filter(*dev_, query);
}

size_t FilterContext::num_data_vertices() const {
  return data_->num_vertices();
}

Result<FilterResult> FilterContext::Filter(gpusim::Device& dev,
                                           const Graph& query) const {
  std::vector<std::vector<VertexId>> lists;
  if (has_signatures_) {
    lists = CandidateLists(dev, query);
  } else {
    const bool check_neighbors =
        options_.strategy == FilterStrategy::kLabelDegreeNeighbor;
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      lists.push_back(LabelDegreeCandidates(dev, query, u, check_neighbors));
    }
  }
  return MakeFilterResult(dev, std::move(lists), data_->num_vertices(),
                          options_.build_bitmaps);
}

FilterResult MakeFilterResult(gpusim::Device& dev,
                              std::vector<std::vector<VertexId>> lists,
                              size_t num_data_vertices, bool build_bitmaps) {
  FilterResult result;
  result.min_candidate_size = SIZE_MAX;
  for (VertexId u = 0; u < lists.size(); ++u) {
    if (lists[u].size() < result.min_candidate_size) {
      result.min_candidate_size = lists[u].size();
      result.min_candidate_vertex = u;
    }
  }
  result.candidates = CandidateSet::Create(dev, std::move(lists),
                                           num_data_vertices, build_bitmaps);
  return result;
}

}  // namespace gsi
