#include "gsi/filter.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <utility>

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

std::vector<ScanTile> ScanTiles(std::span<const SignatureTable* const> tables,
                                std::span<const Signature> qsigs) {
  std::vector<Label> labels;
  for (const Signature& q : qsigs) labels.push_back(q.vertex_label());
  // Buckets are stored in label order, so ascending labels give ascending
  // rows.
  std::ranges::sort(labels);
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  std::vector<ScanTile> tiles;
  for (size_t i = 0; i < tables.size(); ++i) {
    for (Label l : labels) {
      const SignatureTable::RowRange rows = tables[i]->LabelRows(l);
      for (size_t r = rows.begin; r < rows.end;) {
        const size_t cell_end = (r / kWarpSize + 1) * kWarpSize;
        const size_t end = std::min(rows.end, cell_end);
        tiles.push_back({i, r, end, l});
        r = end;
      }
    }
  }
  return tiles;
}

std::vector<CandidateScan> ScanSignatures(
    gpusim::Device& dev, std::span<const SignatureTable* const> tables,
    std::span<const Signature> qsigs, std::span<const ScanTile> tiles) {
  const size_t nu = qsigs.size();
  std::vector<CandidateScan> out(tables.size());
  for (CandidateScan& scan : out) scan.lists.resize(nu);
  if (nu == 0 || tiles.empty()) return out;
  for (const ScanTile& t : tiles) {
    out[t.table].rows_scanned += t.row_end - t.row_begin;
  }
  const int words = tables.front()->words_per_sig();
  for (const SignatureTable* table : tables) {
    GSI_CHECK(table->words_per_sig() == words);
  }
  // Every warp pays for staging all query words into shared memory: an
  // upper bound on its share of the block's cooperative copy that keeps a
  // warp's cost a function of its own tile.
  const uint64_t stage_accesses =
      (nu * static_cast<size_t>(words) + kWarpSize - 1) / kWarpSize;
  // Query vertices grouped by label: the set a tile of that label tests.
  std::vector<std::pair<Label, size_t>> by_label;
  for (size_t u = 0; u < nu; ++u) {
    by_label.emplace_back(qsigs[u].vertex_label(), u);
  }
  std::ranges::sort(by_label);
  // Per-warp state, reused: warps of one launch run one after another.
  std::vector<uint32_t> alive(nu);  // lane k of query vertex u: bit k
  std::vector<size_t> live;         // the tile label's query vertices
  live.reserve(nu);                 // that still have a live lane
  gpusim::Launch(dev, tiles.size(), [&](gpusim::Warp& w) {
    const ScanTile& t = tiles[w.global_id()];
    const SignatureTable& table = *tables[t.table];
    std::vector<std::vector<VertexId>>& lists = out[t.table].lists;
    const size_t lanes = t.row_end - t.row_begin;
    w.SharedAccess(stage_accesses);
    // The tile's label group, read from the staged query.
    w.SharedAccess(1);
    live.clear();
    for (auto it = std::ranges::lower_bound(
             by_label, std::pair<Label, size_t>{t.label, 0});
         it != by_label.end() && it->first == t.label; ++it) {
      live.push_back(it->second);
      alive[it->second] = lanes == kWarpSize ? ~0u : (1u << lanes) - 1;
    }
    uint32_t vals[kWarpSize];
    // Word 0 is the bucket's label: equal for every lane and every vertex
    // of the group. Remaining words: bitwise AND domination, read only
    // for the vertices that still have a live lane and a nonzero word.
    for (int word = 1; word < words && !live.empty(); ++word) {
      bool loaded = false;
      w.Alu(1);  // uniform loop test over the live set
      for (size_t u : live) {
        const uint32_t q = qsigs[u].word(word);
        w.SharedAccess(1);
        if (q == 0) continue;
        if (!loaded) {
          table.WarpReadWord(w, t.row_begin, lanes, word, vals);
          loaded = true;
        }
        w.Alu(lanes);
        for (size_t k = 0; k < lanes; ++k) {
          if ((vals[k] & q) != q) alive[u] &= ~(1u << k);
        }
      }
      std::erase_if(live, [&](size_t u) { return alive[u] == 0; });
    }
    if (live.empty()) return;
    // Survivor ids from the row map, then a warp-aggregated store per
    // query vertex: one coalesced store each.
    VertexId ids[kWarpSize];
    table.WarpReadVertices(w, t.row_begin, lanes, ids);
    for (size_t u : live) {
      for (uint32_t m = alive[u]; m != 0; m &= m - 1) {
        lists[u].push_back(ids[std::countr_zero(m)]);
      }
      w.Alu(1);  // warp-aggregated atomic offset claim
      w.ChargeStoreTransactions(gpusim::Device::RangeTransactions(
          0, static_cast<uint64_t>(std::popcount(alive[u])) *
                 sizeof(VertexId)));
    }
  });
  return out;
}

std::vector<VertexId> FilterContext::LabelDegreeCandidates(
    gpusim::Device& dev, const Graph& query, VertexId u) const {
  const Graph& g = *data_;
  const Label ulabel = query.vertex_label(u);
  const uint32_t udeg = static_cast<uint32_t>(query.degree(u));
  const bool check_neighbors =
      options_.strategy == FilterStrategy::kLabelDegreeNeighbor;
  const auto requirements = LabelDegreeRequirements(query, u);

  std::vector<VertexId> out;
  const size_t n = g.num_vertices();
  gpusim::Launch(dev, (n + kWarpSize - 1) / kWarpSize, [&](gpusim::Warp& w) {
    const VertexId v0 = static_cast<VertexId>(w.global_id() * kWarpSize);
    const size_t lanes = std::min<size_t>(kWarpSize, n - v0);
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
        bool ok = true;
        // Order-safe: a pure conjunction over all entries — the verdict
        // (and the charged work, all outside the loop) is the same in any
        // order.
        // NOLINTNEXTLINE(determinism:unordered-iteration)
        for (const auto& [l, need] : requirements) {
          if (g.NeighborsWithLabel(v, l).size() < need) {
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
  });
  return out;
}

Result<FilterResult> FilterContext::Filter(const Graph& query) const {
  return Filter(*dev_, query);
}

Result<FilterResult> FilterContext::Filter(gpusim::Device& dev,
                                           const Graph& query) const {
  if (has_signatures_) {
    const std::vector<Signature> qsigs =
        Signature::EncodeAll(query, options_.signature_bits);
    const SignatureTable* table = &signatures_;
    const std::span<const SignatureTable* const> tables(&table, 1);
    CandidateScan scan = std::move(
        ScanSignatures(dev, tables, qsigs, ScanTiles(tables, qsigs))[0]);
    FilterResult result =
        MakeFilterResult(dev, std::move(scan.lists), data_->num_vertices(),
                         options_.build_bitmaps);
    result.rows_scanned = scan.rows_scanned;
    return result;
  }
  std::vector<std::vector<VertexId>> lists;
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    lists.push_back(LabelDegreeCandidates(dev, query, u));
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
