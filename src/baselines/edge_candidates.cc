#include "baselines/edge_candidates.h"

#include <algorithm>
#include <queue>

#include "gpusim/launch.h"
#include "gpusim/scan.h"
#include "util/check.h"
#include "util/timer.h"

namespace gsi {
namespace {

using gpusim::Warp;

/// Filters one row's extension candidates: N(v, l) values that are unused
/// in the row and belong to C(u_new). Candidate membership via binary
/// search (the baselines do not build bitsets).
size_t ExtendRow(Warp& w, const NeighborStore& store,
                 std::span<const VertexId> row, uint32_t bound_col,
                 Label label, const CandidateSet& cand,
                 std::vector<VertexId>& out) {
  out.clear();
  std::vector<VertexId> nbrs;
  store.Extract(w, row[bound_col], label, nbrs);
  w.Alu(nbrs.size() * (row.size() + 1));
  for (VertexId x : nbrs) {
    if (std::find(row.begin(), row.end(), x) != row.end()) continue;
    if (!cand.ContainsBinarySearch(w, x)) continue;
    out.push_back(x);
  }
  return out.size();
}

/// Semi-join test: does the edge (row[a], row[b]) with `label` exist?
bool SemiJoinRow(Warp& w, const NeighborStore& store,
                 std::span<const VertexId> row, uint32_t a, uint32_t b,
                 Label label) {
  std::vector<VertexId> nbrs;
  store.Extract(w, row[a], label, nbrs);
  w.Alu(nbrs.size());
  return std::binary_search(nbrs.begin(), nbrs.end(), row[b]);
}

std::vector<VertexId> ReadRow(Warp& w, const MatchTable& m, size_t r) {
  std::span<const VertexId> vals =
      w.LoadRange(m.data(), r * m.cols(), m.cols());
  w.SharedAccess(m.cols());
  return std::vector<VertexId>(vals.begin(), vals.end());
}

}  // namespace

EdgeJoinMatcher::EdgeJoinMatcher(const Graph& data, Config config)
    : data_(&data), config_(std::move(config)) {
  dev_ = std::make_unique<gpusim::Device>(config_.device);
  store_ = BuildStore(*dev_, data, StorageKind::kCsr, /*gpn=*/16);
  FilterOptions fo;
  fo.strategy = config_.filter;
  fo.build_bitmaps = false;  // the baselines probe sorted candidate lists
  filter_ = std::make_unique<FilterContext>(*dev_, data, fo);
}

std::vector<EdgeJoinMatcher::EdgeStep> EdgeJoinMatcher::PlanEdges(
    const Graph& query, const std::vector<CandidateSet>& cands,
    std::vector<VertexId>& order) const {
  const size_t nq = query.num_vertices();
  VertexId start = 0;
  if (config_.min_candidate_start) {
    for (VertexId u = 1; u < nq; ++u) {
      if (cands[u].size() < cands[start].size()) start = u;
    }
  }
  std::vector<EdgeStep> steps;
  std::vector<uint32_t> column(nq, UINT32_MAX);
  order.clear();
  order.push_back(start);
  column[start] = 0;
  std::queue<VertexId> frontier;
  frontier.push(start);
  while (!frontier.empty()) {
    VertexId u = frontier.front();
    frontier.pop();
    for (const Neighbor& n : query.neighbors(u)) {
      if (column[n.v] == UINT32_MAX) {
        // Tree edge: bind n.v.
        EdgeStep s;
        s.is_extend = true;
        s.u_new = n.v;
        s.bound_col = column[u];
        s.other_col = 0;
        s.label = n.elabel;
        steps.push_back(s);
        column[n.v] = static_cast<uint32_t>(order.size());
        order.push_back(n.v);
        frontier.push(n.v);
      } else if (column[n.v] > column[u]) {
        // Non-tree edge between two bound vertices, recorded once. It can
        // only run after both are bound; collect and splice below.
        EdgeStep s;
        s.is_extend = false;
        s.u_new = kInvalidVertex;
        s.bound_col = column[u];
        s.other_col = column[n.v];
        s.label = n.elabel;
        steps.push_back(s);
      }
    }
  }
  // Order steps so each semi-join runs right after its later endpoint is
  // bound: stable sort by the max column involved.
  std::stable_sort(steps.begin(), steps.end(),
                   [](const EdgeStep& a, const EdgeStep& b) {
                     uint32_t ka = a.is_extend
                                       ? a.bound_col + 1
                                       : std::max(a.bound_col, a.other_col);
                     uint32_t kb = b.is_extend
                                       ? b.bound_col + 1
                                       : std::max(b.bound_col, b.other_col);
                     return ka < kb;
                   });
  return steps;
}

Result<QueryResult> EdgeJoinMatcher::Find(const Graph& query) {
  if (Status v = ValidateQuery(query); !v.ok()) return v;
  WallTimer wall;
  QueryResult out;
  gpusim::MemStats start_stats = dev_->stats();

  Result<FilterResult> filtered = filter_->Filter(query);
  if (!filtered.ok()) return filtered.status();
  out.stats.filter = dev_->stats() - start_stats;
  out.stats.min_candidate_size = filtered->min_candidate_size;

  std::vector<VertexId> order;
  std::vector<EdgeStep> steps = PlanEdges(query, filtered->candidates, order);
  gpusim::MemStats join_start = dev_->stats();

  // Seed M with the start vertex's candidates.
  const CandidateSet& seed = filtered->candidates[order[0]];
  std::vector<VertexId> column(seed.list().data(),
                               seed.list().data() + seed.list().size());
  MatchTable m = MatchTable::FromColumn(*dev_, column);

  // Map of columns filled so far grows with each extend.
  size_t bound = 1;
  std::vector<VertexId> scratch;
  for (const EdgeStep& step : steps) {
    size_t rows = m.rows();
    size_t cols = m.cols();
    if (rows == 0) break;
    auto counts = dev_->Alloc<uint32_t>(rows);

    auto pass = [&](bool write, MatchTable* next,
                    const gpusim::DeviceBuffer<uint64_t>* offsets) {
      gpusim::Launch(*dev_, rows, [&](Warp& w) {
        size_t i = w.global_id();
        if (i >= rows) return;
        std::vector<VertexId> row = ReadRow(w, m, i);
        if (step.is_extend) {
          ExtendRow(w, *store_, row, step.bound_col, step.label,
                    filtered->candidates[step.u_new], scratch);
          if (!write) {
            w.Store(counts, i, static_cast<uint32_t>(scratch.size()));
          } else if (!scratch.empty()) {
            uint64_t o = (*offsets)[i];
            for (size_t k = 0; k < scratch.size(); ++k) {
              for (size_t j = 0; j < cols; ++j) next->Set(o + k, j, row[j]);
              next->Set(o + k, cols, scratch[k]);
            }
            w.ChargeStoreTransactions(gpusim::Device::RangeTransactions(
                next->data().AddressOf(o * (cols + 1)),
                scratch.size() * (cols + 1) * sizeof(VertexId)));
          }
        } else {
          bool keep = SemiJoinRow(w, *store_, row, step.bound_col,
                                  step.other_col, step.label);
          if (!write) {
            w.Store(counts, i, keep ? 1u : 0u);
          } else if (keep) {
            uint64_t o = (*offsets)[i];
            for (size_t j = 0; j < cols; ++j) next->Set(o, j, row[j]);
            w.ChargeStoreTransactions(gpusim::Device::RangeTransactions(
                next->data().AddressOf(o * cols),
                cols * sizeof(VertexId)));
          }
        }
      });
    };

    // Two-step output scheme: count, prefix sum, recompute and write.
    pass(/*write=*/false, nullptr, nullptr);
    auto offsets = dev_->Alloc<uint64_t>(rows + 1);
    uint64_t new_rows = gpusim::ExclusiveScan(*dev_, counts, offsets);
    if (new_rows > config_.max_rows) {
      return Status::ResourceExhausted("edge join exceeds max_rows: " +
                                       std::to_string(new_rows));
    }
    size_t new_cols = step.is_extend ? cols + 1 : cols;
    MatchTable next = MatchTable::Alloc(*dev_, new_rows, new_cols);
    pass(/*write=*/true, &next, &offsets);
    m = std::move(next);
    if (step.is_extend) ++bound;
  }
  GSI_CHECK(m.rows() == 0 || bound == query.num_vertices());
  if (m.rows() == 0 && m.cols() != query.num_vertices()) {
    m = MatchTable::Alloc(*dev_, 0, query.num_vertices());
  }

  out.stats.join = dev_->stats() - join_start;
  out.table = std::move(m);
  out.column_to_query = order;
  out.stats.filter_ms = out.stats.filter.SimulatedMs(dev_->config());
  out.stats.join_ms = out.stats.join.SimulatedMs(dev_->config());
  out.stats.total_ms = out.stats.filter_ms + out.stats.join_ms;
  out.stats.wall_ms = wall.ElapsedMs();
  out.stats.num_matches = out.table.rows();
  return out;
}

EdgeJoinMatcher MakeGpsmMatcher(const Graph& data,
                                gpusim::DeviceConfig device) {
  EdgeJoinMatcher::Config c;
  c.name = "GpSM";
  c.filter = FilterStrategy::kLabelDegreeNeighbor;
  c.min_candidate_start = true;
  c.device = device;
  return EdgeJoinMatcher(data, std::move(c));
}

EdgeJoinMatcher MakeGunrockSmMatcher(const Graph& data,
                                     gpusim::DeviceConfig device) {
  EdgeJoinMatcher::Config c;
  c.name = "GunrockSM";
  c.filter = FilterStrategy::kLabelDegree;
  c.min_candidate_start = false;
  c.device = device;
  return EdgeJoinMatcher(data, std::move(c));
}

}  // namespace gsi
