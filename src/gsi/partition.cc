#include "gsi/partition.h"

#include <algorithm>
#include <vector>

#include "gsi/partition_internal.h"
#include "util/check.h"

namespace gsi {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<VertexId> internal::MergeAscendingDisjoint(
    std::span<const std::vector<VertexId>* const> lists) {
  const size_t k = lists.size();
  size_t total = 0;
  for (const std::vector<VertexId>* l : lists) {
    if (l != nullptr) total += l->size();
  }
  std::vector<VertexId> merged;
  merged.reserve(total);
  std::vector<size_t> cur(k, 0);
  while (merged.size() < total) {
    size_t best = k;
    for (size_t p = 0; p < k; ++p) {
      if (lists[p] == nullptr || cur[p] >= lists[p]->size()) continue;
      if (best == k || (*lists[p])[cur[p]] < (*lists[best])[cur[best]]) {
        best = p;
      }
    }
    merged.push_back((*lists[best])[cur[best]++]);
  }
  return merged;
}

std::vector<ManifestSegment> internal::PlanSeedRunMerge(
    std::span<const MatchTable* const> parts, std::vector<size_t>& rows_from) {
  const size_t k = parts.size();
  rows_from.assign(k, 0);
  size_t total_rows = 0;
  for (const MatchTable* t : parts) total_rows += t->rows();

  std::vector<ManifestSegment> runs;
  std::vector<size_t> cur(k, 0);
  size_t out_row = 0;
  while (out_row < total_rows) {
    size_t best = k;
    for (size_t p = 0; p < k; ++p) {
      if (cur[p] >= parts[p]->rows()) continue;
      if (best == k ||
          parts[p]->At(cur[p], 0) < parts[best]->At(cur[best], 0)) {
        best = p;
      }
    }
    const VertexId head = parts[best]->At(cur[best], 0);
    size_t run_end = cur[best];
    while (run_end < parts[best]->rows() &&
           parts[best]->At(run_end, 0) == head) {
      ++run_end;
    }
    runs.push_back(ManifestSegment{best, cur[best], run_end - cur[best]});
    rows_from[best] += run_end - cur[best];
    out_row += run_end - cur[best];
    cur[best] = run_end;
  }
  return runs;
}

std::vector<PartitionId> HashVertexPartitioner::Assign(const Graph& g,
                                                       size_t k) const {
  GSI_CHECK(k >= 1);
  std::vector<PartitionId> owner(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    owner[v] = static_cast<PartitionId>(SplitMix64(v) % k);
  }
  return owner;
}

std::vector<PartitionId> GreedyEdgeCutPartitioner::Assign(const Graph& g,
                                                          size_t k) const {
  GSI_CHECK(k >= 1);
  const size_t n = g.num_vertices();
  std::vector<PartitionId> owner(n, 0);
  if (k == 1 || n == 0) return owner;
  const double capacity =
      (static_cast<double>(n) / static_cast<double>(k)) *
      (1.0 + std::max(0.0, balance_slack_));
  std::vector<size_t> load(k, 0);
  std::vector<size_t> with_v(k, 0);  // |N(v) cap P|, rebuilt per vertex
  for (VertexId v = 0; v < n; ++v) {
    std::fill(with_v.begin(), with_v.end(), 0);
    for (const Neighbor& nb : g.neighbors(v)) {
      if (nb.v < v) ++with_v[owner[nb.v]];  // only already-placed neighbors
    }
    PartitionId best = 0;
    double best_score = -1;
    for (PartitionId p = 0; p < k; ++p) {
      if (static_cast<double>(load[p]) >= capacity) continue;
      const double score =
          static_cast<double>(with_v[p]) *
          (1.0 - static_cast<double>(load[p]) / capacity);
      // Strict > keeps ties on the lowest id; empty-score vertices fall
      // through to the least-loaded pick below.
      if (score > best_score) {
        best_score = score;
        best = p;
      }
    }
    if (best_score <= 0) {
      best = static_cast<PartitionId>(
          std::min_element(load.begin(), load.end()) - load.begin());
    }
    owner[v] = best;
    ++load[best];
  }
  return owner;
}

}  // namespace gsi
