#include "gsi/load_balance.h"

#include <algorithm>

#include "util/check.h"

namespace gsi {

std::vector<Chunk*> ChunkPlan::AllChunks() {
  std::vector<Chunk*> out;
  out.reserve(total_chunks());
  for (Chunk& c : pooled) out.push_back(&c);
  for (auto& row : per_block) {
    for (Chunk& c : row) out.push_back(&c);
  }
  for (auto& row : huge) {
    for (Chunk& c : row) out.push_back(&c);
  }
  return out;
}

namespace {

// Splits one row into chunks, numbering them from `slot` on.
std::vector<Chunk> SplitRow(uint32_t row, uint32_t bound, uint64_t gba_begin,
                            uint32_t chunk_elems, uint32_t& slot) {
  std::vector<Chunk> out;
  if (bound == 0) {
    // Zero-workload rows still need one chunk so the row is considered
    // (its set-op result is empty, but the accounting pass must see it).
    out.push_back(Chunk{row, 0, 0, gba_begin, 0, slot++});
    return out;
  }
  for (uint32_t b = 0; b < bound; b += chunk_elems) {
    uint32_t e = std::min(bound, b + chunk_elems);
    out.push_back(Chunk{row, b, e, gba_begin + b, 0, slot++});
  }
  return out;
}

}  // namespace

ChunkPlan PlanChunks(std::span<const uint32_t> upper_bounds,
                     std::span<const uint64_t> gba_offsets,
                     bool load_balance, uint32_t w1, uint32_t w2,
                     uint32_t w3) {
  GSI_CHECK(gba_offsets.size() >= upper_bounds.size());
  ChunkPlan plan;
  const size_t rows = upper_bounds.size();
  if (!load_balance) {
    plan.pooled.reserve(rows);
    for (uint32_t i = 0; i < rows; ++i) {
      plan.pooled.push_back(
          Chunk{i, 0, upper_bounds[i], gba_offsets[i], 0, i});
    }
    return plan;
  }
  GSI_CHECK_MSG(w1 > w2 && w2 > w3 && w3 >= 32, "require W1 > W2 > W3 >= 32");
  uint32_t slot = 0;
  for (uint32_t i = 0; i < rows; ++i) {
    uint32_t bound = upper_bounds[i];
    uint64_t base = gba_offsets[i];
    if (bound > w1) {
      plan.huge.push_back(SplitRow(i, bound, base, w3, slot));
    } else if (bound > w2) {
      plan.per_block.push_back(SplitRow(i, bound, base, w3, slot));
    } else if (bound > w3) {
      std::vector<Chunk> cs = SplitRow(i, bound, base, w3, slot);
      plan.pooled.insert(plan.pooled.end(), cs.begin(), cs.end());
    } else {
      plan.pooled.push_back(Chunk{i, 0, bound, base, 0, slot++});
    }
  }
  return plan;
}

std::vector<ShardRange> PartitionByWorkload(std::span<const uint64_t> weights,
                                            size_t max_shards) {
  std::vector<ShardRange> out;
  const size_t n = weights.size();
  if (n == 0 || max_shards == 0) return out;
  auto cost = [&](size_t i) { return std::max<uint64_t>(1, weights[i]); };
  uint64_t remaining = 0;
  for (size_t i = 0; i < n; ++i) remaining += cost(i);

  size_t begin = 0;
  for (size_t s = 0; s < max_shards && begin < n; ++s) {
    const size_t shards_left = max_shards - s;
    const uint64_t target = (remaining + shards_left - 1) / shards_left;
    ShardRange r;
    r.begin = begin;
    size_t end = begin;
    while (end < n) {
      // Keep one item per still-unfilled shard so trailing devices are
      // never starved by a hot prefix.
      if (r.weight > 0 && n - end <= shards_left - 1) break;
      if (r.weight >= target && shards_left > 1) break;
      r.weight += cost(end);
      ++end;
    }
    r.end = end;
    remaining -= r.weight;
    begin = end;
    out.push_back(r);
  }
  // The loop always covers [0, n): every shard takes >= 1 item and the
  // last shard (shards_left == 1) never breaks early.
  GSI_CHECK(begin == n);
  return out;
}

}  // namespace gsi
