#ifndef GSI_GSI_LOAD_BALANCE_H_
#define GSI_GSI_LOAD_BALANCE_H_

#include <cstdint>
#include <span>
#include <vector>

namespace gsi {

/// A unit of join work: one slice of one intermediate-table row's
/// first-edge neighbor list. Without load balancing every row is a single
/// chunk; the 4-layer scheme (Section VI-A) splits heavy rows into W3-sized
/// chunks and distributes them.
struct Chunk {
  uint32_t row = 0;
  uint32_t pos_begin = 0;  ///< slice of the first-edge upper-bound list
  uint32_t pos_end = 0;
  uint64_t gba_begin = 0;  ///< output offset in the combined GBA buffer
  uint32_t count = 0;      ///< survivors after set ops (filled by the pass)
  /// Index in (row, position) order over all of the step's chunks: where
  /// Pass A stores the count and where the link kernel scans it.
  uint32_t slot = 0;
};

/// Placement of chunks according to the 4-layer balance scheme:
///  1. rows with workload > W1 each get their own kernel (`huge`);
///  2. rows with workload in (W2, W1] are handled by one whole block each
///     (`per_block`);
///  3. rows in (W3, W2] are split into W3-chunks pooled across warps;
///  4. rows <= W3 run one-warp-per-row. (3 and 4 share `pooled`.)
struct ChunkPlan {
  std::vector<std::vector<Chunk>> huge;
  std::vector<std::vector<Chunk>> per_block;
  std::vector<Chunk> pooled;

  size_t total_chunks() const {
    size_t t = pooled.size();
    for (const auto& v : huge) t += v.size();
    for (const auto& v : per_block) t += v.size();
    return t;
  }

  /// Gathers pointers to all chunks in deterministic execution order
  /// (pooled, then per-block rows, then huge rows).
  std::vector<Chunk*> AllChunks();
};

/// Builds the chunk plan for one join iteration. `upper_bounds[i]` is the
/// workload estimate |N(v'_i, l0)| of row i; `gba_offsets[i]` its buffer
/// offset (exclusive prefix sum of the bounds). With `load_balance` false,
/// one chunk per row. W2 is the block size in threads (1024); chunking
/// granularity within blocks is W3 *elements* per warp. Chunks are numbered
/// (Chunk::slot) in (row, position) order, whatever layer they land in.
ChunkPlan PlanChunks(std::span<const uint32_t> upper_bounds,
                     std::span<const uint64_t> gba_offsets, bool load_balance,
                     uint32_t w1, uint32_t w2, uint32_t w3);

/// One contiguous slice [begin, end) of a work list assigned to a device
/// shard, with its estimated total workload.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
  uint64_t weight = 0;
};

/// Splits indices [0, weights.size()) into at most `max_shards` contiguous,
/// non-empty ranges of near-equal total weight (greedy: each shard targets
/// the mean of the remaining weight). The device-level analogue of
/// PlanChunks: the sharded engine feeds it the same per-row first-edge
/// upper bounds so one hot shard does not serialize the merge the way an
/// equal-candidate-count split would. Zero weights count as 1 so empty-ish
/// rows still spread. Returns fewer than `max_shards` ranges when there are
/// fewer items than shards; empty input yields no ranges.
std::vector<ShardRange> PartitionByWorkload(std::span<const uint64_t> weights,
                                            size_t max_shards);

}  // namespace gsi

#endif  // GSI_GSI_LOAD_BALANCE_H_
