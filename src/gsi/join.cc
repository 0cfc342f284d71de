#include "gsi/join.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "gpusim/launch.h"
#include "gpusim/scan.h"
#include "gsi/dup_removal.h"
#include "gsi/fault.h"
#include "gsi/set_ops.h"
#include "util/check.h"

namespace gsi {
namespace {

using gpusim::Block;
using gpusim::kWarpSize;
using gpusim::Warp;

/// Charged read of row r of the intermediate table into a host vector
/// (one warp streams the row, then keeps it in shared memory): the
/// two-step scheme's per-warp read.
std::vector<VertexId> ReadRow(Warp& w, const MatchTable& m, size_t r) {
  std::span<const VertexId> vals =
      w.LoadRange(m.data(), r * m.cols(), m.cols());
  w.SharedAccess(m.cols());
  return std::vector<VertexId>(vals.begin(), vals.end());
}

/// A block's distinct rows of M, read once into shared memory for all of
/// its warps (Pass A and link).
class StagedRows {
 public:
  /// Reads `rows` (ascending; chunks of one row repeat it) in one
  /// coalesced pass: the block's warps take the 128B lines the distinct
  /// rows cover in turn, each gathering its line's ids (one transaction)
  /// and writing them to shared memory.
  StagedRows(Block& block, const MatchTable& m, std::vector<uint32_t> rows)
      : cols_(m.cols()), rows_(std::move(rows)) {
    GSI_CHECK(std::is_sorted(rows_.begin(), rows_.end()));
    rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
    constexpr uint64_t kIdsPerLine =
        gpusim::kTransactionBytes / sizeof(VertexId);
    values_.reserve(rows_.size() * cols_);
    uint64_t idx[kWarpSize];
    VertexId vals[kWarpSize];
    size_t lanes = 0;
    size_t lines = 0;
    auto load_line = [&] {
      Warp& w = block.warp(lines++ % block.num_warps());
      w.Gather(m.data(), std::span<const uint64_t>(idx, lanes),
               std::span<VertexId>(vals, lanes));
      w.SharedAccess(lanes);
      values_.insert(values_.end(), vals, vals + lanes);
      lanes = 0;
    };
    // Ids ascend, so each line's ids are consecutive and at most 32.
    for (uint32_t r : rows_) {
      for (size_t j = 0; j < cols_; ++j) {
        const uint64_t i = uint64_t{r} * cols_ + j;
        if (lanes > 0 && i / kIdsPerLine != idx[0] / kIdsPerLine) {
          load_line();
        }
        idx[lanes++] = i;
      }
    }
    if (lanes > 0) load_line();
  }

  /// Row r of M, which must be one of the staged rows.
  std::span<const VertexId> Row(uint32_t r) const {
    auto it = std::lower_bound(rows_.begin(), rows_.end(), r);
    GSI_CHECK(it != rows_.end() && *it == r);
    return std::span<const VertexId>(values_).subspan(
        static_cast<size_t>(it - rows_.begin()) * cols_, cols_);
  }

  /// Shared-memory bytes the staged rows take.
  uint64_t bytes() const { return values_.size() * sizeof(VertexId); }

 private:
  size_t cols_;
  std::vector<uint32_t> rows_;
  std::vector<VertexId> values_;
};

/// Pass A's staged-probe rule: whether a block stages C(u)'s bitset in
/// shared memory (CandidateSet::StageBitset) for its first-edge membership
/// probes. It does when
///  - its distinct first-edge slice elements (the sum of pos_end -
///    pos_begin over its chunks, a (v, slice) pair counted once under
///    duplicate removal, which probes it once as Algorithm 5 shares it)
///    reach the bitset's 128B line count, so that its probes, up to one
///    transaction per element, would load at least as many lines as
///    staging does; and
///  - the bitset fits in the block's shared memory beside the block's
///    staged rows and its other shared buffers (a one-block step's link
///    buffers). The duplicate-removal cache then takes what is left.
/// The rule reads only the chunk plan, the bitset's size and the block's
/// shared memory.
bool StagesBitset(const gpusim::SharedMemory& shared,
                  std::span<Chunk* const> chunks, const StagedRows& rows,
                  const LinkEdge& e0, const CandidateSet& cand,
                  bool duplicate_removal) {
  if (cand.bitset_lines() == 0 ||
      shared.used_bytes() + rows.bytes() + cand.bitset_bytes() >
          shared.capacity_bytes()) {
    return false;
  }
  std::set<std::tuple<VertexId, uint32_t, uint32_t>> slices;
  uint64_t elements = 0;
  for (const Chunk* c : chunks) {
    if (c->pos_begin == c->pos_end) continue;
    if (duplicate_removal &&
        !slices.emplace(rows.Row(c->row)[e0.prev_column], c->pos_begin,
                        c->pos_end)
             .second) {
      continue;
    }
    elements += c->pos_end - c->pos_begin;
  }
  return elements >= cand.bitset_lines();
}

/// A link block's shared-memory buffers, one entry per chunk: its survivor
/// count and first output row and, with a next step, its rows' bound sum
/// and first GBA offset.
struct LinkBuffers {
  std::span<uint32_t> counts;
  std::span<uint64_t> first_row;
  std::span<uint64_t> sums;
  std::span<uint64_t> first_offset;

  static uint64_t Bytes(size_t chunks, bool next) {
    return chunks * (sizeof(uint32_t) + sizeof(uint64_t) +
                     (next ? 2 * sizeof(uint64_t) : 0));
  }

  static LinkBuffers Alloc(gpusim::SharedMemory& shared, size_t chunks,
                           bool next) {
    LinkBuffers b;
    b.counts = shared.Alloc<uint32_t>(chunks);
    b.first_row = shared.Alloc<uint64_t>(chunks);
    if (next) {
      b.sums = shared.Alloc<uint64_t>(chunks);
      b.first_offset = shared.Alloc<uint64_t>(chunks);
    }
    return b;
  }
};

/// Whether a chunk plan is one block: no Layer-1 row, and either at most
/// `wpb` pooled chunks and no Layer-2 row, or one Layer-2 row alone. Its
/// chunks (ChunkPlan::AllChunks) are then in slot order.
bool IsOneBlock(const ChunkPlan& plan, size_t wpb) {
  if (!plan.huge.empty()) return false;
  if (plan.per_block.empty()) return plan.pooled.size() <= wpb;
  return plan.per_block.size() == 1 && plan.pooled.empty();
}

/// Block-cooperative store of `vals` to b[begin ...], which the block
/// staged in shared memory: the block's warps take the range's 128B lines
/// in turn, one store transaction per line.
template <typename T>
void StoreLines(Block& block, gpusim::DeviceBuffer<T>& b, size_t begin,
                std::span<const T> vals) {
  constexpr size_t kPerLine = gpusim::kTransactionBytes / sizeof(T);
  size_t lines = 0;
  for (size_t i = 0; i < vals.size();) {
    // Buffers are 128B-aligned, so lines start at multiples of kPerLine.
    const size_t end = std::min(
        vals.size(), ((begin + i) / kPerLine + 1) * kPerLine - begin);
    Warp& w = block.warp(lines++ % block.num_warps());
    w.SharedAccess(end - i);
    w.StoreRange(b, begin + i, vals.subspan(i, end - i));
    i = end;
  }
}

}  // namespace

void JoinEngine::ProcessChunk(Warp& w, Chunk& chunk,
                              std::span<const VertexId> row,
                              const JoinStep& step, const CandidateSet& cand,
                              gpusim::DeviceBuffer<VertexId>* gba,
                              BlockExtractionCache& cache,
                              std::vector<VertexId>& result) {
  result.clear();
  SetOpFlags flags;
  flags.naive = options_.set_op == SetOpKind::kNaive;
  flags.write_cache = options_.write_cache;
  const uint64_t gba_at = chunk.gba_begin;

  // --- First edge e0 (Algorithm 3, Lines 9-11). The GPU-friendly mode
  // tests membership before the row subtraction, so the block shares one
  // probe of each distinct slice.
  const LinkEdge& e0 = step.links[0];
  VertexId v0 = row[e0.prev_column];
  if (flags.naive) {
    dev_->ChargeKernelLaunch();
    const std::vector<VertexId>& input = cache.GetSlice(
        w, *store_, v0, e0.label, chunk.pos_begin, chunk.pos_end);
    FilterFirstEdge(w, input, row, cand, gba, gba_at, result);
  } else {
    const std::vector<VertexId>& members = cache.GetMembers(
        w, *store_, v0, e0.label, chunk.pos_begin, chunk.pos_end, cand);
    SubtractRow(w, members, row, flags.write_cache, gba, gba_at, result);
  }

  // --- Subsequent linking edges (Line 13).
  for (size_t e = 1; e < step.links.size() && !result.empty(); ++e) {
    const LinkEdge& link = step.links[e];
    VertexId ve = row[link.prev_column];
    if (flags.naive) dev_->ChargeKernelLaunch();
    if (flags.naive || !options_.load_balance) {
      // Whole-list read (batch-by-batch in the GPU-friendly mode).
      const std::vector<VertexId>& other = cache.GetSlice(
          w, *store_, ve, link.label, 0, std::numeric_limits<uint32_t>::max());
      IntersectSorted(w, result, other, flags, gba, gba_at);
    } else {
      // Chunked rows use bounded reads so parallelizing a heavy row does
      // not re-stream whole lists.
      const std::vector<VertexId>& other = cache.GetValueRange(
          w, *store_, ve, link.label, result.front(), result.back());
      IntersectSorted(w, result, other, flags, gba, gba_at);
    }
  }
  chunk.count = static_cast<uint32_t>(result.size());
}

Result<JoinEngine::SizedTable> JoinEngine::StepPrealloc(
    const MatchTable& m, const JoinStep& step, const JoinStep* next,
    const CandidateSet& cand, const StepBounds& sizing) {
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  const size_t wpb = static_cast<size_t>(dev_->config().warps_per_block);
  GSI_CHECK(sizing.bounds.size() == rows && sizing.offsets.size() == rows + 1);

  // --- Algorithm 4: the GBA holds every row's first-edge upper bound. The
  // host reads one scalar of the sizing, the GBA's size.
  const uint64_t gba_size = sizing.offsets[rows];
  auto gba = dev_->Alloc<VertexId>(gba_size);

  // --- Chunk placement: the 4-layer load-balance scheme or 1 chunk/row.
  ChunkPlan plan = PlanChunks(
      std::span<const uint32_t>(sizing.bounds.data(), rows),
      std::span<const uint64_t>(sizing.offsets.data(), rows + 1),
      options_.load_balance, options_.w1,
      static_cast<uint32_t>(wpb) * kWarpSize, options_.w3);
  const size_t num_chunks = plan.total_chunks();
  stats_.total_chunks += num_chunks;
  std::vector<Chunk*> all_chunks = plan.AllChunks();

  // --- The one-block rule: a step whose chunk plan is one block, and
  // whose GBA size is within max_rows and within a block of W3-entry
  // chunks (warps_per_block x W3), runs Pass A and link as one kernel of
  // one block. Its M' and next sizing are allocated before the launch at
  // the GBA size, which bounds the survivors (so the step cannot pass the
  // row budget), and trimmed to the survivor count after it. The
  // warps_per_block x W3 cap bounds that allocation: under load balancing
  // a one-block plan's pooled chunks already hold at most W3 entries each,
  // but without it every row is one chunk of any size, and a step of a
  // few hub rows could otherwise size M' at up to max_rows. The block's
  // link buffers must also fit its shared memory, which only an extreme
  // W1/W3 ratio (a Layer-2 row of thousands of chunks) breaks.
  const bool one_block =
      IsOneBlock(plan, wpb) &&
      gba_size <= std::min<uint64_t>(options_.max_rows,
                                     uint64_t{wpb} * options_.w3) &&
      LinkBuffers::Bytes(num_chunks, next != nullptr) <=
          dev_->config().shared_memory_bytes;

  // --- Pass A's block body (Algorithm 3, Lines 2-13). The block reads its
  // chunks' rows of M once, shares its first-edge reads and membership
  // probes through its cache (Algorithm 5), and stages each chunk's
  // survivor count in shared memory. Under the GPU-friendly set op, a
  // block whose first-edge slices hold at least as many elements as C(u)'s
  // bitset has lines also stages the bitset in shared memory, and its
  // probes read that copy (StagesBitset). The cache takes at most its
  // 32 KB of the shared memory the block has left. Returns the staged
  // rows of M.
  std::vector<VertexId> scratch;
  const bool warp_friendly = options_.set_op == SetOpKind::kWarpFriendly;
  auto pass_a = [&](Block& block, std::span<Chunk* const> chunks) {
    std::vector<uint32_t> busy;  // rows with first-edge work
    for (const Chunk* c : chunks) {
      if (c->pos_begin < c->pos_end) busy.push_back(c->row);
    }
    StagedRows staged(block, m, std::move(busy));
    gpusim::SharedMemory& shared = block.shared();
    const bool stage_bitset =
        warp_friendly && StagesBitset(shared, chunks, staged, step.links[0],
                                      cand, options_.duplicate_removal);
    if (stage_bitset) {
      cand.StageBitset(block);
      ++stats_.staged_blocks;
    }
    const uint64_t taken = shared.used_bytes() + staged.bytes();
    const uint64_t left = taken < shared.capacity_bytes()
                              ? shared.capacity_bytes() - taken
                              : 0;
    BlockExtractionCache cache(
        options_.duplicate_removal,
        std::min(BlockExtractionCache::kCapacityBytes, left), stage_bitset);
    for (size_t i = 0; i < chunks.size(); ++i) {
      Chunk& chunk = *chunks[i];
      Warp& w = block.warp(i % block.num_warps());
      chunk.count = 0;
      if (chunk.pos_begin < chunk.pos_end) {
        ProcessChunk(w, chunk, staged.Row(chunk.row), step, cand, &gba,
                     cache, scratch);
      }
      w.SharedAccess(1);
    }
    stats_.dup_cache_hits += cache.hits();
    stats_.dup_cache_misses += cache.misses();
    return staged;
  };

  // --- Link's block body (Lines 16-21): writes the rows of M' of
  // `chunks`, consecutive slots whose counts and first output rows `buf`
  // holds, from `m_rows`, which holds every row of M they extend; M' has
  // `new_rows` rows. Output rows are assigned in (row, position) order
  // rather than the Pass A layer order, so the output row order depends
  // only on the input rows, not on which load-balance layer each row
  // landed in. The join lanes rely on this: a run over any subsequence of
  // the seeds produces exactly the rows (and order) of that subsequence's
  // portion of a whole run.
  //
  // With a next step, the block also sizes its rows of M' for it
  // (Algorithm 4). A warp looks up its rows' next first-edge bounds
  // |N(v, l0')| as it writes them: once per chunk when e0' binds an older
  // column, which every row of the chunk shares, and once per row when it
  // binds the new one. The block stages its chunks' 64-bit bound sums and
  // scans them (chained to the blocks before it by `gba_scan`'s look-back
  // in the link kernel), which gives every chunk its first GBA offset; the
  // warp then stages its rows' offsets. A block's rows of M' are
  // contiguous, so its warps store the staged bounds and offsets together,
  // one 128B line per store.
  MatchTable table;
  StepBounds next_sizing;  // stays empty without a next step
  // Whether every row of a chunk shares its e0' binding.
  const bool shared_binding =
      next != nullptr && next->links[0].prev_column < cols;
  auto link = [&](Block& block, std::span<Chunk* const> chunks,
                  const LinkBuffers& buf, const StagedRows& m_rows,
                  uint64_t new_rows, gpusim::LookbackScan* gba_scan) {
    const size_t n = chunks.size();
    if (n == 0) return;
    // The block's rows of M' are [block_first, block_end).
    const uint64_t block_first = buf.first_row[0];
    const uint64_t block_end = buf.first_row[n - 1] + buf.counts[n - 1];
    for (size_t i = 0; i < n; ++i) {
      const uint32_t count = buf.counts[i];
      if (count == 0) continue;
      Warp& w = block.warp(i % block.num_warps());
      const Chunk& c = *chunks[i];
      w.SharedAccess(1);
      std::span<const VertexId> row = m_rows.Row(c.row);
      std::span<const VertexId> out = w.LoadRange(gba, c.gba_begin, count);
      const uint64_t first = buf.first_row[i];
      for (size_t k = 0; k < count; ++k) {
        for (size_t j = 0; j < cols; ++j) table.Set(first + k, j, row[j]);
        table.Set(first + k, cols, out[k]);
      }
      // The chunk's output region is contiguous: one coalesced streaming
      // store for count * (cols+1) ids.
      w.ChargeStoreTransactions(gpusim::Device::RangeTransactions(
          table.data().AddressOf(first * (cols + 1)),
          static_cast<uint64_t>(count) * (cols + 1) * sizeof(VertexId)));
      w.SharedAccess(static_cast<uint64_t>(count) * (cols + 1));
      if (next == nullptr) continue;

      // The rows' bounds, staged in shared memory for the block's store.
      const LinkEdge& e0 = next->links[0];
      std::span<uint32_t> bounds(next_sizing.bounds.data() + first, count);
      if (shared_binding) {
        const uint32_t bound = static_cast<uint32_t>(
            store_->NeighborCountUpperBound(w, row[e0.prev_column], e0.label));
        std::fill(bounds.begin(), bounds.end(), bound);
        buf.sums[i] = uint64_t{bound} * count;
        w.Alu(1);
      } else {
        buf.sums[i] = 0;
        for (size_t k = 0; k < count; ++k) {
          bounds[k] = static_cast<uint32_t>(
              store_->NeighborCountUpperBound(w, out[k], e0.label));
          buf.sums[i] += bounds[k];
        }
      }
      w.SharedAccess(uint64_t{count} + 1);
    }
    if (next == nullptr) return;

    StoreLines(block, next_sizing.bounds, block_first,
               std::span<const uint32_t>(
                   next_sizing.bounds.data() + block_first,
                   block_end - block_first));
    if (gba_scan != nullptr) {
      gba_scan->ScanBlock(block, buf.sums, buf.first_offset);
    } else {
      gpusim::BlockScan(block, buf.sums, buf.first_offset);
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t count = buf.counts[i];
      if (count == 0) continue;
      Warp& w = block.warp(i % block.num_warps());
      const uint64_t first = buf.first_row[i];
      const uint32_t* bounds = next_sizing.bounds.data() + first;
      uint64_t* offsets = next_sizing.offsets.data() + first;
      uint64_t at = buf.first_offset[i];
      for (size_t k = 0; k < count; ++k) {
        offsets[k] = at;
        at += bounds[k];
      }
      if (shared_binding) {
        // first offset + k * the chunk's one bound, staged in shared memory
        w.Alu(count);
        w.SharedAccess(count);
      } else {
        // The warp scans its rows' bounds, staged in shared memory across
        // the block's scan: LookbackScan's per-value charge.
        w.SharedAccess(2 * static_cast<uint64_t>(count));
        w.Alu(2 * static_cast<uint64_t>(count));
      }
      // The chunk holding M''s last row also stages the end of the GBA.
      if (first + count == new_rows) offsets[count] = at;
    }
    // The block holding M''s last row also stores the end of the GBA.
    const bool last = block_end > block_first && block_end == new_rows;
    StoreLines(block, next_sizing.offsets, block_first,
               std::span<const uint64_t>(
                   next_sizing.offsets.data() + block_first,
                   block_end - block_first + (last ? 1 : 0)));
  };
  auto alloc_output = [&](uint64_t out_rows) {
    table = MatchTable::Alloc(*dev_, out_rows, cols + 1);
    if (next != nullptr) {
      next_sizing = StepBounds{dev_->Alloc<uint32_t>(out_rows),
                               dev_->Alloc<uint64_t>(out_rows + 1)};
    }
  };
  auto sized_table = [&]() {
    if (next == nullptr) return SizedTable{std::move(table), std::nullopt};
    return SizedTable{std::move(table), std::move(next_sizing)};
  };
  auto survivors = dev_->Alloc<uint64_t>(1);

  if (one_block) {
    // --- One kernel, one block: Pass A, then the block scans its chunks'
    // survivor counts in shared memory (no look-back: no block precedes
    // it) and stores their total for the host's one scalar read, and
    // links M' and the next sizing from the rows of M it already staged.
    ++stats_.fused_steps;
    alloc_output(gba_size);
    gpusim::LaunchBlocks(*dev_, 1, [&](Block& block) {
      const LinkBuffers buf =
          LinkBuffers::Alloc(block.shared(), num_chunks, next != nullptr);
      const StagedRows staged = pass_a(block, all_chunks);
      for (size_t i = 0; i < num_chunks; ++i) {
        GSI_CHECK(all_chunks[i]->slot == i);
        buf.counts[i] = all_chunks[i]->count;
      }
      const uint64_t total =
          gpusim::BlockScan(block, buf.counts, buf.first_row);
      block.warp(0).Store(survivors, 0, total);
      link(block, all_chunks, buf, staged, total, nullptr);
    });
    const uint64_t new_rows = survivors[0];
    table.Truncate(new_rows);
    if (next != nullptr) {
      next_sizing.bounds.Truncate(new_rows);
      next_sizing.offsets.Truncate(new_rows + 1);
    }
    return sized_table();
  }

  // --- Pass A kernels: each block stores its chunks' counts to their
  // slots in coalesced 32-wide scatters and adds their sum to the step's
  // survivor counter (one atomic add, charged as one store).
  auto counts = dev_->Alloc<uint32_t>(num_chunks);
  auto run_block = [&](Block& block, std::span<Chunk* const> chunks) {
    pass_a(block, chunks);
    uint64_t sum = 0;
    for (const Chunk* c : chunks) sum += c->count;
    Warp& w = block.warp(0);
    for (size_t b = 0; b < chunks.size(); b += kWarpSize) {
      const size_t lanes = std::min<size_t>(kWarpSize, chunks.size() - b);
      uint64_t idx[kWarpSize] = {};
      uint32_t vals[kWarpSize] = {};
      for (size_t k = 0; k < lanes; ++k) {
        idx[k] = chunks[b + k]->slot;
        vals[k] = chunks[b + k]->count;
      }
      w.SharedAccess(lanes);
      w.Scatter(counts, std::span<const uint64_t>(idx, lanes),
                std::span<const uint32_t>(vals, lanes));
    }
    w.Alu(chunks.size());
    w.Store(survivors, 0, survivors[0] + sum);
  };
  auto pointers = [](std::vector<Chunk>& row_chunks) {
    std::vector<Chunk*> ptrs;
    ptrs.reserve(row_chunks.size());
    for (Chunk& c : row_chunks) ptrs.push_back(&c);
    return ptrs;
  };
  // Layers 2-4 in one launch: the pooled chunks of Layers 3/4, 32 per
  // block, then one block per heavy Layer-2 row.
  const std::vector<Chunk*> pooled = pointers(plan.pooled);
  const size_t pooled_blocks = (pooled.size() + wpb - 1) / wpb;
  if (pooled_blocks + plan.per_block.size() > 0) {
    gpusim::LaunchBlocks(
        *dev_, pooled_blocks + plan.per_block.size(), [&](Block& block) {
          if (block.id() < pooled_blocks) {
            const size_t begin = block.id() * wpb;
            run_block(block,
                      std::span<Chunk* const>(
                          pooled.data() + begin,
                          std::min(wpb, pooled.size() - begin)));
          } else {
            run_block(block,
                      pointers(plan.per_block[block.id() - pooled_blocks]));
          }
        });
  }
  for (auto& row_chunks : plan.huge) {
    // Layer 1: a dedicated kernel per extreme row (this is what makes a
    // too-small W1 expensive — kernel-launch overhead, Table IX).
    const std::vector<Chunk*> ptrs = pointers(row_chunks);
    gpusim::LaunchBlocks(*dev_, (ptrs.size() + wpb - 1) / wpb,
                         [&](Block& block) {
                           const size_t begin = block.id() * wpb;
                           run_block(block,
                                     std::span<Chunk* const>(
                                         ptrs.data() + begin,
                                         std::min(wpb, ptrs.size() - begin)));
                         });
  }

  // --- Lines 14-15: the survivor total sizes M' (the host's second and
  // last scalar read of the step).
  const uint64_t new_rows = survivors[0];
  if (new_rows > options_.max_rows) {
    return Status::ResourceExhausted(
        "intermediate table exceeds max_rows: " + std::to_string(new_rows));
  }

  // --- The link kernel, one warp per chunk in slot order. Warp 0 of each
  // block stages the block's 32 counts in one coalesced read; the block
  // scans them and chains to the blocks before it by decoupled look-back,
  // which gives every chunk its first output row, and reads the rows of M
  // its survivors extend once, for all of its warps. The next sizing's
  // bound sums chain by a second look-back.
  std::vector<Chunk*> linked(num_chunks);
  for (Chunk* c : all_chunks) linked[c->slot] = c;
  alloc_output(new_rows);
  const size_t link_blocks = (num_chunks + wpb - 1) / wpb;
  gpusim::LookbackScan row_scan(*dev_, link_blocks);
  gpusim::LookbackScan gba_scan(*dev_, next != nullptr ? link_blocks : 0);
  gpusim::LaunchBlocks(*dev_, link_blocks, [&](Block& block) {
    const size_t begin = block.id() * wpb;
    const size_t n = std::min(wpb, num_chunks - begin);
    const LinkBuffers buf =
        LinkBuffers::Alloc(block.shared(), n, next != nullptr);
    std::span<const uint32_t> loaded =
        block.warp(0).LoadRange(counts, begin, n);
    std::copy(loaded.begin(), loaded.end(), buf.counts.begin());
    row_scan.ScanBlock(block, buf.counts, buf.first_row);
    std::vector<uint32_t> extended;  // rows of M with survivors
    for (size_t i = 0; i < n; ++i) {
      if (buf.counts[i] > 0) extended.push_back(linked[begin + i]->row);
    }
    const StagedRows m_rows(block, m, std::move(extended));
    link(block, std::span<Chunk* const>(linked).subspan(begin, n), buf,
         m_rows, new_rows, &gba_scan);
  });
  GSI_CHECK(row_scan.total() == new_rows);
  GSI_CHECK(next == nullptr ||
            gba_scan.total() == next_sizing.offsets[new_rows]);
  return sized_table();
}

Result<JoinEngine::SizedTable> JoinEngine::StepTwoStep(
    const MatchTable& m, const JoinStep& step, const CandidateSet& cand) {
  const size_t rows = m.rows();
  const size_t cols = m.cols();

  auto counts = dev_->Alloc<uint32_t>(rows);
  std::vector<Chunk> chunks(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    chunks[i] = Chunk{i, 0, std::numeric_limits<uint32_t>::max(), 0, 0, i};
  }

  // --- Step 1: count valid join results (the join runs in full, results
  // are discarded).
  std::vector<VertexId> scratch;
  BlockExtractionCache no_cache(/*enabled=*/false);
  gpusim::Launch(*dev_, std::max<size_t>(1, rows), [&](Warp& w) {
    size_t i = w.global_id();
    if (i >= rows) return;
    ProcessChunk(w, chunks[i], ReadRow(w, m, i), step, cand, /*gba=*/nullptr,
                 no_cache, scratch);
    w.Store(counts, i, chunks[i].count);
  });

  auto out_offsets = dev_->Alloc<uint64_t>(rows + 1);
  uint64_t new_rows = gpusim::ExclusiveScan(*dev_, counts, out_offsets);
  if (new_rows > options_.max_rows) {
    return Status::ResourceExhausted(
        "intermediate table exceeds max_rows: " + std::to_string(new_rows));
  }

  // --- Step 2: compute the very same join again and write results to the
  // pre-computed addresses (Figure 3b).
  MatchTable next = MatchTable::Alloc(*dev_, new_rows, cols + 1);
  gpusim::Launch(*dev_, std::max<size_t>(1, rows), [&](Warp& w) {
    size_t i = w.global_id();
    if (i >= rows) return;
    const std::vector<VertexId> row = ReadRow(w, m, i);
    ProcessChunk(w, chunks[i], row, step, cand, /*gba=*/nullptr, no_cache,
                 scratch);
    if (scratch.empty()) return;
    uint64_t out = out_offsets[i];
    for (size_t k = 0; k < scratch.size(); ++k) {
      for (size_t j = 0; j < cols; ++j) next.Set(out + k, j, row[j]);
      next.Set(out + k, cols, scratch[k]);
    }
    w.ChargeStoreTransactions(gpusim::Device::RangeTransactions(
        next.data().AddressOf(out * (cols + 1)),
        scratch.size() * (cols + 1) * sizeof(VertexId)));
  });
  stats_.total_chunks += rows;
  return SizedTable{std::move(next), std::nullopt};
}

JoinEngine::SizedTable JoinEngine::Seed(
    const JoinPlan& plan, const gpusim::DeviceBuffer<VertexId>& seed) {
  stats_ = JoinStats();
  GSI_CHECK(!plan.order.empty());
  MatchTable m = MatchTable::FromColumn(
      *dev_, std::vector<VertexId>(seed.data(), seed.data() + seed.size()));
  const size_t n = m.rows();
  stats_.peak_rows = n;
  if (options_.output_scheme != OutputScheme::kPreallocCombine ||
      plan.steps.empty()) {
    gpusim::Launch(*dev_, std::max<size_t>(1, (n + 1023) / 1024),
                   [&](Warp& w) {
                     size_t begin = w.global_id() * 1024;
                     if (begin >= n) return;
                     size_t len = std::min<size_t>(1024, n - begin);
                     w.StoreRange(m.data(), begin,
                                  w.LoadRange(seed, begin, len));
                   });
    return SizedTable{std::move(m), std::nullopt};
  }

  // Step 0's bounds-and-offsets kernel, one warp per 32 rows, seeds M on
  // the way: each warp streams its 32 seed candidates into the one-column
  // table, and they are the rows' e0 bindings. Each block stages its 1024
  // bounds in shared memory, scans them and chains to the blocks before it
  // by decoupled look-back.
  const JoinStep& step = plan.steps[0];
  GSI_CHECK(step.links[0].prev_column == 0);
  const Label l0 = step.links[0].label;
  const size_t block_rows =
      static_cast<size_t>(dev_->config().warps_per_block) * kWarpSize;
  const size_t num_blocks = (n + block_rows - 1) / block_rows;
  StepBounds sizing{dev_->Alloc<uint32_t>(n), dev_->Alloc<uint64_t>(n + 1)};
  gpusim::LookbackScan scan(*dev_, num_blocks);
  gpusim::LaunchBlocks(*dev_, num_blocks, [&](Block& block) {
    const size_t first = block.id() * block_rows;
    const size_t rows = std::min(block_rows, n - first);
    std::span<uint32_t> vals = block.shared().Alloc<uint32_t>(rows);
    std::span<uint64_t> prefix = block.shared().Alloc<uint64_t>(rows);
    for (size_t i = 0; i * kWarpSize < rows; ++i) {
      Warp& w = block.warp(i);
      const size_t r0 = first + i * kWarpSize;
      const size_t lanes = std::min<size_t>(kWarpSize, n - r0);
      std::span<const VertexId> vs = w.LoadRange(seed, r0, lanes);
      w.StoreRange(m.data(), r0, vs);
      for (size_t k = 0; k < lanes; ++k) {
        vals[i * kWarpSize + k] = static_cast<uint32_t>(
            store_->NeighborCountUpperBound(w, vs[k], l0));
      }
      w.StoreRange(sizing.bounds, r0,
                   std::span<const uint32_t>(vals.data() + i * kWarpSize,
                                             lanes));
    }
    scan.ScanBlock(block, vals, prefix);
    for (size_t i = 0; i * kWarpSize < rows; ++i) {
      const size_t r0 = first + i * kWarpSize;
      const size_t lanes = std::min<size_t>(kWarpSize, n - r0);
      std::copy_n(prefix.begin() + i * kWarpSize, lanes,
                  sizing.offsets.data() + r0);
      // The warp holding the last row also stores the end of the GBA.
      const bool last = r0 + lanes == n;
      if (last) sizing.offsets[n] = scan.total();
      block.warp(i).StoreRange(
          sizing.offsets, r0,
          std::span<const uint64_t>(sizing.offsets.data() + r0,
                                    lanes + (last ? 1 : 0)));
    }
  });
  return SizedTable{std::move(m), std::move(sizing)};
}

Result<JoinEngine::SizedTable> JoinEngine::RunSteps(
    const JoinPlan& plan, const std::vector<CandidateSet>& candidates,
    SizedTable m, size_t first_step, size_t last_step) {
  const bool prealloc =
      options_.output_scheme == OutputScheme::kPreallocCombine;
  last_step = std::min(last_step, plan.steps.size());
  stats_.peak_rows = std::max(stats_.peak_rows, m.table.rows());
  // Fail fast on a device that already tripped (e.g. during seeding or an
  // earlier stage) — the table built so far is considered lost.
  if (Status h = CheckDeviceHealthy(*dev_, "join"); !h.ok()) return h;
  const obs::DeviceCycleClock clock(*dev_);
  for (size_t s = first_step; s < last_step; ++s) {
    const JoinStep& step = plan.steps[s];
    GSI_CHECK_MSG(!step.links.empty(), "join step without linking edges");
    const size_t rows = m.table.rows();
    const StepBounds* sizing = m.sizing ? &*m.sizing : nullptr;
    obs::ScopedSpan span(trace_, "join_step", clock);
    span.AddAttr("step", static_cast<uint64_t>(s));
    span.AddAttr("query_vertex", static_cast<uint64_t>(step.u));
    span.AddAttr("rows_in", static_cast<uint64_t>(rows));
    if (prealloc) {
      GSI_CHECK_MSG(sizing != nullptr && sizing->bounds.size() == rows,
                    "a Prealloc-Combine step needs its table's sizing");
      span.AddAttr("gba_entries", sizing->offsets[rows]);
    }
    const JoinStep* following =
        s + 1 < plan.steps.size() ? &plan.steps[s + 1] : nullptr;
    const size_t staged_before = stats_.staged_blocks;
    const uint64_t launches_before = dev_->stats().kernel_launches;
    Result<SizedTable> next =
        prealloc ? StepPrealloc(m.table, step, following, candidates[step.u],
                                *sizing)
                 : StepTwoStep(m.table, step, candidates[step.u]);
    if (!next.ok()) return next.status();
    // Step boundary: a fault that tripped inside this step's kernels is
    // detected here and the partial table discarded (fail-stop model).
    if (Status h = CheckDeviceHealthy(*dev_, "join_step"); !h.ok()) return h;
    m = std::move(next.value());
    span.AddAttr("rows_out", static_cast<uint64_t>(m.table.rows()));
    span.AddAttr("staged_blocks",
                 static_cast<uint64_t>(stats_.staged_blocks - staged_before));
    span.AddAttr("kernels", dev_->stats().kernel_launches - launches_before);
    ++stats_.iterations;
    stats_.peak_rows = std::max(stats_.peak_rows, m.table.rows());
    if (m.table.rows() == 0) {
      // No partial matches survive; the final answer is empty, but the
      // table must still have one column per query vertex.
      return SizedTable{MatchTable::Alloc(*dev_, 0, plan.order.size()),
                        std::nullopt};
    }
  }
  stats_.final_rows = m.table.rows();
  return m;
}

}  // namespace gsi
