#include "gsi/join.h"

#include <algorithm>

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
/// (one warp streams the row, then keeps it in shared memory).
std::vector<VertexId> ReadRow(Warp& w, const MatchTable& m, size_t r) {
  std::span<const VertexId> vals =
      w.LoadRange(m.data(), r * m.cols(), m.cols());
  w.SharedAccess(m.cols());
  return std::vector<VertexId>(vals.begin(), vals.end());
}

}  // namespace

void JoinEngine::ProcessChunk(Warp& w, Chunk& chunk, const MatchTable& m,
                              const JoinStep& step, const CandidateSet& cand,
                              gpusim::DeviceBuffer<VertexId>* gba,
                              uint64_t gba_base, BlockExtractionCache& cache,
                              std::vector<VertexId>& result) {
  result.clear();
  chunk.count = 0;
  if (chunk.pos_begin >= chunk.pos_end) return;

  SetOpFlags flags;
  flags.naive = options_.set_op == SetOpKind::kNaive;
  flags.write_cache = options_.write_cache;
  const uint64_t gba_at = chunk.gba_begin - gba_base;

  std::vector<VertexId> row = ReadRow(w, m, chunk.row);

  // --- First edge e0 (Algorithm 3, Lines 9-11).
  const LinkEdge& e0 = step.links[0];
  VertexId v0 = row[e0.prev_column];
  if (flags.naive) dev_->ChargeKernelLaunch();
  const std::vector<VertexId>& input =
      cache.GetSlice(w, *store_, v0, e0.label, chunk.pos_begin,
                     chunk.pos_end);
  FilterFirstEdge(w, input, row, cand, flags, gba, gba_at, result);

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

JoinEngine::StepBounds JoinEngine::SizeStep(size_t rows, const JoinStep& step,
                                            const RowFetch& fetch) {
  const Label l0 = step.links[0].label;
  const size_t block_rows =
      static_cast<size_t>(dev_->config().warps_per_block) * kWarpSize;
  const size_t num_blocks = (rows + block_rows - 1) / block_rows;
  StepBounds out{dev_->Alloc<uint32_t>(rows), dev_->Alloc<uint64_t>(rows + 1),
                 0};
  gpusim::LookbackScan scan(*dev_, num_blocks);
  gpusim::LaunchBlocks(*dev_, num_blocks, [&](Block& block) {
    const size_t first = block.id() * block_rows;
    const size_t n = std::min(block_rows, rows - first);
    // The block's bounds stay in shared memory for the scan.
    std::span<uint32_t> vals = block.shared().Alloc<uint32_t>(n);
    std::span<uint64_t> prefix = block.shared().Alloc<uint64_t>(n);
    for (size_t i = 0; i * kWarpSize < n; ++i) {
      Warp& w = block.warp(i);
      const size_t r0 = first + i * kWarpSize;
      const size_t lanes = std::min<size_t>(kWarpSize, rows - r0);
      VertexId vs[kWarpSize] = {};
      fetch(w, r0, lanes, vs);
      for (size_t k = 0; k < lanes; ++k) {
        vals[i * kWarpSize + k] = static_cast<uint32_t>(
            store_->NeighborCountUpperBound(w, vs[k], l0));
      }
      w.StoreRange(out.bounds, r0, std::span<const uint32_t>(
                                       vals.data() + i * kWarpSize, lanes));
    }
    scan.ScanBlock(block, vals, prefix);
    for (size_t i = 0; i * kWarpSize < n; ++i) {
      const size_t r0 = first + i * kWarpSize;
      const size_t lanes = std::min<size_t>(kWarpSize, rows - r0);
      std::copy_n(prefix.begin() + i * kWarpSize, lanes,
                  out.offsets.data() + r0);
      // The warp holding the last row also stores the end of the GBA.
      const bool last = r0 + lanes == rows;
      if (last) out.offsets[rows] = scan.total();
      block.warp(i).StoreRange(
          out.offsets, r0,
          std::span<const uint64_t>(out.offsets.data() + r0,
                                    lanes + (last ? 1 : 0)));
    }
  });
  return out;
}

JoinEngine::StepBounds JoinEngine::FirstEdgeBounds(const MatchTable& m,
                                                   const JoinStep& step) {
  const size_t cols = m.cols();
  const size_t col = step.links[0].prev_column;
  return SizeStep(m.rows(), step,
                  [&](Warp& w, size_t r0, size_t lanes, VertexId* vs) {
                    // Gather the e0 column of 32 consecutive rows (strided
                    // by cols).
                    uint64_t idx[kWarpSize] = {};
                    for (size_t k = 0; k < lanes; ++k) {
                      idx[k] = (r0 + k) * cols + col;
                    }
                    w.Gather(m.data(), std::span<const uint64_t>(idx, lanes),
                             std::span<VertexId>(vs, lanes));
                  });
}

Result<MatchTable> JoinEngine::StepPrealloc(const MatchTable& m,
                                            const JoinStep& step,
                                            const CandidateSet& cand,
                                            const StepBounds& sizing) {
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  const size_t wpb = static_cast<size_t>(dev_->config().warps_per_block);
  GSI_CHECK(sizing.bounds.size() == rows && sizing.offsets.size() == rows + 1);

  // --- Algorithm 4: the GBA holds every row's first-edge upper bound. The
  // host reads one scalar of the sizing, the GBA's size.
  auto gba = dev_->Alloc<VertexId>(sizing.offsets[rows] - sizing.base);

  // --- Chunk placement: the 4-layer load-balance scheme or 1 chunk/row.
  ChunkPlan plan = PlanChunks(
      std::span<const uint32_t>(sizing.bounds.data(), rows),
      std::span<const uint64_t>(sizing.offsets.data(), rows + 1),
      options_.load_balance, options_.w1,
      static_cast<uint32_t>(wpb) * kWarpSize, options_.w3);
  const size_t num_chunks = plan.total_chunks();
  stats_.total_chunks += num_chunks;

  // --- Pass A: set operations into GBA (Algorithm 3, Lines 2-13). Each
  // block stages its chunks' survivor counts in shared memory, stores them
  // to their slots in coalesced 32-wide scatters, and adds their sum to the
  // step's survivor counter (one atomic add, charged as one store).
  auto counts = dev_->Alloc<uint32_t>(num_chunks);
  auto survivors = dev_->Alloc<uint64_t>(1);
  std::vector<VertexId> scratch;
  auto run_block = [&](Block& block, std::span<Chunk* const> chunks) {
    BlockExtractionCache cache(options_.duplicate_removal);
    uint64_t sum = 0;
    for (size_t i = 0; i < chunks.size(); ++i) {
      Warp& w = block.warp(i % block.num_warps());
      ProcessChunk(w, *chunks[i], m, step, cand, &gba, sizing.base, cache,
                   scratch);
      w.SharedAccess(1);
      sum += chunks[i]->count;
    }
    stats_.dup_cache_hits += cache.hits();
    stats_.dup_cache_misses += cache.misses();
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

  // --- Lines 16-21: link M and the buffers into M', one warp per chunk.
  // Output rows are assigned in (row, position) order rather than the
  // Pass A layer order, so the output row order depends only on the input
  // rows, not on which load-balance layer each row landed in. The sharded
  // engine relies on this: a run over any contiguous seed slice produces
  // exactly the rows (and order) of that slice's portion of a whole run.
  // Warp 0 of each block stages the block's 32 counts in one coalesced
  // read; the block scans them and chains to the blocks before it, which
  // gives every chunk its first output row.
  std::vector<const Chunk*> linked(num_chunks);
  for (const Chunk* c : plan.AllChunks()) linked[c->slot] = c;
  MatchTable next = MatchTable::Alloc(*dev_, new_rows, cols + 1);
  const size_t link_blocks = (num_chunks + wpb - 1) / wpb;
  gpusim::LookbackScan scan(*dev_, link_blocks);
  gpusim::LaunchBlocks(*dev_, link_blocks, [&](Block& block) {
    const size_t begin = block.id() * wpb;
    const size_t n = std::min(wpb, num_chunks - begin);
    std::span<uint32_t> staged = block.shared().Alloc<uint32_t>(n);
    std::span<uint64_t> first_row = block.shared().Alloc<uint64_t>(n);
    std::span<const uint32_t> loaded =
        block.warp(0).LoadRange(counts, begin, n);
    std::copy(loaded.begin(), loaded.end(), staged.begin());
    scan.ScanBlock(block, staged, first_row);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t count = staged[i];
      if (count == 0) continue;
      Warp& w = block.warp(i);
      const Chunk& c = *linked[begin + i];
      w.SharedAccess(1);
      std::vector<VertexId> row = ReadRow(w, m, c.row);
      std::span<const VertexId> buf =
          w.LoadRange(gba, c.gba_begin - sizing.base, count);
      const uint64_t out = first_row[i];
      for (size_t k = 0; k < count; ++k) {
        for (size_t j = 0; j < cols; ++j) next.Set(out + k, j, row[j]);
        next.Set(out + k, cols, buf[k]);
      }
      // The chunk's output region is contiguous: one coalesced streaming
      // store for count * (cols+1) ids.
      w.ChargeStoreTransactions(gpusim::Device::RangeTransactions(
          next.data().AddressOf(out * (cols + 1)),
          static_cast<uint64_t>(count) * (cols + 1) * sizeof(VertexId)));
      w.SharedAccess(static_cast<uint64_t>(count) * (cols + 1));
    }
  });
  GSI_CHECK(scan.total() == new_rows);
  return next;
}

Result<MatchTable> JoinEngine::StepTwoStep(const MatchTable& m,
                                           const JoinStep& step,
                                           const CandidateSet& cand) {
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
    ProcessChunk(w, chunks[i], m, step, cand, /*gba=*/nullptr, 0, no_cache,
                 scratch);
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
    ProcessChunk(w, chunks[i], m, step, cand, /*gba=*/nullptr, 0, no_cache,
                 scratch);
    if (scratch.empty()) return;
    std::vector<VertexId> row = ReadRow(w, m, i);
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
  return next;
}

JoinEngine::Seeded JoinEngine::Seed(
    const JoinPlan& plan, const gpusim::DeviceBuffer<VertexId>& seed) {
  stats_ = JoinStats();
  GSI_CHECK(!plan.order.empty());
  MatchTable m = MatchTable::FromColumn(
      *dev_, std::vector<VertexId>(seed.data(), seed.data() + seed.size()));
  stats_.peak_rows = m.rows();
  if (options_.output_scheme == OutputScheme::kPreallocCombine &&
      !plan.steps.empty()) {
    // Step 0's bounds kernel seeds M on the way: each warp streams its 32
    // seed candidates into the one-column table, and they are the rows' e0
    // bindings.
    GSI_CHECK(plan.steps[0].links[0].prev_column == 0);
    StepBounds first = SizeStep(
        m.rows(), plan.steps[0],
        [&](Warp& w, size_t r0, size_t lanes, VertexId* vs) {
          std::span<const VertexId> vals = w.LoadRange(seed, r0, lanes);
          w.StoreRange(m.data(), r0, vals);
          std::copy(vals.begin(), vals.end(), vs);
        });
    return Seeded{std::move(m), std::move(first)};
  }
  const size_t n = m.rows();
  gpusim::Launch(*dev_, std::max<size_t>(1, (n + 1023) / 1024), [&](Warp& w) {
    size_t begin = w.global_id() * 1024;
    if (begin >= n) return;
    size_t len = std::min<size_t>(1024, n - begin);
    w.StoreRange(m.data(), begin, w.LoadRange(seed, begin, len));
  });
  return Seeded{std::move(m), std::nullopt};
}

Result<MatchTable> JoinEngine::RunSteps(
    const JoinPlan& plan, const std::vector<CandidateSet>& candidates,
    MatchTable m, size_t first_step, size_t last_step,
    std::optional<StepBounds> first_bounds) {
  GSI_CHECK(!first_bounds || first_bounds->bounds.size() == m.rows());
  last_step = std::min(last_step, plan.steps.size());
  stats_.peak_rows = std::max(stats_.peak_rows, m.rows());
  // Fail fast on a device that already tripped (e.g. during seeding or an
  // earlier stage) — the table built so far is considered lost.
  if (Status h = CheckDeviceHealthy(*dev_, "join"); !h.ok()) return h;
  const obs::DeviceCycleClock clock(*dev_);
  for (size_t s = first_step; s < last_step; ++s) {
    const JoinStep& step = plan.steps[s];
    GSI_CHECK_MSG(!step.links.empty(), "join step without linking edges");
    obs::ScopedSpan span(trace_, "join_step", clock);
    span.AddAttr("step", static_cast<uint64_t>(s));
    span.AddAttr("query_vertex", static_cast<uint64_t>(step.u));
    span.AddAttr("rows_in", static_cast<uint64_t>(m.rows()));
    Result<MatchTable> next =
        options_.output_scheme == OutputScheme::kPreallocCombine
            ? StepPrealloc(m, step, candidates[step.u],
                           s == first_step && first_bounds
                               ? std::move(*first_bounds)
                               : FirstEdgeBounds(m, step))
            : StepTwoStep(m, step, candidates[step.u]);
    if (!next.ok()) return next.status();
    // Step boundary: a fault that tripped inside this step's kernels is
    // detected here and the partial table discarded (fail-stop model).
    if (Status h = CheckDeviceHealthy(*dev_, "join_step"); !h.ok()) return h;
    m = std::move(next.value());
    span.AddAttr("rows_out", static_cast<uint64_t>(m.rows()));
    ++stats_.iterations;
    stats_.peak_rows = std::max(stats_.peak_rows, m.rows());
    if (m.rows() == 0) {
      // No partial matches survive; the final answer is empty, but the
      // table must still have one column per query vertex.
      return MatchTable::Alloc(*dev_, 0, plan.order.size());
    }
  }
  stats_.final_rows = m.rows();
  return m;
}

Result<MatchTable> JoinEngine::Run(const JoinPlan& plan,
                                   const std::vector<CandidateSet>& candidates,
                                   const gpusim::DeviceBuffer<VertexId>& seed) {
  Seeded seeded = Seed(plan, seed);
  return RunSteps(plan, candidates, std::move(seeded.table), 0,
                  plan.steps.size(), std::move(seeded.first_bounds));
}

}  // namespace gsi
