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
                              BlockExtractionCache& cache,
                              std::vector<VertexId>& result) {
  result.clear();
  chunk.count = 0;
  if (chunk.pos_begin >= chunk.pos_end) return;

  SetOpFlags flags;
  flags.naive = options_.set_op == SetOpKind::kNaive;
  flags.write_cache = options_.write_cache;

  std::vector<VertexId> row = ReadRow(w, m, chunk.row);

  // --- First edge e0 (Algorithm 3, Lines 9-11).
  const LinkEdge& e0 = step.links[0];
  VertexId v0 = row[e0.prev_column];
  if (flags.naive) dev_->ChargeKernelLaunch();
  const std::vector<VertexId>& input =
      cache.GetSlice(w, *store_, v0, e0.label, chunk.pos_begin,
                     chunk.pos_end);
  FilterFirstEdge(w, input, row, cand, flags, gba, chunk.gba_begin, result);

  // --- Subsequent linking edges (Line 13).
  for (size_t e = 1; e < step.links.size() && !result.empty(); ++e) {
    const LinkEdge& link = step.links[e];
    VertexId ve = row[link.prev_column];
    if (flags.naive) dev_->ChargeKernelLaunch();
    if (flags.naive || !options_.load_balance) {
      // Whole-list read (batch-by-batch in the GPU-friendly mode).
      const std::vector<VertexId>& other = cache.GetSlice(
          w, *store_, ve, link.label, 0, std::numeric_limits<uint32_t>::max());
      IntersectSorted(w, result, other, flags, gba, chunk.gba_begin);
    } else {
      // Chunked rows use bounded reads so parallelizing a heavy row does
      // not re-stream whole lists.
      const std::vector<VertexId>& other = cache.GetValueRange(
          w, *store_, ve, link.label, result.front(), result.back());
      IntersectSorted(w, result, other, flags, gba, chunk.gba_begin);
    }
  }
  chunk.count = static_cast<uint32_t>(result.size());
}

gpusim::DeviceBuffer<uint32_t> JoinEngine::FirstEdgeBounds(
    const MatchTable& m, const JoinStep& step) {
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  const LinkEdge& e0 = step.links[0];
  auto bounds = dev_->Alloc<uint32_t>(rows);
  gpusim::Launch(*dev_, (rows + kWarpSize - 1) / kWarpSize, [&](Warp& w) {
    size_t r0 = w.global_id() * kWarpSize;
    if (r0 >= rows) return;
    size_t lanes = std::min<size_t>(kWarpSize, rows - r0);
    // Gather the e0 column of 32 consecutive rows (strided by cols).
    uint64_t idx[kWarpSize];
    VertexId vs[kWarpSize];
    for (size_t k = 0; k < lanes; ++k) {
      idx[k] = (r0 + k) * cols + e0.prev_column;
    }
    w.Gather(m.data(), std::span<const uint64_t>(idx, lanes),
             std::span<VertexId>(vs, lanes));
    for (size_t k = 0; k < lanes; ++k) {
      bounds[r0 + k] = static_cast<uint32_t>(
          store_->NeighborCountUpperBound(w, vs[k], e0.label));
    }
    w.StoreRange(bounds, r0,
                 std::span<const uint32_t>(bounds.data() + r0, lanes));
  });
  return bounds;
}

Result<MatchTable> JoinEngine::StepPrealloc(
    const MatchTable& m, const JoinStep& step, const CandidateSet& cand,
    const gpusim::DeviceBuffer<uint32_t>& bounds) {
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  const size_t wpb = static_cast<size_t>(dev_->config().warps_per_block);

  // --- Algorithm 4: the per-row upper bounds |N(v'_i, l0)| and their
  // prefix sum give the GBA offsets.
  auto gba_offsets = dev_->Alloc<uint64_t>(rows + 1);
  uint64_t gba_size = gpusim::ExclusiveScan(*dev_, bounds, gba_offsets);
  auto gba = dev_->Alloc<VertexId>(gba_size);

  // --- Chunk placement: the 4-layer load-balance scheme or 1 chunk/row.
  ChunkPlan plan = PlanChunks(
      std::span<const uint32_t>(bounds.data(), rows),
      std::span<const uint64_t>(gba_offsets.data(), rows + 1),
      options_.load_balance, options_.w1,
      static_cast<uint32_t>(wpb) * kWarpSize, options_.w3);

  // --- Pass A: set operations into GBA (Algorithm 3, Lines 2-13).
  std::vector<VertexId> scratch;
  auto run_block = [&](Block& block, std::span<Chunk* const> chunks) {
    BlockExtractionCache cache(options_.duplicate_removal);
    for (size_t i = 0; i < chunks.size(); ++i) {
      Warp& w = block.warp(i % block.num_warps());
      ProcessChunk(w, *chunks[i], m, step, cand, &gba, cache, scratch);
    }
    stats_.dup_cache_hits += cache.hits();
    stats_.dup_cache_misses += cache.misses();
  };

  if (!plan.pooled.empty()) {
    // Layers 3/4: pooled chunks, 32 per block.
    std::vector<Chunk*> ptrs;
    ptrs.reserve(plan.pooled.size());
    for (Chunk& c : plan.pooled) ptrs.push_back(&c);
    size_t num_blocks = (ptrs.size() + wpb - 1) / wpb;
    gpusim::LaunchBlocks(*dev_, num_blocks, [&](Block& block) {
      size_t begin = block.id() * wpb;
      size_t count = std::min(wpb, ptrs.size() - begin);
      run_block(block,
                std::span<Chunk* const>(ptrs.data() + begin, count));
    });
  }
  if (!plan.per_block.empty()) {
    // Layer 2: one block per heavy row.
    gpusim::LaunchBlocks(*dev_, plan.per_block.size(), [&](Block& block) {
      auto& row_chunks = plan.per_block[block.id()];
      std::vector<Chunk*> ptrs;
      ptrs.reserve(row_chunks.size());
      for (Chunk& c : row_chunks) ptrs.push_back(&c);
      run_block(block, ptrs);
    });
  }
  for (auto& row_chunks : plan.huge) {
    // Layer 1: a dedicated kernel per extreme row (this is what makes a
    // too-small W1 expensive — kernel-launch overhead, Table IX).
    std::vector<Chunk*> ptrs;
    ptrs.reserve(row_chunks.size());
    for (Chunk& c : row_chunks) ptrs.push_back(&c);
    size_t num_blocks = (ptrs.size() + wpb - 1) / wpb;
    gpusim::LaunchBlocks(*dev_, num_blocks, [&](Block& block) {
      size_t begin = block.id() * wpb;
      size_t count = std::min(wpb, ptrs.size() - begin);
      run_block(block,
                std::span<Chunk* const>(ptrs.data() + begin, count));
    });
  }

  // --- Lines 14-15: prefix sum over chunk result counts sizes M'.
  // Output offsets are assigned in (row, position) order rather than the
  // pass-A layer order, so the output row order depends only on the input
  // rows, not on which load-balance layer each row landed in. The sharded
  // engine relies on this: a run over any contiguous seed slice produces
  // exactly the rows (and order) of that slice's portion of a whole run.
  std::vector<Chunk*> all = plan.AllChunks();
  std::sort(all.begin(), all.end(), [](const Chunk* a, const Chunk* b) {
    return a->row != b->row ? a->row < b->row : a->pos_begin < b->pos_begin;
  });
  stats_.total_chunks += all.size();
  auto chunk_counts = dev_->Alloc<uint32_t>(all.size());
  for (size_t i = 0; i < all.size(); ++i) chunk_counts[i] = all[i]->count;
  auto out_offsets = dev_->Alloc<uint64_t>(all.size() + 1);
  uint64_t new_rows =
      gpusim::ExclusiveScan(*dev_, chunk_counts, out_offsets);
  if (new_rows > options_.max_rows) {
    return Status::ResourceExhausted(
        "intermediate table exceeds max_rows: " + std::to_string(new_rows));
  }

  // --- Lines 16-21: link M and the buffers into M'.
  MatchTable next = MatchTable::Alloc(*dev_, new_rows, cols + 1);
  gpusim::Launch(*dev_, std::max<size_t>(1, all.size()), [&](Warp& w) {
    size_t i = w.global_id();
    if (i >= all.size()) return;
    const Chunk& c = *all[i];
    if (c.count == 0) return;
    std::vector<VertexId> row = ReadRow(w, m, c.row);
    std::span<const VertexId> buf = w.LoadRange(gba, c.gba_begin, c.count);
    uint64_t out = out_offsets[i];
    for (size_t k = 0; k < c.count; ++k) {
      for (size_t j = 0; j < cols; ++j) next.Set(out + k, j, row[j]);
      next.Set(out + k, cols, buf[k]);
    }
    // The chunk's output region is contiguous: one coalesced streaming
    // store for count * (cols+1) ids.
    w.ChargeStoreTransactions(gpusim::Device::RangeTransactions(
        next.data().AddressOf(out * (cols + 1)),
        static_cast<uint64_t>(c.count) * (cols + 1) * sizeof(VertexId)));
    w.SharedAccess(static_cast<uint64_t>(c.count) * (cols + 1));
  });
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
    chunks[i] = Chunk{i, 0, std::numeric_limits<uint32_t>::max(), 0, 0};
  }

  // --- Step 1: count valid join results (the join runs in full, results
  // are discarded).
  std::vector<VertexId> scratch;
  BlockExtractionCache no_cache(/*enabled=*/false);
  gpusim::Launch(*dev_, std::max<size_t>(1, rows), [&](Warp& w) {
    size_t i = w.global_id();
    if (i >= rows) return;
    ProcessChunk(w, chunks[i], m, step, cand, /*gba=*/nullptr, no_cache,
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
    ProcessChunk(w, chunks[i], m, step, cand, /*gba=*/nullptr, no_cache,
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

MatchTable JoinEngine::SeedTable(const JoinPlan& plan,
                                 const std::vector<CandidateSet>& candidates) {
  stats_ = JoinStats();
  GSI_CHECK(!plan.order.empty());
  const CandidateSet& seed = candidates[plan.order[0]];
  std::vector<VertexId> column(seed.list().data(),
                               seed.list().data() + seed.size());
  MatchTable m = MatchTable::FromColumn(*dev_, column);
  gpusim::Launch(*dev_, std::max<size_t>(1, (column.size() + 1023) / 1024),
                 [&](Warp& w) {
                   size_t begin = w.global_id() * 1024;
                   if (begin >= column.size()) return;
                   size_t len = std::min<size_t>(1024, column.size() - begin);
                   w.LoadRange(seed.list(), begin, len);
                   w.StoreRange(m.data(), begin,
                                std::span<const VertexId>(
                                    m.data().data() + begin, len));
                 });
  stats_.peak_rows = m.rows();
  return m;
}

Result<MatchTable> JoinEngine::RunSteps(
    const JoinPlan& plan, const std::vector<CandidateSet>& candidates,
    MatchTable m, size_t first_step, size_t last_step,
    std::optional<gpusim::DeviceBuffer<uint32_t>> first_bounds) {
  GSI_CHECK(!first_bounds || first_bounds->size() == m.rows());
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

Result<MatchTable> JoinEngine::Run(
    const JoinPlan& plan, const std::vector<CandidateSet>& candidates) {
  MatchTable m = SeedTable(plan, candidates);
  return RunSteps(plan, candidates, std::move(m), 0, plan.steps.size());
}

}  // namespace gsi
