#include "gsi/sharded_engine.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "gsi/fault.h"
#include "gsi/join.h"
#include "gsi/plan.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gsi {

namespace {

/// The next step's sizing of a gathered table: the slices' sizings in slice
/// order, each slice's offsets shifted by the bound totals of the slices
/// before it. Host-mediated and uncharged, like MatchTable::ConcatRows. A
/// slice whose step left no rows has no sizing and adds nothing.
JoinEngine::StepBounds ConcatSizings(
    gpusim::Device& dev, std::span<const JoinEngine::SizedTable* const> parts) {
  std::vector<uint32_t> bounds;
  std::vector<uint64_t> offsets;
  uint64_t shift = 0;
  for (const JoinEngine::SizedTable* part : parts) {
    if (!part->sizing) continue;
    const JoinEngine::StepBounds& s = *part->sizing;
    const size_t rows = s.bounds.size();
    bounds.insert(bounds.end(), s.bounds.data(), s.bounds.data() + rows);
    for (size_t r = 0; r < rows; ++r) offsets.push_back(shift + s.offsets[r]);
    shift += s.offsets[rows];
  }
  offsets.push_back(shift);
  return JoinEngine::StepBounds{dev.Upload(std::move(bounds)),
                                dev.Upload(std::move(offsets)), 0};
}

}  // namespace

Result<PagedQueryResult> RunJoinStageShardedPaged(
    std::span<gpusim::Device* const> devs, const Graph& data,
    const NeighborStore& store, const GsiOptions& options,
    const ShardOptions& shard_options, const Graph& query,
    FilterResult filtered, QueryStats stats, const obs::TraceContext& trace) {
  GSI_CHECK_MSG(!devs.empty(), "sharded join needs at least one device");
  const size_t min_work = std::max<size_t>(1, shard_options.min_rows_per_shard);
  gpusim::Device& primary = *devs[0];
  const obs::DeviceCycleClock primary_clock(primary);
  obs::ScopedSpan join_span(trace, "join", primary_clock, primary.ordinal());

  // Degenerate shapes are answered on the primary without a join.
  if (std::optional<QueryResult> trivial = internal::JoinWithoutEngine(
          primary, data, query, filtered, stats)) {
    // The shortcut runs materialization kernels no step boundary sees.
    if (Status h = CheckDeviceHealthy(primary, "join"); !h.ok()) return h;
    join_span.AddAttr("matches",
                      static_cast<uint64_t>(trivial->stats.num_matches));
    return ToPagedResult(std::move(*trivial), primary);
  }

  const JoinPlan plan = MakeJoinPlan(query, data, filtered.candidates);
  // A step distributes only when its predicted volume fills every device.
  const uint64_t volume_floor = static_cast<uint64_t>(devs.size()) * min_work;

  // --- Step-at-a-time distributed join. Each iteration reads the step's
  // first-edge bounds and GBA offsets that came with the table, then either
  // runs the step on the primary (narrow / cheap steps, where scatter and
  // gather would cost more than they parallelize) or distributes it:
  // partition the table's rows into contiguous weight-balanced slices, run
  // slice i on devs[i], and gather in slice order. The gathered table is
  // bit-identical to a whole-table step (output rows are emitted in
  // input-row order), and so is its concatenated sizing, so the loop
  // invariant — `m` equals the single-device intermediate table and its
  // sizing — holds at every boundary.
  JoinEngine serial_engine(&primary, &store, options.join);
  serial_engine.set_trace(join_span.context());
  gpusim::MemStats serial_total;    // seed and serial steps
  gpusim::MemStats join_counters;   // everything, summed across devices
  JoinStats detail;
  std::vector<double> device_loads(devs.size(), 0);  // slice i on device i
  double makespan_ms = 0;  // of the distributed steps
  size_t shards_used = 1;
  std::optional<ThreadPool> pool;  // built by the first step that fans out

  gpusim::MemStats mark = primary.stats();
  ResultManifest manifest;  // filled by the final step
  bool paged_final = false;  // final step was distributed: partials kept
  JoinEngine::SizedTable m = serial_engine.Seed(
      plan, filtered.candidates[plan.order[0]].list());
  for (size_t k = 0; k < plan.steps.size() && m.table.rows() > 0; ++k) {
    // Algorithm 4's per-row bounds |N(v'_i, l0)| and GBA offsets for this
    // step came with the table: from the seed kernel for step 0, after it
    // from the link kernels that wrote the table (the primary's, or the
    // slices' concatenated at the gather). The fan-out decision, the slice
    // balance and every slice's share read this one sizing; a serial step
    // hands it to its Prealloc step. A step without a sizing (the two-step
    // scheme computes none) or without a second device runs on the primary.
    const size_t rows = m.table.rows();
    const JoinEngine::StepBounds* sizing =
        devs.size() > 1 && m.sizing ? &*m.sizing : nullptr;
    const uint64_t predicted = sizing != nullptr ? sizing->offsets[rows] : 0;
    // Distribute when the step's predicted volume fills every slice AND
    // dwarfs the table being scattered (per-step fan-out has fixed costs:
    // under-filled kernels, the lost cross-slice extraction sharing).
    std::vector<ShardRange> slices;
    if (sizing != nullptr && predicted >= volume_floor &&
        predicted >= 4 * static_cast<uint64_t>(rows) * m.table.cols()) {
      const std::vector<uint64_t> weights(sizing->bounds.data(),
                                          sizing->bounds.data() + rows);
      slices = PartitionByWorkload(weights, std::min(devs.size(), rows));
    }
    if (slices.size() < 2) {
      Result<JoinEngine::SizedTable> next = serial_engine.RunSteps(
          plan, filtered.candidates, std::move(m), k, k + 1);
      if (!next.ok()) return next.status();
      m = std::move(next.value());
      continue;
    }

    // Close the primary-serial segment: the fan-out is billed per slice.
    serial_total += primary.stats() - mark;
    shards_used = std::max(shards_used, slices.size());
    obs::ScopedSpan step_span(join_span.context(), "join_step_distributed",
                              primary_clock);
    step_span.AddAttr("step", static_cast<uint64_t>(k));
    step_span.AddAttr("slices", static_cast<uint64_t>(slices.size()));
    step_span.AddAttr("rows_in", static_cast<uint64_t>(rows));
    step_span.AddAttr("gba_entries", predicted);
    std::vector<std::optional<Result<JoinEngine::SizedTable>>> tables(
        slices.size());
    std::vector<gpusim::MemStats> slice_mem(slices.size());
    std::vector<JoinStats> slice_join(slices.size());
    if (!pool) pool.emplace(devs.size());
    for (size_t i = 0; i < slices.size(); ++i) {
      pool->Submit([&, i] {
        gpusim::Device& dev = *devs[i];
        const ShardRange& slice = slices[i];
        const obs::DeviceCycleClock clock(dev);
        obs::ScopedSpan slice_span(step_span.context(), "shard_slice", clock,
                                   dev.ordinal());
        slice_span.AddAttr("slice", static_cast<uint64_t>(i));
        slice_span.AddAttr("rows_in",
                           static_cast<uint64_t>(slice.end - slice.begin));
        const gpusim::MemStats before = dev.stats();
        // Scatter the slice's rows, bounds and GBA offsets in
        // (host-mediated, uncharged like any upload). The offsets keep the
        // whole table's values; the slice's first one is the base its Pass A
        // and link subtract. The step then launches only Pass A and link
        // here, and the link kernel also sizes the slice's rows for the
        // next step; the partial table and that sizing come back via the
        // gather below.
        JoinEngine::SizedTable part{
            MatchTable::CopySlice(dev, m.table, slice.begin,
                                  slice.end - slice.begin),
            JoinEngine::StepBounds{
                dev.Upload(std::vector<uint32_t>(
                    sizing->bounds.data() + slice.begin,
                    sizing->bounds.data() + slice.end)),
                dev.Upload(std::vector<uint64_t>(
                    sizing->offsets.data() + slice.begin,
                    sizing->offsets.data() + slice.end + 1)),
                sizing->offsets[slice.begin]}};
        JoinEngine join(&dev, &store, options.join);
        tables[i] = join.RunSteps(plan, filtered.candidates, std::move(part),
                                  k, k + 1);
        slice_join[i] = join.stats();
        slice_mem[i] = dev.stats() - before;
        slice_span.AddAttr("kernels", slice_mem[i].kernel_launches);
      });
    }
    pool->Wait();
    uint64_t rows_out = 0;
    uint64_t staged_blocks = 0;
    uint64_t kernels = 0;
    for (size_t i = 0; i < slices.size(); ++i) {
      if (!tables[i]->ok()) return tables[i]->status();
      rows_out += tables[i]->value().table.rows();
      staged_blocks += slice_join[i].staged_blocks;
      kernels += slice_mem[i].kernel_launches;
    }
    step_span.AddAttr("rows_out", rows_out);
    step_span.AddAttr("staged_blocks", staged_blocks);
    step_span.AddAttr("kernels", kernels);

    // The slices run concurrently, one per device: the step's makespan is
    // the slowest slice, and slice i's cost is device i's load.
    double step_makespan = 0;
    size_t step_peak_rows = 0;  // slices are concurrently resident
    for (size_t i = 0; i < slices.size(); ++i) {
      const double slice_ms = slice_mem[i].SimulatedMs(devs[i]->config());
      step_makespan = std::max(step_makespan, slice_ms);
      device_loads[i] += slice_ms;
      join_counters += slice_mem[i];
      step_peak_rows += slice_join[i].peak_rows;
      detail.total_chunks += slice_join[i].total_chunks;
      detail.dup_cache_hits += slice_join[i].dup_cache_hits;
      detail.dup_cache_misses += slice_join[i].dup_cache_misses;
      detail.staged_blocks += slice_join[i].staged_blocks;
      detail.fused_steps += slice_join[i].fused_steps;
    }
    detail.peak_rows = std::max(detail.peak_rows, step_peak_rows);
    makespan_ms += step_makespan;
    detail.iterations += 1;
    mark = primary.stats();

    if (k + 1 == plan.steps.size()) {
      // Final step: nothing downstream needs the whole table on one
      // device, so the partial tables stay where the slices ran and the
      // gather degenerates to recording the slice order in the manifest.
      manifest.set_cols(plan.order.size());
      for (size_t i = 0; i < tables.size(); ++i) {
        MatchTable part_table = std::move(tables[i]->value().table);
        const size_t part_rows = part_table.rows();
        if (part_rows == 0) continue;
        const size_t part = manifest.AddPart(std::move(part_table), *devs[i]);
        manifest.AddSegment(part, 0, part_rows);
      }
      detail.peak_rows = std::max(detail.peak_rows, manifest.rows());
      paged_final = true;
      m = JoinEngine::SizedTable();
      break;
    }

    // Gather in slice order on the primary's address space (bulk
    // host-mediated concatenation) — the next step consumes the whole
    // table and its sizing, so the primary launches nothing before that
    // step's Pass A.
    std::vector<const JoinEngine::SizedTable*> sized;
    std::vector<const MatchTable*> parts;
    sized.reserve(slices.size());
    parts.reserve(slices.size());
    for (auto& t : tables) {
      sized.push_back(&t->value());
      parts.push_back(&t->value().table);
    }
    MatchTable gathered = MatchTable::ConcatRows(primary, parts);
    JoinEngine::StepBounds gathered_sizing = ConcatSizings(primary, sized);
    GSI_CHECK(gathered_sizing.bounds.size() == gathered.rows());
    detail.peak_rows = std::max<size_t>(detail.peak_rows, gathered.rows());
    m = JoinEngine::SizedTable{std::move(gathered), std::move(gathered_sizing)};
  }
  serial_total += primary.stats() - mark;
  // Final boundary, on every device: the gather ran on the primary after
  // the last per-slice check, and a device leased for a fan-out that never
  // came must still fail the attempt if it tripped.
  for (gpusim::Device* d : devs) {
    if (Status h = CheckDeviceHealthy(*d, "join_gather"); !h.ok()) return h;
  }

  if (!paged_final) {
    if (m.table.rows() == 0 && m.table.cols() != plan.order.size()) {
      // A distributed step emptied the table mid-join: the final answer is
      // empty but must still be full-width, exactly like RunSteps' early
      // exit.
      m.table = MatchTable::Alloc(primary, 0, plan.order.size());
    }
    // The final step ran serially: the whole table already lives on the
    // primary; the manifest is the degenerate one-part form.
    manifest = ResultManifest::FromWholeTable(std::move(m.table), primary);
  }

  // --- Roll-up: counters sum total work across devices; the time is the
  // parallel makespan (serial segments on the primary + the slowest slice
  // of every distributed step).
  const JoinStats serial_detail = serial_engine.stats();
  detail.iterations += serial_detail.iterations;
  detail.peak_rows = std::max(detail.peak_rows, serial_detail.peak_rows);
  detail.total_chunks += serial_detail.total_chunks;
  detail.dup_cache_hits += serial_detail.dup_cache_hits;
  detail.dup_cache_misses += serial_detail.dup_cache_misses;
  detail.staged_blocks += serial_detail.staged_blocks;
  detail.fused_steps += serial_detail.fused_steps;
  detail.final_rows = manifest.rows();

  join_counters += serial_total;

  PagedQueryResult out;
  out.stats = stats;
  out.manifest = std::move(manifest);
  out.column_to_query = plan.order;
  out.stats.join = join_counters;
  out.stats.join_detail = detail;
  out.stats.join_ms =
      serial_total.SimulatedMs(primary.config()) + makespan_ms;
  out.stats.total_ms = out.stats.filter_ms + out.stats.join_ms;
  out.stats.num_matches = out.manifest.rows();
  out.stats.shards_used = shards_used;
  if (shards_used > 1) {
    double max_load = 0;
    double sum_load = 0;
    size_t active = 0;
    for (double l : device_loads) {
      max_load = std::max(max_load, l);
      sum_load += l;
      if (l > 0) ++active;
    }
    out.stats.shard_skew =
        sum_load > 0 && active > 0
            ? max_load / (sum_load / static_cast<double>(active))
            : 0;
  }
  join_span.AddAttr("matches", static_cast<uint64_t>(out.stats.num_matches));
  return out;
}

Result<PagedQueryResult> ExecuteQueryShardedPaged(
    std::span<gpusim::Device* const> devs, const Graph& data,
    const NeighborStore& store, const FilterContext& filter,
    const GsiOptions& options, const ShardOptions& shard_options,
    const Graph& query, const obs::TraceContext& trace) {
  GSI_CHECK_MSG(!devs.empty(), "sharded execution needs at least one device");
  WallTimer wall;
  const obs::DeviceCycleClock primary_clock(*devs[0]);
  obs::ScopedSpan span(trace, "execute", primary_clock, devs[0]->ordinal());
  span.AddAttr("devices", static_cast<uint64_t>(devs.size()));
  QueryStats stats;
  Result<FilterResult> filtered =
      RunFilterStage(*devs[0], filter, query, stats, span.context());
  if (!filtered.ok()) return filtered.status();
  Result<PagedQueryResult> out = RunJoinStageShardedPaged(
      devs, data, store, options, shard_options, query,
      std::move(filtered.value()), stats, span.context());
  if (out.ok()) out->stats.wall_ms = wall.ElapsedMs();
  return out;
}

}  // namespace gsi
