#include "gsi/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "gpusim/launch.h"
#include "gsi/fault.h"
#include "gsi/join.h"
#include "gsi/plan.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gsi {
namespace {

using gpusim::kWarpSize;
using gpusim::Warp;

/// Deterministic greedy list schedule of per-slice costs onto `devices`:
/// each slice goes to the least-loaded device, in slice order (the model of
/// "a device pulls the next slice when free"). Returns per-device loads.
std::vector<double> ListSchedule(std::span<const double> slice_ms,
                                 size_t devices) {
  std::vector<double> load(devices, 0);
  for (double ms : slice_ms) {
    *std::min_element(load.begin(), load.end()) += ms;
  }
  return load;
}

}  // namespace

Result<FilterResult> RunFilterStageSharded(
    std::span<gpusim::Device* const> devs, const FilterContext& filter,
    const Graph& query, QueryStats& stats, double* parallel_ms,
    const obs::TraceContext& trace) {
  GSI_CHECK_MSG(!devs.empty(), "sharded filter needs at least one device");
  gpusim::Device& primary = *devs[0];
  if (devs.size() == 1) {
    Result<FilterResult> out =
        RunFilterStage(primary, filter, query, stats, trace);
    if (out.ok() && parallel_ms != nullptr) {
      *parallel_ms = stats.filter.SimulatedMs(primary.config());
    }
    return out;
  }
  if (query.num_vertices() == 0) {
    return Status::InvalidArgument("empty query");
  }
  if (!query.IsConnected()) {
    return Status::InvalidArgument(
        "query must be connected (run components separately)");
  }

  // --- Scan phase: device d scans the d-th slice of the data-vertex range
  // for every query vertex (the signature table is shared and read-only).
  // Slice boundaries are 32-aligned, so each range scan issues exactly the
  // warps the corresponding stretch of a whole scan would — candidate
  // values AND summed transaction counters match the single-device stage;
  // only the devices footing the bill differ.
  const size_t nu = query.num_vertices();
  const size_t num_devs = devs.size();
  const size_t n = filter.num_data_vertices();
  const size_t chunk =
      ((n + num_devs - 1) / num_devs + kWarpSize - 1) / kWarpSize * kWarpSize;
  const obs::DeviceCycleClock primary_clock(primary);
  obs::ScopedSpan filter_span(trace, "filter", primary_clock, 0);
  std::vector<std::vector<std::vector<VertexId>>> partial(num_devs);
  std::vector<gpusim::MemStats> scan_mem(num_devs);
  ThreadPool pool(num_devs);
  for (size_t d = 0; d < num_devs; ++d) {
    pool.Submit([&, d] {
      gpusim::Device& dev = *devs[d];
      const obs::DeviceCycleClock clock(dev);
      obs::ScopedSpan span(filter_span.context(), "shard_scan", clock,
                           static_cast<int32_t>(d));
      const gpusim::MemStats before = dev.stats();
      const size_t begin = std::min(n, d * chunk);
      const size_t end = std::min(n, begin + chunk);
      if (begin < end) {
        partial[d] = filter.CandidateLists(dev, query,
                                           static_cast<VertexId>(begin),
                                           static_cast<VertexId>(end));
      } else {
        partial[d].resize(nu);
      }
      scan_mem[d] = dev.stats() - before;
    });
  }
  pool.Wait();
  // Phase barrier: a shard device that tripped mid-scan invalidates its
  // slice of every candidate list, so the whole phase fails over.
  for (size_t d = 0; d < num_devs; ++d) {
    if (Status h = CheckDeviceHealthy(*devs[d], "shard_scan"); !h.ok()) {
      return h;
    }
  }

  // --- Build phase: the range-concatenated lists (ascending ranges of
  // ascending ids: already sorted) become the query's candidate sets on
  // the primary, in one bitset kernel. The buffers are valid on any
  // device — the join charges its own reads.
  std::vector<std::vector<VertexId>> lists(nu);
  for (VertexId u = 0; u < nu; ++u) {
    for (size_t d = 0; d < num_devs; ++d) {
      lists[u].insert(lists[u].end(), partial[d][u].begin(),
                      partial[d][u].end());
    }
  }
  const gpusim::MemStats before_build = primary.stats();
  FilterResult result = MakeFilterResult(primary, std::move(lists), n,
                                         filter.options().build_bitmaps);
  const gpusim::MemStats build_mem = primary.stats() - before_build;
  if (Status h = CheckDeviceHealthy(primary, "filter"); !h.ok()) return h;

  gpusim::MemStats total = build_mem;
  double max_scan_ms = 0;
  for (size_t d = 0; d < num_devs; ++d) {
    total += scan_mem[d];
    max_scan_ms =
        std::max(max_scan_ms, scan_mem[d].SimulatedMs(devs[d]->config()));
  }
  stats.filter = total;
  stats.min_candidate_size = result.min_candidate_size;
  // The scan is a barrier: the makespan is the slowest scan plus the
  // build.
  if (parallel_ms != nullptr) {
    *parallel_ms = max_scan_ms + build_mem.SimulatedMs(primary.config());
  }
  return result;
}

Result<PagedQueryResult> RunJoinStageShardedPaged(
    std::span<gpusim::Device* const> devs, const Graph& data,
    const NeighborStore& store, const GsiOptions& options,
    const ShardOptions& shard_options, const Graph& query,
    FilterResult filtered, QueryStats stats, const obs::TraceContext& trace) {
  GSI_CHECK_MSG(!devs.empty(), "sharded join needs at least one device");
  const size_t min_work = std::max<size_t>(1, shard_options.min_rows_per_shard);
  const size_t oversubscribe =
      std::max<size_t>(1, shard_options.slices_per_device);

  // Degenerate shapes take the single-device path; RunJoinStage recomputes
  // the plan, which is deterministic.
  if (devs.size() < 2 || query.num_vertices() < 2 || filtered.AnyEmpty()) {
    Result<QueryResult> one = RunJoinStage(*devs[0], data, store, options,
                                           query, std::move(filtered), stats,
                                           trace);
    if (!one.ok()) return one.status();
    return ToPagedResult(std::move(one.value()), *devs[0]);
  }

  gpusim::Device& primary = *devs[0];
  const obs::DeviceCycleClock primary_clock(primary);
  obs::ScopedSpan join_span(trace, "join", primary_clock, 0);
  const JoinPlan plan = MakeJoinPlan(query, data, filtered.candidates);
  // A step distributes only when its predicted volume fills every slice.
  const uint64_t volume_floor =
      static_cast<uint64_t>(devs.size()) * oversubscribe * min_work;

  // --- Step-at-a-time distributed join. Each iteration either runs the
  // step on the primary device (narrow / cheap steps, where scatter and
  // gather would cost more than they parallelize) or distributes it:
  // partition the table's rows into contiguous weight-balanced slices,
  // scatter each slice to a pulled device, run the one step there, stream
  // the partial result back, and gather in slice order. The gathered table
  // is bit-identical to a whole-table step (output rows are emitted in
  // input-row order), so the loop invariant — `m` equals the single-device
  // intermediate table — holds at every boundary.
  JoinEngine serial_engine(&primary, &store, options.join);
  serial_engine.set_trace(join_span.context());
  gpusim::MemStats serial_total;    // seed and serial steps (primary only)
  gpusim::MemStats join_counters;   // everything, summed across devices
  JoinStats detail;
  std::vector<double> device_loads(devs.size(), 0);  // modeled, see below
  double makespan_ms = 0;
  size_t shards_used = 1;
  ThreadPool pool(devs.size());  // reused by every fan-out below

  /// Per-row workload estimate for step `k` over the current table: the
  /// first-edge upper bound |N(v'_i, l0)| — the value PlanChunks balances
  /// chunks by (Algorithm 4). The probes are row-parallel, so wide tables
  /// fan the sizing kernel itself across the devices; the cost lands in
  /// join_counters and the makespan (max over devices) in makespan_ms.
  auto parallel_bounds = [&](const MatchTable& m,
                             size_t k) -> std::vector<uint64_t> {
    const size_t rows = m.rows();
    const size_t cols = m.cols();
    const LinkEdge& e0 = plan.steps[k].links[0];
    std::vector<uint64_t> weights(rows);
    const size_t workers = rows >= 4 * kWarpSize ? devs.size() : 1;
    const size_t chunk =
        ((rows + workers - 1) / workers + kWarpSize - 1) / kWarpSize *
        kWarpSize;
    std::vector<gpusim::MemStats> deltas(workers);
    auto scan_range = [&](gpusim::Device& dev, size_t begin, size_t end) {
      if (begin >= end) return;
      gpusim::Launch(dev, (end - begin + kWarpSize - 1) / kWarpSize,
                     [&](Warp& w) {
                       size_t r0 = begin + w.global_id() * kWarpSize;
                       if (r0 >= end) return;
                       size_t lanes = std::min<size_t>(kWarpSize, end - r0);
                       uint64_t idx[kWarpSize];
                       VertexId vs[kWarpSize];
                       for (size_t k2 = 0; k2 < lanes; ++k2) {
                         idx[k2] = (r0 + k2) * cols + e0.prev_column;
                       }
                       w.Gather(m.data(),
                                std::span<const uint64_t>(idx, lanes),
                                std::span<VertexId>(vs, lanes));
                       for (size_t k2 = 0; k2 < lanes; ++k2) {
                         weights[r0 + k2] = store.NeighborCountUpperBound(
                             w, vs[k2], e0.label);
                       }
                     });
    };
    {
      for (size_t d = 0; d < workers; ++d) {
        pool.Submit([&, d] {
          gpusim::Device& dev = *devs[d];
          const gpusim::MemStats before = dev.stats();
          scan_range(dev, std::min(rows, d * chunk),
                     std::min(rows, (d + 1) * chunk));
          deltas[d] = dev.stats() - before;
        });
      }
      pool.Wait();
    }
    double max_ms = 0;
    for (size_t d = 0; d < workers; ++d) {
      join_counters += deltas[d];
      max_ms = std::max(max_ms, deltas[d].SimulatedMs(devs[d]->config()));
    }
    makespan_ms += max_ms;
    return weights;
  };

  gpusim::MemStats mark = primary.stats();
  ResultManifest manifest;  // filled by the final step
  bool paged_final = false;  // final step was distributed: partials kept
  MatchTable m = serial_engine.SeedTable(plan, filtered.candidates);
  for (size_t k = 0; k < plan.steps.size() && m.rows() > 0; ++k) {
    // Close the current primary-serial segment before any parallel work.
    serial_total += primary.stats() - mark;

    bool distributed = false;
    std::vector<ShardRange> slices;
    if (m.rows() >= 2) {
      std::vector<uint64_t> weights = parallel_bounds(m, k);
      // The sizing kernels fanned out over the devices; a trip there must
      // surface even when the step then runs serially on the primary.
      for (gpusim::Device* d : devs) {
        if (Status h = CheckDeviceHealthy(*d, "shard_sizing"); !h.ok()) {
          return h;
        }
      }
      uint64_t predicted = 0;
      for (uint64_t b : weights) predicted += b;
      // Distribute when the step's predicted volume fills every slice AND
      // dwarfs the table being scattered (per-step fan-out has fixed
      // costs: sizing, under-filled kernels, the lost cross-slice
      // extraction sharing).
      if (predicted >= volume_floor &&
          predicted >= 4 * static_cast<uint64_t>(m.rows()) * m.cols()) {
        slices = PartitionByWorkload(
            weights, std::min(devs.size() * oversubscribe, m.rows()));
        distributed = slices.size() >= 2;
      }
    }
    mark = primary.stats();
    if (!distributed) {
      Result<MatchTable> next = serial_engine.RunSteps(
          plan, filtered.candidates, std::move(m), k, k + 1);
      if (!next.ok()) return next.status();
      m = std::move(next.value());
      continue;
    }

    // Fan-out: device threads pull slices until none remain. A slice's
    // simulated cost depends only on the (identical) device config, never
    // on which device pulled it, so the wall-clock assignment cannot
    // perturb results; the modeled schedule below is deterministic.
    const size_t workers = std::min(devs.size(), slices.size());
    shards_used = std::max(shards_used, workers);
    // Which device pulls which slice is wall-clock scheduling, so the
    // slice spans' device attribution is NOT deterministic on this path
    // (unlike the partitioned path, where work is pinned).
    obs::ScopedSpan step_span(join_span.context(), "join_step_distributed",
                              primary_clock);
    step_span.AddAttr("step", static_cast<uint64_t>(k));
    step_span.AddAttr("slices", static_cast<uint64_t>(slices.size()));
    std::vector<std::optional<Result<MatchTable>>> tables(slices.size());
    std::vector<gpusim::MemStats> slice_mem(slices.size());
    std::vector<JoinStats> slice_join(slices.size());
    std::vector<gpusim::Device*> slice_dev(slices.size(), nullptr);
    std::atomic<size_t> next_slice{0};
    {
      for (size_t d = 0; d < workers; ++d) {
        pool.Submit([&, d] {
          gpusim::Device& dev = *devs[d];
          const obs::DeviceCycleClock clock(dev);
          for (size_t i = next_slice.fetch_add(1); i < slices.size();
               i = next_slice.fetch_add(1)) {
            slice_dev[i] = &dev;
            obs::ScopedSpan slice_span(step_span.context(), "shard_slice",
                                       clock, static_cast<int32_t>(d));
            slice_span.AddAttr("slice", static_cast<uint64_t>(i));
            slice_span.AddAttr(
                "rows_in",
                static_cast<uint64_t>(slices[i].end - slices[i].begin));
            const gpusim::MemStats before = dev.stats();
            // Scatter in (host-mediated, uncharged like any upload), one
            // step on this device, partial table back via the gather
            // below.
            MatchTable part = MatchTable::CopySlice(
                dev, m, slices[i].begin, slices[i].end - slices[i].begin);
            JoinEngine join(&dev, &store, options.join);
            tables[i] = join.RunSteps(plan, filtered.candidates,
                                      std::move(part), k, k + 1);
            slice_join[i] = join.stats();
            slice_mem[i] = dev.stats() - before;
          }
        });
      }
      pool.Wait();
    }
    for (size_t i = 0; i < slices.size(); ++i) {
      if (!tables[i]->ok()) return tables[i]->status();
    }

    // Deterministic greedy list schedule of the slice costs onto the
    // devices — the same modeling ScheduleBlocks applies to blocks on SMs;
    // wall-clock thread interleaving never leaks into simulated time.
    std::vector<double> slice_ms(slices.size());
    size_t step_peak_rows = 0;  // slices are concurrently resident
    for (size_t i = 0; i < slices.size(); ++i) {
      join_counters += slice_mem[i];
      slice_ms[i] = slice_mem[i].SimulatedMs(primary.config());
      step_peak_rows += slice_join[i].peak_rows;
      detail.total_chunks += slice_join[i].total_chunks;
      detail.dup_cache_hits += slice_join[i].dup_cache_hits;
      detail.dup_cache_misses += slice_join[i].dup_cache_misses;
    }
    detail.peak_rows = std::max(detail.peak_rows, step_peak_rows);
    const std::vector<double> loads = ListSchedule(slice_ms, workers);
    double step_makespan = 0;
    for (size_t d = 0; d < loads.size(); ++d) {
      step_makespan = std::max(step_makespan, loads[d]);
      device_loads[d] += loads[d];
    }
    makespan_ms += step_makespan;
    detail.iterations += 1;

    if (k + 1 == plan.steps.size()) {
      // Final step: nothing downstream needs the whole table on one
      // device, so the partial tables stay where the slices ran and the
      // gather degenerates to recording the slice order in the manifest.
      // (Which device owns a part follows the wall-clock slice pulls —
      // like the slice spans' attribution — but the segment order, and
      // hence every page, is the deterministic slice order.)
      manifest.set_cols(plan.order.size());
      for (size_t i = 0; i < tables.size(); ++i) {
        MatchTable part_table = std::move(tables[i]->value());
        const size_t part_rows = part_table.rows();
        if (part_rows == 0) continue;
        const size_t part =
            manifest.AddPart(std::move(part_table), *slice_dev[i]);
        manifest.AddSegment(part, 0, part_rows);
      }
      detail.peak_rows = std::max(detail.peak_rows, manifest.rows());
      paged_final = true;
      m = MatchTable();
      mark = primary.stats();
      break;
    }

    // Gather in slice order on the primary's address space (bulk
    // host-mediated concatenation) — the next step consumes the whole
    // table.
    std::vector<const MatchTable*> parts;
    parts.reserve(slices.size());
    for (auto& t : tables) parts.push_back(&t->value());
    m = MatchTable::ConcatRows(primary, parts);
    detail.peak_rows = std::max<size_t>(detail.peak_rows, m.rows());
    mark = primary.stats();
  }
  serial_total += primary.stats() - mark;
  // Final boundary: the gather/concat ran on the primary after the last
  // per-slice check.
  if (Status h = CheckDeviceHealthy(primary, "join_gather"); !h.ok()) {
    return h;
  }

  if (!paged_final) {
    if (m.rows() == 0 && m.cols() != plan.order.size()) {
      // A distributed step emptied the table mid-join: the final answer is
      // empty but must still be full-width, exactly like RunSteps' early
      // exit.
      m = MatchTable::Alloc(primary, 0, plan.order.size());
    }
    // The final step ran serially: the whole table already lives on the
    // primary; the manifest is the degenerate one-part form.
    manifest = ResultManifest::FromWholeTable(std::move(m), primary);
  }

  // --- Roll-up: counters sum total work across devices; the time is the
  // parallel makespan (serial segments on the primary + the modeled slice
  // schedules + the gathers).
  const JoinStats serial_detail = serial_engine.stats();
  detail.iterations += serial_detail.iterations;
  detail.peak_rows = std::max(detail.peak_rows, serial_detail.peak_rows);
  detail.total_chunks += serial_detail.total_chunks;
  detail.dup_cache_hits += serial_detail.dup_cache_hits;
  detail.dup_cache_misses += serial_detail.dup_cache_misses;
  detail.final_rows = manifest.rows();

  join_counters += serial_total;

  PagedQueryResult out;
  out.stats = stats;
  out.manifest = std::move(manifest);
  out.column_to_query = plan.order;
  out.stats.join = join_counters;
  out.stats.join_detail = detail;
  out.stats.filter_ms = out.stats.filter.SimulatedMs(primary.config());
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
  obs::ScopedSpan span(trace, "execute_sharded", primary_clock, 0);
  span.AddAttr("devices", static_cast<uint64_t>(devs.size()));
  QueryStats stats;
  double filter_parallel_ms = 0;
  Result<FilterResult> filtered = RunFilterStageSharded(
      devs, filter, query, stats, &filter_parallel_ms, span.context());
  if (!filtered.ok()) return filtered.status();
  Result<PagedQueryResult> out = RunJoinStageShardedPaged(
      devs, data, store, options, shard_options, query,
      std::move(filtered.value()), stats, span.context());
  if (out.ok()) {
    // The join stage derives filter_ms from the summed counters; restore
    // the fanned-out filter's makespan so total_ms reflects wall-parallel
    // devices, not serialized work.
    out->stats.filter_ms = filter_parallel_ms;
    out->stats.total_ms = out->stats.filter_ms + out->stats.join_ms;
    out->stats.wall_ms = wall.ElapsedMs();
  }
  return out;
}

}  // namespace gsi
