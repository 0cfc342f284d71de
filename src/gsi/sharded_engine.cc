#include "gsi/sharded_engine.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "gsi/fault.h"
#include "gsi/join.h"
#include "gsi/join_lanes.h"
#include "gsi/load_balance.h"
#include "gsi/plan.h"
#include "util/check.h"
#include "util/timer.h"

namespace gsi {

namespace {

/// Lane `run` of a fanned-out join on `dev`: the run's seeds, bounds and
/// offsets cut from the seeded table and its sizing, the offsets rebased
/// to 0. Host-mediated and uncharged, like any upload.
internal::JoinLane LaneOf(gpusim::Device& dev, const NeighborStore& store,
                          const JoinEngine::SizedTable& seeded,
                          const ShardRange& run) {
  const VertexId* seeds = seeded.table.data().data();
  const JoinEngine::StepBounds& sizing = *seeded.sizing;
  std::vector<uint64_t> offsets(sizing.offsets.data() + run.begin,
                                sizing.offsets.data() + run.end + 1);
  for (uint64_t& o : offsets) o -= sizing.offsets[run.begin];
  internal::JoinLane lane;
  lane.dev = &dev;
  lane.store = &store;
  lane.track = dev.ordinal();
  lane.seeds = JoinEngine::SizedTable{
      MatchTable::FromColumn(dev, std::vector<VertexId>(seeds + run.begin,
                                                        seeds + run.end)),
      JoinEngine::StepBounds{
          dev.Upload(std::vector<uint32_t>(sizing.bounds.data() + run.begin,
                                           sizing.bounds.data() + run.end)),
          dev.Upload(std::move(offsets))}};
  return lane;
}

}  // namespace

Result<PagedQueryResult> RunJoinStageShardedPaged(
    std::span<gpusim::Device* const> devs, const Graph& data,
    const NeighborStore& store, const GsiOptions& options,
    const ShardOptions& shard_options, const Graph& query,
    FilterResult filtered, QueryStats stats, const obs::TraceContext& trace) {
  GSI_CHECK_MSG(!devs.empty(), "sharded join needs at least one device");
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

  // The primary seeds M: under Prealloc-Combine the seed kernel also
  // writes step 0's sizing, every seed's first-edge bound and GBA offset.
  const JoinPlan plan = MakeJoinPlan(query, data, filtered.candidates);
  JoinEngine engine(&primary, &store, options.join);
  engine.set_trace(join_span.context());
  const gpusim::MemStats before = primary.stats();
  JoinEngine::SizedTable seeded = engine.Seed(
      plan, filtered.candidates[plan.order[0]].list());

  // The one fan-out decision, from that sizing: split the seeds when the
  // join's first step fills every device and dwarfs the seed list (a lane
  // has fixed costs: its own launches, the lost cross-lane extraction
  // sharing). The two-step scheme sizes nothing and runs on the primary.
  std::vector<ShardRange> runs;
  const size_t rows = seeded.table.rows();
  if (devs.size() > 1 && seeded.sizing) {
    const JoinEngine::StepBounds& sizing = *seeded.sizing;
    const uint64_t predicted = sizing.offsets[rows];
    const uint64_t volume_floor =
        devs.size() *
        std::max<uint64_t>(1, shard_options.min_rows_per_shard);
    if (predicted >= volume_floor && predicted >= 4 * uint64_t{rows}) {
      runs = PartitionByWorkload(
          std::vector<uint64_t>(sizing.bounds.data(),
                                sizing.bounds.data() + rows),
          std::min(devs.size(), rows));
    }
  }

  PagedQueryResult out;
  out.stats = stats;
  out.column_to_query = plan.order;
  if (runs.size() < 2) {
    // One device's join: the primary runs every step.
    Result<JoinEngine::SizedTable> joined = engine.RunSteps(
        plan, filtered.candidates, std::move(seeded), 0, plan.steps.size());
    if (!joined.ok()) return joined.status();
    out.manifest =
        ResultManifest::FromWholeTable(std::move(joined->table), primary);
    out.stats.join = primary.stats() - before;
    out.stats.join_detail = engine.stats();
    out.stats.join_ms = out.stats.join.SimulatedMs(primary.config());
  } else {
    // Lane i joins run i's seeds on devs[i], every step, and keeps its
    // table there as one manifest segment.
    const gpusim::MemStats seed_mem = primary.stats() - before;
    std::vector<internal::JoinLane> lanes;
    for (size_t i = 0; i < runs.size(); ++i) {
      lanes.push_back(LaneOf(*devs[i], store, seeded, runs[i]));
    }
    seeded = JoinEngine::SizedTable();
    Result<internal::LaneResults> lane_out =
        internal::RunJoinLanes(std::move(lanes), plan, filtered.candidates,
                               options.join, join_span.context());
    if (!lane_out.ok()) return lane_out.status();
    out.manifest.set_cols(plan.order.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      const size_t part_rows = lane_out->tables[i].rows();
      if (part_rows == 0) continue;
      out.manifest.AddSegment(
          out.manifest.AddPart(std::move(lane_out->tables[i]), *devs[i]), 0,
          part_rows);
    }
    out.stats.join = seed_mem;
    out.stats.join += lane_out->counters;
    out.stats.join_detail = lane_out->detail;
    out.stats.join_ms =
        seed_mem.SimulatedMs(primary.config()) + lane_out->makespan_ms;
    out.stats.shards_used = runs.size();
    out.stats.shard_skew = lane_out->skew;
  }
  // Every device fails the attempt if it tripped, even one leased for a
  // fan-out that never came.
  for (gpusim::Device* d : devs) {
    if (Status h = CheckDeviceHealthy(*d, "join"); !h.ok()) return h;
  }
  out.stats.total_ms = out.stats.filter_ms + out.stats.join_ms;
  out.stats.num_matches = out.manifest.rows();
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
