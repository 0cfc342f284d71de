#include "gsi/join_lanes.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/thread_pool.h"

namespace gsi::internal {

Result<LaneResults> RunJoinLanes(std::vector<JoinLane> lanes,
                                 const JoinPlan& plan,
                                 const std::vector<CandidateSet>& candidates,
                                 const JoinOptions& options,
                                 const obs::TraceContext& trace,
                                 const LaneDone& done) {
  const size_t n = lanes.size();
  std::vector<size_t> seed_rows(n);
  for (size_t i = 0; i < n; ++i) seed_rows[i] = lanes[i].seeds.table.rows();
  std::vector<std::optional<Result<JoinEngine::SizedTable>>> joined(n);
  std::vector<gpusim::MemStats> mem(n);
  std::vector<JoinStats> lane_join(n);
  {
    ThreadPool pool(n);
    for (size_t i = 0; i < n; ++i) {
      pool.Submit([&, i] {
        JoinLane& lane = lanes[i];
        gpusim::Device& dev = *lane.dev;
        const obs::DeviceCycleClock clock(dev);
        obs::ScopedSpan span(trace, "lane", clock, lane.track);
        if (!lane.partitions.empty()) {
          span.AddAttr("partitions", lane.partitions);
        }
        span.AddAttr("seed_rows", static_cast<uint64_t>(seed_rows[i]));
        if (seed_rows[i] == 0) {
          joined[i] = JoinEngine::SizedTable{
              MatchTable::Alloc(dev, 0, plan.order.size()), std::nullopt};
          return;
        }
        JoinEngine join(&dev, lane.store, options);
        join.set_trace(span.context());
        const gpusim::MemStats before = dev.stats();
        const uint64_t start_ns = clock.NowNanos();
        JoinEngine::SizedTable seeded =
            lane.seeds.sizing ? std::move(lane.seeds)
                              : join.Seed(plan, lane.seeds.table.data());
        joined[i] = join.RunSteps(plan, candidates, std::move(seeded), 0,
                                  plan.steps.size());
        mem[i] = dev.stats() - before;
        lane_join[i] = join.stats();
        if (done) done(i, span.context(), start_ns);
      });
    }
    pool.Wait();
  }

  LaneResults out;
  double sum_ms = 0;
  size_t active = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!joined[i]->ok()) return joined[i]->status();
    out.tables.push_back(std::move(joined[i]->value().table));
    out.detail.final_rows += out.tables.back().rows();
    if (seed_rows[i] == 0) continue;
    const JoinStats& s = lane_join[i];
    const double ms = mem[i].SimulatedMs(lanes[i].dev->config());
    out.counters += mem[i];
    ++active;
    sum_ms += ms;
    out.makespan_ms = std::max(out.makespan_ms, ms);
    out.detail.iterations = std::max(out.detail.iterations, s.iterations);
    out.detail.peak_rows += s.peak_rows;
    out.detail.total_chunks += s.total_chunks;
    out.detail.dup_cache_hits += s.dup_cache_hits;
    out.detail.dup_cache_misses += s.dup_cache_misses;
    out.detail.staged_blocks += s.staged_blocks;
    out.detail.fused_steps += s.fused_steps;
  }
  out.skew = active > 0 && sum_ms > 0
                 ? out.makespan_ms / (sum_ms / static_cast<double>(active))
                 : 0;
  return out;
}

}  // namespace gsi::internal
