#ifndef GSI_GSI_SHARDED_ENGINE_H_
#define GSI_GSI_SHARDED_ENGINE_H_

#include <span>

#include "gpusim/device.h"
#include "graph/graph.h"
#include "gsi/filter.h"
#include "gsi/matcher.h"
#include "gsi/result_manifest.h"
#include "storage/neighbor_store.h"
#include "util/status.h"

namespace gsi {

/// Tuning of the intra-query sharded execution path (Section VIII: the
/// multi-GPU design partitions one query's candidate space across devices
/// and merges partial match tables).
struct ShardOptions {
  /// Volume knob: a join fans out across devices only when its seed
  /// step's predicted workload (the sum of the seeds' first-edge bounds)
  /// reaches min_rows_per_shard units per device (i.e. devices x
  /// min_rows_per_shard in total); a smaller join runs on one device,
  /// where it is cheap by construction. Lower it to force sharding on tiny
  /// test workloads.
  size_t min_rows_per_shard = 64;
};

/// Joining phase fanned out over `devs` (Section VIII): the query's
/// candidate space, the seed list C(order[0]), is split once. The primary
/// (devs[0]) seeds M with step 0's kernel, which also writes Algorithm 4's
/// sizing: every seed's first-edge bound |N(v, l0)| and GBA offset. When
/// that predicted volume fills every device (see ShardOptions) and is at
/// least 4x the seed count, PartitionByWorkload cuts the seeds into
/// contiguous weight-balanced runs, one per lane, and lane i joins run i
/// on devs[i], every step, in one JoinEngine (internal::RunJoinLanes): its
/// seeds, bounds and offsets (rebased to 0) are handed over
/// host-mediated and uncharged, like any upload, and its table stays on
/// devs[i]. Otherwise the primary runs every step. A lane has no seed
/// kernel of its own, so the primary launches one kernel more than its
/// lane's steps, and every other device launches only its lane's steps.
///
/// This is the only join over a full replica: one device is the case
/// devs.size() == 1, where every step runs on it. The result is
/// bit-identical to that one-device join: every step emits output rows in
/// input-row order, so each lane's table is its run's contiguous rows of
/// the one-device table, and the runs in lane order are the whole table.
/// A join that does not fan out costs exactly what one device's join does
/// and starts no host thread; the two-step output scheme, which computes
/// no first-edge bounds to size a fan-out by, never fans out.
///
/// Stats roll-up: filter_ms is kept from `stats` (the filter stage's
/// price). `stats.join` sums every device's counters (total work).
/// join_ms is the parallel makespan: the primary's seed kernel plus the
/// slowest lane. shards_used counts the lanes (1 without a fan-out), and
/// shard_skew is max/mean join time over them. A one-vertex query or an
/// empty candidate set is answered on devs[0] without a join
/// (internal::JoinWithoutEngine). Every device is health-checked at the
/// end of the join, so a device that tripped fails the attempt even if it
/// ran no lane. The `join` span carries the match count (`matches`), and
/// each lane is one `lane` span (attr `seed_rows`) holding its steps.
///
/// Result form: a fanned-out join returns a ResultManifest whose part i,
/// lane i's table, lives on devs[i], one segment each, in lane order; a
/// join on the primary returns the degenerate one-part manifest on
/// devs[0]. Materializing the manifest (ToQueryResult) is host-mediated
/// concatenation, uncharged, so it changes no counter. Spans are
/// attributed to each device's ordinal().
///
/// Note: each lane's tables are bounded by options.join.max_rows
/// separately, so a query near the single-device row budget can succeed
/// sharded; the final match set is identical whenever both runs succeed.
Result<PagedQueryResult> RunJoinStageShardedPaged(
    std::span<gpusim::Device* const> devs, const Graph& data,
    const NeighborStore& store, const GsiOptions& options,
    const ShardOptions& shard_options, const Graph& query,
    FilterResult filtered, QueryStats stats,
    const obs::TraceContext& trace = {});

/// Full execution over a full replica in manifest form, for any device
/// count: RunFilterStage on the primary (devs[0]), then
/// RunJoinStageShardedPaged across `devs`, under one `execute` span (attr
/// `devices`). Only the join fans out, so the filter phase (candidate
/// sets, `stats.filter`, filter_ms) is exactly one device's. Over one
/// device this is the whole one-device flow: GsiMatcher::Find,
/// QueryEngine::RunBatch and a target-less QueryEngine::Execute run it so.
/// Each device must be used by one call at a time (lease them from a
/// DevicePool). The materialized table, every simulated counter and the
/// trace are deterministic for a fixed (data, options, devices, query) —
/// host thread scheduling cannot perturb them. QueryEngine::Execute is this
/// plus ToQueryResult.
Result<PagedQueryResult> ExecuteQueryShardedPaged(
    std::span<gpusim::Device* const> devs, const Graph& data,
    const NeighborStore& store, const FilterContext& filter,
    const GsiOptions& options, const ShardOptions& shard_options,
    const Graph& query, const obs::TraceContext& trace = {});

}  // namespace gsi

#endif  // GSI_GSI_SHARDED_ENGINE_H_
