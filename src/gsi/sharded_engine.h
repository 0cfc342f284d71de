#ifndef GSI_GSI_SHARDED_ENGINE_H_
#define GSI_GSI_SHARDED_ENGINE_H_

#include <span>

#include "gpusim/device.h"
#include "graph/graph.h"
#include "gsi/filter.h"
#include "gsi/load_balance.h"
#include "gsi/matcher.h"
#include "gsi/result_manifest.h"
#include "storage/neighbor_store.h"
#include "util/status.h"

namespace gsi {

/// Tuning of the intra-query sharded execution path (Section VIII: the
/// multi-GPU design partitions one query's candidate space across devices
/// and merges partial match tables).
struct ShardOptions {
  /// Volume knob: a join step distributes across devices only when its
  /// predicted workload reaches min_rows_per_shard units per device (i.e.
  /// devices x min_rows_per_shard in total); smaller steps run on one
  /// device, where they are cheap by construction. Lower it to force
  /// sharding on tiny test workloads.
  size_t min_rows_per_shard = 64;
};

/// Joining phase fanned out over `devs` (Section VIII): the query's
/// candidate space — the intermediate match table, starting from the seed
/// list C(order[0]) — is processed step by step. Each step's table comes
/// with Algorithm 4's sizing, written by the kernel that wrote the table
/// (the seeding kernel for step 0, the previous step's link kernels after
/// it): every row's workload as its first-edge upper bound |N(v, l0)|,
/// and its GBA offset. A step whose predicted volume fills every device
/// and dwarfs the table itself is distributed: the rows are partitioned
/// into contiguous weight-balanced slices, slice i runs the step's Pass A
/// and link kernels on devs[i] with its share of the bounds and GBA
/// offsets, and its link kernel sizes its rows for the next step. The
/// partial tables and their sizings are concatenated back in slice order,
/// each slice's offsets shifted by the bound totals of the slices before
/// it (host-mediated, like the tables), so the primary launches nothing
/// between a gather and the next step's Pass A. Narrow or cheap steps run
/// on devs[0] from the same sizing, where deferring costs little by
/// construction. Rebalancing at every distributed boundary means a hot
/// row's descendants spread across slices the moment they exist, instead
/// of pinning one device.
///
/// This is the only join over a full replica: one device is the case
/// devs.size() == 1, where every step runs on it. The result is
/// bit-identical to that one-device join: every step emits output rows in
/// input-row order, so concatenating contiguous row slices reproduces the
/// whole-table step row for row at each boundary. A join whose steps all
/// stay on devs[0] costs exactly what one device's join does and starts no
/// host thread.
///
/// Stats roll-up: filter_ms is kept from `stats` (the filter stage's
/// price). `stats.join` sums every device's counters (total work).
/// join_ms is the parallel makespan: the primary-serial segments (seed,
/// serial steps) plus, per distributed step, its slowest slice. Slice i's
/// cost is device i's load in shard_skew; shards_used is the widest
/// fan-out. A one-vertex query or an empty candidate set is answered on
/// devs[0] without a join (internal::JoinWithoutEngine). Steps that never
/// clear the volume floor, and every step of the two-step output scheme,
/// which computes no first-edge bounds to size a fan-out by, run on
/// devs[0]. Every device is health-checked at the end of a stepped join, so
/// a device that tripped fails the attempt even if no step used it. The
/// `join` span carries the match count (`matches`).
///
/// Result form: when the FINAL join step distributes, its partial tables
/// stay on the devices that ran the slices and are returned as a
/// ResultManifest whose part i lives on devs[i] (intermediate steps still
/// gather — the next step consumes the whole table). A serial final step
/// returns the degenerate one-part manifest on devs[0]. Materializing the
/// manifest (ToQueryResult) is host-mediated concatenation, uncharged, so
/// it changes no counter. Spans are attributed to each device's ordinal().
///
/// Note: each slice's intermediate table is bounded by
/// options.join.max_rows separately, so a query near the single-device row
/// budget can succeed sharded; the final match set is identical whenever
/// both runs succeed.
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
