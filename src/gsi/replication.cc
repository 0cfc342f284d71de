#include "gsi/replication.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/launch.h"
#include "gsi/fault.h"
#include "gsi/filter.h"
#include "gsi/halo_cache.h"
#include "gsi/join.h"
#include "gsi/join_lanes.h"
#include "gsi/partition_internal.h"
#include "gsi/plan.h"
#include "storage/signature.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gsi {
namespace {

using gpusim::kTransactionBytes;

/// The selection's execution lanes: one per distinct selected device
/// (ascending device index), each scanning and joining all of its
/// partitions in one run. The first lane's device is the primary (gathers
/// candidates, merges tables).
struct Lanes {
  std::vector<size_t> devices;                      // ascending
  std::vector<std::vector<PartitionId>> parts;      // [lane] -> partitions
  std::vector<size_t> lane_of;                      // [partition] -> lane
};

Lanes LanesOf(const ReplicatedGraph& rg, const ReplicaSelection& sel) {
  Lanes lanes;
  const size_t k = rg.num_partitions();
  lanes.lane_of.resize(k);
  std::map<size_t, std::vector<PartitionId>> by_device;
  for (PartitionId p = 0; p < k; ++p) {
    by_device[sel.DeviceOf(rg.placement(), p)].push_back(p);
  }
  for (auto& [d, parts] : by_device) {
    for (PartitionId p : parts) lanes.lane_of[p] = lanes.devices.size();
    lanes.devices.push_back(d);
    lanes.parts.push_back(std::move(parts));
  }
  return lanes;
}

/// A lane's partition ids ("0,2"), its spans' `partitions` attr.
std::string PartitionsAttr(std::span<const PartitionId> parts) {
  std::string ids;
  for (PartitionId p : parts) {
    if (!ids.empty()) ids += ',';
    ids += std::to_string(p);
  }
  return ids;
}

Status ValidateSelection(const ReplicatedGraph& rg,
                         const ReplicaSelection& sel) {
  if (sel.choice.size() != rg.num_partitions()) {
    return Status::InvalidArgument(
        "replica selection covers " + std::to_string(sel.choice.size()) +
        " partitions, graph has " + std::to_string(rg.num_partitions()));
  }
  for (PartitionId p = 0; p < rg.num_partitions(); ++p) {
    if (sel.choice[p] >= rg.num_replicas()) {
      return Status::InvalidArgument(
          "selection picks replica " + std::to_string(sel.choice[p]) +
          " of partition " + std::to_string(p) + ", only " +
          std::to_string(rg.num_replicas()) + " exist");
    }
  }
  return Status::Ok();
}

/// The routing table of the lane on device d: every probe of partition o
/// reads o's one share, priced by where o is placed. A partition placed on
/// d is local (co-located when d is not o's replica 0); any other is read
/// remotely, from the replica this query selected (a device it holds, so
/// concurrent queries never touch each other's devices).
internal::RoutedStoreView MakeLaneView(const ReplicatedGraph& rg, size_t d,
                                       HaloCache* halo) {
  using Route = internal::RoutedStoreView::Route;
  const size_t k = rg.num_partitions();
  std::vector<const PcsrStore*> serving(k);
  std::vector<Route> route(k, Route::kRemote);
  for (PartitionId o = 0; o < k; ++o) {
    serving[o] = &rg.store(o);
    if (rg.placement().Hosts(d, o)) {
      route[o] = rg.placement().device_of[o][0] == d ? Route::kLocal
                                                     : Route::kCoLocated;
    }
  }
  return internal::RoutedStoreView(rg.owners(), std::move(serving),
                                   std::move(route), halo);
}

}  // namespace

bool ReplicaPlacement::Hosts(size_t d, PartitionId p) const {
  for (size_t dev : device_of[p]) {
    if (dev == d) return true;
  }
  return false;
}

Result<ReplicaPlacement> MakeStaggeredPlacement(size_t num_devices,
                                                size_t partitions,
                                                size_t replicas) {
  if (num_devices < 1 || partitions < 1) {
    return Status::InvalidArgument(
        "replicated placement needs >= 1 device and >= 1 partition");
  }
  if (replicas < 1 || replicas > num_devices) {
    return Status::InvalidArgument(
        "replicas must be in [1, num_devices]; got " +
        std::to_string(replicas) + " over " + std::to_string(num_devices) +
        " devices");
  }
  ReplicaPlacement pl;
  pl.num_devices = num_devices;
  pl.partitions = partitions;
  pl.replicas = replicas;
  pl.device_of.resize(partitions);
  pl.shares_of.resize(num_devices);
  // Stride N/R spaces the replicas of one partition across the pool: the
  // offsets j*(N/R) for j < R are strictly increasing and below N, so the
  // R devices are distinct, and partitions p, p + N/R, ... share device
  // sets — the lanes AcquireOneOfEach packs onto.
  const size_t stride = std::max<size_t>(1, num_devices / replicas);
  for (PartitionId p = 0; p < partitions; ++p) {
    for (size_t j = 0; j < replicas; ++j) {
      pl.device_of[p].push_back((p + j * stride) % num_devices);
    }
  }
  for (PartitionId p = 0; p < partitions; ++p) {
    for (size_t d : pl.device_of[p]) pl.shares_of[d].push_back(p);
  }
  for (std::vector<PartitionId>& shares : pl.shares_of) {
    std::sort(shares.begin(), shares.end());
  }
  return pl;
}

uint64_t ReplicationBuildStats::max_resident_bytes() const {
  uint64_t worst = 0;
  for (uint64_t b : resident_bytes) worst = std::max(worst, b);
  return worst;
}

Result<ReplicatedGraph> ReplicatedGraph::Build(
    std::span<gpusim::Device* const> devs, const Graph& data,
    const GsiOptions& options, const GraphPartitioner& partitioner,
    size_t partitions, size_t replicas) {
  if (devs.empty()) {
    return Status::InvalidArgument(
        "replicated build needs at least one device");
  }
  Status valid = ValidateGsiOptions(options);
  if (!valid.ok()) return valid;
  if (options.join.storage != StorageKind::kPcsr) {
    return Status::InvalidArgument(
        "replicated execution requires PCSR storage (join.storage)");
  }
  if (options.filter.strategy != FilterStrategy::kSignature) {
    return Status::InvalidArgument(
        "replicated execution requires the signature filter strategy");
  }
  if (partitions == 0) partitions = devs.size();
  Result<ReplicaPlacement> placement =
      MakeStaggeredPlacement(devs.size(), partitions, replicas);
  if (!placement.ok()) return placement.status();

  const size_t k = partitions;
  std::vector<PartitionId> owner = partitioner.Assign(data, k);
  if (owner.size() != data.num_vertices()) {
    return Status::InvalidArgument(
        partitioner.name() + " returned an assignment of the wrong size");
  }
  for (PartitionId p : owner) {
    if (p >= k) {
      return Status::InvalidArgument(partitioner.name() +
                                     " assigned a vertex outside [0, K)");
    }
  }

  ReplicatedGraph rg;
  rg.data_ = &data;
  rg.options_ = options;
  rg.partitioner_name_ = partitioner.name();
  rg.devs_.assign(devs.begin(), devs.end());
  rg.placement_ = std::move(placement.value());
  rg.owner_ = std::move(owner);
  rg.owned_.resize(k);
  for (VertexId v = 0; v < data.num_vertices(); ++v) {
    rg.owned_[rg.owner_[v]].push_back(v);
  }

  // One share per partition, built on its replica-0 device; every replica
  // device reads it and is charged its bytes.
  ReplicationBuildStats& bs = rg.build_stats_;
  bs.resident_bytes.assign(devs.size(), 0);
  for (PartitionId p = 0; p < k; ++p) {
    gpusim::Device& dev = *rg.devs_[rg.placement_.device_of[p][0]];
    rg.stores_.push_back(
        PcsrStore::BuildSubset(dev, data, rg.owned_[p], options.join.gpn));
    rg.signatures_.push_back(SignatureTable::BuildSubset(
        dev, data, rg.owned_[p], options.filter.signature_bits,
        options.filter.layout));
    const uint64_t share_bytes =
        rg.stores_[p]->device_bytes() + rg.signatures_[p].device_bytes();
    for (size_t d : rg.placement_.device_of[p]) {
      bs.resident_bytes[d] += share_bytes;
    }
    bs.replicated_bytes += share_bytes;
    bs.total_bytes += replicas * share_bytes;
  }
  // The halo budget is a reserved slice of each pool device's resident
  // memory (not of replicated/total bytes, which measure share storage): a
  // device runs at most one lane, and each lane makes one cache per query.
  for (uint64_t& b : bs.resident_bytes) b += options.halo_budget_bytes;
  for (VertexId v = 0; v < data.num_vertices(); ++v) {
    for (const Neighbor& nb : data.neighbors(v)) {
      if (nb.v > v && rg.owner_[v] != rg.owner_[nb.v]) ++bs.cut_edges;
    }
  }
  return rg;
}

ReplicaSelection CompactSelection(const ReplicatedGraph& rg) {
  const ReplicaPlacement& pl = rg.placement();
  ReplicaSelection sel;
  sel.choice.resize(pl.partitions);
  std::vector<uint8_t> used(pl.num_devices, 0);
  for (PartitionId p = 0; p < pl.partitions; ++p) {
    size_t best = 0;
    for (size_t j = 1; j < pl.replicas; ++j) {
      const size_t d = pl.device_of[p][j];
      const size_t bd = pl.device_of[p][best];
      if (std::make_pair(used[d] == 0, d) < std::make_pair(used[bd] == 0, bd)) {
        best = j;
      }
    }
    sel.choice[p] = static_cast<uint32_t>(best);
    used[pl.device_of[p][best]] = 1;
  }
  return sel;
}

Result<ReplicaSelection> SelectionFromDevices(
    const ReplicatedGraph& rg, std::span<const size_t> device_of_partition) {
  if (device_of_partition.size() != rg.num_partitions()) {
    return Status::InvalidArgument(
        "device list covers " + std::to_string(device_of_partition.size()) +
        " partitions, graph has " + std::to_string(rg.num_partitions()));
  }
  const ReplicaPlacement& pl = rg.placement();
  ReplicaSelection sel;
  sel.choice.resize(pl.partitions);
  for (PartitionId p = 0; p < pl.partitions; ++p) {
    const std::vector<size_t>& devs = pl.device_of[p];
    const auto it =
        std::find(devs.begin(), devs.end(), device_of_partition[p]);
    if (it == devs.end()) {
      return Status::InvalidArgument(
          "device " + std::to_string(device_of_partition[p]) +
          " holds no replica of partition " + std::to_string(p));
    }
    sel.choice[p] = static_cast<uint32_t>(it - devs.begin());
  }
  return sel;
}

Result<FilterResult> RunFilterStageReplicated(const ReplicatedGraph& rg,
                                              const ReplicaSelection& sel,
                                              const Graph& query,
                                              QueryStats& stats,
                                              double* parallel_ms,
                                              const obs::TraceContext& trace) {
  if (Status v = ValidateQuery(query); !v.ok()) return v;
  if (Status v = ValidateSelection(rg, sel); !v.ok()) return v;

  const size_t k = rg.num_partitions();
  const size_t nu = query.num_vertices();
  const size_t n = rg.data().num_vertices();
  const int nbits = rg.options().filter.signature_bits;

  const std::vector<Signature> qsigs = Signature::EncodeAll(query, nbits);

  // --- Scan phase: each lane scans the signature shares of all its
  // partitions in one ScanSignatures launch over the shares' buckets of the
  // query labels; lanes run concurrently. A share's row map holds global
  // vertex ids, so its lists need no translation.
  const Lanes lanes = LanesOf(rg, sel);
  gpusim::Device& primary = rg.device(lanes.devices[0]);
  const obs::DeviceCycleClock primary_clock(primary);
  obs::ScopedSpan filter_span(trace, "filter", primary_clock,
                              static_cast<int32_t>(lanes.devices[0]));
  std::vector<CandidateScan> partial(k);
  std::vector<gpusim::MemStats> scan_mem(lanes.devices.size());
  {
    ThreadPool pool(lanes.devices.size());
    for (size_t lane = 0; lane < lanes.devices.size(); ++lane) {
      pool.Submit([&, lane] {
        const std::vector<PartitionId>& parts = lanes.parts[lane];
        gpusim::Device& dev = rg.device(lanes.devices[lane]);
        const obs::DeviceCycleClock clock(dev);
        obs::ScopedSpan span(filter_span.context(), "lane_scan", clock,
                             static_cast<int32_t>(lanes.devices[lane]));
        if (span.context().enabled()) {
          span.AddAttr("partitions", PartitionsAttr(parts));
        }
        std::vector<const SignatureTable*> tables;
        for (PartitionId p : parts) tables.push_back(&rg.signatures(p));
        const gpusim::MemStats before = dev.stats();
        std::vector<CandidateScan> scans =
            ScanSignatures(dev, tables, qsigs, ScanTiles(tables, qsigs));
        scan_mem[lane] = dev.stats() - before;
        uint64_t rows = 0;
        for (size_t i = 0; i < parts.size(); ++i) {
          rows += scans[i].rows_scanned;
          partial[parts[i]] = std::move(scans[i]);
        }
        span.AddAttr("rows_scanned", rows);
      });
    }
    pool.Wait();
  }
  // Phase barrier: a lane device that tripped mid-scan invalidates the
  // survivor lists of every partition it scanned; fail over before the
  // gather touches them.
  for (size_t lane = 0; lane < lanes.devices.size(); ++lane) {
    if (Status h = CheckDeviceHealthy(rg.device(lanes.devices[lane]),
                                      "lane_scan");
        !h.ok()) {
      return h;
    }
  }

  // --- Gather phase: survivor lists all-gather to the primary (the first
  // lane's device). Lists of partitions on the primary's lane stay local;
  // the rest cross the interconnect as halo traffic. The K-way merge
  // reproduces the replicated scan's candidate lists exactly (see
  // MergeAscendingDisjoint), so every selection materializes identical
  // candidate sets.
  const gpusim::MemStats before_gather = primary.stats();
  obs::ScopedSpan gather_span(filter_span.context(), "candidate_gather",
                              primary_clock);
  uint64_t halo = 0;
  std::vector<std::vector<VertexId>> merged(nu);
  for (VertexId u = 0; u < nu; ++u) {
    std::vector<const std::vector<VertexId>*> lists(k);
    for (PartitionId p = 0; p < k; ++p) {
      lists[p] = &partial[p].lists[u];
      if (lanes.lane_of[p] != 0) {
        halo += partial[p].lists[u].size() * sizeof(VertexId);
      }
    }
    merged[u] = internal::MergeAscendingDisjoint(lists);
  }
  FilterResult result = MakeFilterResult(primary, std::move(merged), n,
                                         rg.options().filter.build_bitmaps);
  for (const CandidateScan& scan : partial) {
    result.rows_scanned += scan.rows_scanned;
  }
  filter_span.AddAttr("rows_scanned", result.rows_scanned);
  primary.ChargeRemoteTransfer(halo);
  gather_span.AddAttr("halo_bytes", halo);
  if (Status h = CheckDeviceHealthy(primary, "candidate_gather"); !h.ok()) {
    return h;
  }
  const gpusim::MemStats gather_mem = primary.stats() - before_gather;

  gpusim::MemStats total = gather_mem;
  double max_scan_ms = 0;
  for (size_t lane = 0; lane < lanes.devices.size(); ++lane) {
    total += scan_mem[lane];
    max_scan_ms = std::max(
        max_scan_ms,
        scan_mem[lane].SimulatedMs(rg.device(lanes.devices[lane]).config()));
  }
  stats.filter = total;
  // The lanes scan concurrently: the phase costs the slowest lane's scan
  // plus the primary's gather, not the summed counters.
  stats.filter_ms = max_scan_ms + gather_mem.SimulatedMs(primary.config());
  stats.min_candidate_size = result.min_candidate_size;
  stats.halo_bytes += halo;
  if (parallel_ms != nullptr) *parallel_ms = stats.filter_ms;
  return result;
}

Result<PagedQueryResult> RunJoinStageReplicatedPaged(
    const ReplicatedGraph& rg, const ReplicaSelection& sel, const Graph& query,
    FilterResult filtered, QueryStats stats, const obs::TraceContext& trace) {
  if (Status v = ValidateSelection(rg, sel); !v.ok()) return v;
  const Graph& data = rg.data();
  const GsiOptions& options = rg.options();
  const size_t k = rg.num_partitions();
  const Lanes lanes = LanesOf(rg, sel);
  gpusim::Device& primary = rg.device(lanes.devices[0]);
  const obs::DeviceCycleClock primary_clock(primary);
  obs::ScopedSpan join_span(trace, "join", primary_clock,
                            static_cast<int32_t>(lanes.devices[0]));

  if (std::optional<QueryResult> trivial =
          internal::JoinWithoutEngine(primary, data, query, filtered,
                                      stats)) {
    // Assembled on the primary, exactly like the full-replica join.
    if (Status h = CheckDeviceHealthy(primary, "join"); !h.ok()) return h;
    join_span.AddAttr("matches",
                      static_cast<uint64_t>(trivial->stats.num_matches));
    PagedQueryResult out = ToPagedResult(std::move(*trivial), primary);
    out.stats.replica_lanes = lanes.devices.size();
    out.stats.partitions_used = 1;
    return out;
  }

  PagedQueryResult out;
  out.stats = stats;
  out.stats.replica_lanes = lanes.devices.size();
  const JoinPlan plan = MakeJoinPlan(query, data, filtered.candidates);
  const CandidateSet& seed = filtered.candidates[plan.order[0]];

  // Split the seed list by lane (host-mediated read, like any seed
  // scatter): each lane joins, in one run, the subsequence of C(order[0])
  // owned by its partitions, and seeds it with the join's own seed entry,
  // so the lanes together pay what the replicated seed pays.
  const size_t num_lanes = lanes.devices.size();
  std::vector<std::vector<VertexId>> seed_cols(num_lanes);
  std::vector<uint8_t> owns_seed(k, 0);
  for (size_t i = 0; i < seed.size(); ++i) {
    const VertexId v = seed.list()[i];
    owns_seed[rg.OwnerOf(v)] = 1;
    seed_cols[lanes.lane_of[rg.OwnerOf(v)]].push_back(v);
  }
  // One halo cache per lane per query: nothing outlives the query.
  std::vector<std::optional<HaloCache>> halos(num_lanes);
  std::vector<internal::RoutedStoreView> views;
  views.reserve(num_lanes);
  std::vector<internal::JoinLane> join_lanes(num_lanes);
  for (size_t lane = 0; lane < num_lanes; ++lane) {
    const size_t d = lanes.devices[lane];
    if (options.halo_budget_bytes > 0) {
      halos[lane].emplace(options.halo_budget_bytes);
    }
    views.push_back(
        MakeLaneView(rg, d, halos[lane] ? &*halos[lane] : nullptr));
    internal::JoinLane& jl = join_lanes[lane];
    jl.dev = &rg.device(d);
    jl.store = &views[lane];
    jl.track = static_cast<int32_t>(d);
    jl.seeds.table = MatchTable::FromColumn(*jl.dev, seed_cols[lane]);
    if (trace.enabled()) jl.partitions = PartitionsAttr(lanes.parts[lane]);
  }
  // Each lane's remote probes and halo-cache hits, as spans over its join
  // (cycle-clock timed, so traced runs at a fixed budget stay
  // byte-identical).
  auto traffic_spans = [&](size_t lane, const obs::TraceContext& ctx,
                           uint64_t start_ns) {
    if (!ctx.enabled()) return;
    const int32_t d = static_cast<int32_t>(lanes.devices[lane]);
    const uint64_t end_ns = obs::DeviceCycleClock(rg.device(d)).NowNanos();
    const internal::RoutedStoreView::Traffic& t = views[lane].traffic();
    if (t.remote_probes > 0) {
      const int32_t idx = ctx.tracer->RecordSpan("remote_probes", d, start_ns,
                                                 end_ns, ctx.parent);
      ctx.tracer->AddAttr(idx, "probes", std::to_string(t.remote_probes));
      ctx.tracer->AddAttr(idx, "lines", std::to_string(t.remote_lines));
      ctx.tracer->AddAttr(idx, "co_located",
                          std::to_string(t.co_located_probes));
    }
    if (t.halo_hits > 0) {
      const int32_t idx = ctx.tracer->RecordSpan("halo_probe", d, start_ns,
                                                 end_ns, ctx.parent);
      ctx.tracer->AddAttr(idx, "hits", std::to_string(t.halo_hits));
      ctx.tracer->AddAttr(idx, "bytes", std::to_string(t.halo_hit_bytes));
    }
  };
  Result<internal::LaneResults> lane_out =
      internal::RunJoinLanes(std::move(join_lanes), plan, filtered.candidates,
                             options.join, join_span.context(), traffic_spans);
  if (!lane_out.ok()) return lane_out.status();
  for (size_t lane = 0; lane < num_lanes; ++lane) {
    const internal::RoutedStoreView::Traffic& t = views[lane].traffic();
    out.stats.remote_probes += t.remote_probes;
    out.stats.halo_bytes += t.remote_lines * kTransactionBytes;
    out.stats.co_located_probes += t.co_located_probes;
    out.stats.halo_cache_hits += t.halo_hits;
    out.stats.halo_cache_bytes += t.halo_hit_bytes;
    if (halos[lane]) {
      out.stats.halo_cache_evictions += halos[lane]->stats().evictions;
    }
  }

  // --- Merge planning on the primary, in global seed order (see
  // PlanSeedRunMerge for why this reconstructs the replicated table row
  // for row). The partial tables stay on their lane devices; only the
  // ordered run list is computed here, but the movement of rows from
  // lanes other than the primary's is still charged now, so one-shot and
  // paged consumers observe identical counters.
  const gpusim::MemStats before_merge = primary.stats();
  obs::ScopedSpan merge_span(join_span.context(), "result_merge",
                             primary_clock);
  const size_t cols_out = plan.order.size();
  std::vector<MatchTable>& tables = lane_out->tables;
  std::vector<const MatchTable*> tabs;
  for (const MatchTable& t : tables) tabs.push_back(&t);
  std::vector<size_t> rows_from;
  const std::vector<ManifestSegment> runs =
      internal::PlanSeedRunMerge(tabs, rows_from);
  uint64_t remote_rows = 0;
  for (size_t lane = 1; lane < num_lanes; ++lane) {
    remote_rows += rows_from[lane];
  }
  const uint64_t merge_bytes = remote_rows * cols_out * sizeof(VertexId);
  primary.ChargeRemoteTransfer(merge_bytes);
  out.stats.halo_bytes += merge_bytes;
  merge_span.AddAttr("rows",
                     static_cast<uint64_t>(lane_out->detail.final_rows));
  merge_span.AddAttr("halo_bytes", merge_bytes);
  if (Status h = CheckDeviceHealthy(primary, "result_merge"); !h.ok()) {
    return h;
  }
  const gpusim::MemStats merge_mem = primary.stats() - before_merge;

  out.manifest.set_cols(cols_out);
  std::vector<size_t> part_index(num_lanes, SIZE_MAX);
  for (size_t lane = 0; lane < num_lanes; ++lane) {
    if (tables[lane].rows() == 0) continue;  // nothing to reference
    part_index[lane] = out.manifest.AddPart(std::move(tables[lane]),
                                            rg.device(lanes.devices[lane]));
  }
  for (const ManifestSegment& r : runs) {
    out.manifest.AddSegment(part_index[r.part], r.begin, r.count);
  }
  out.column_to_query = plan.order;
  out.stats.join = lane_out->counters;
  out.stats.join += merge_mem;
  out.stats.join_detail = lane_out->detail;
  out.stats.partitions_used = std::max<size_t>(
      1, static_cast<size_t>(std::ranges::count(owns_seed, 1)));
  out.stats.partition_skew = lane_out->skew;
  out.stats.join_ms =
      lane_out->makespan_ms + merge_mem.SimulatedMs(primary.config());
  out.stats.total_ms = out.stats.filter_ms + out.stats.join_ms;
  out.stats.num_matches = out.manifest.rows();
  join_span.AddAttr("matches", static_cast<uint64_t>(out.stats.num_matches));
  return out;
}

Result<PagedQueryResult> ExecuteQueryReplicatedPaged(
    const ReplicatedGraph& rg, const ReplicaSelection& sel, const Graph& query,
    const obs::TraceContext& trace) {
  WallTimer wall;
  if (Status v = ValidateSelection(rg, sel); !v.ok()) return v;
  const Lanes lanes = LanesOf(rg, sel);
  const obs::DeviceCycleClock primary_clock(rg.device(lanes.devices[0]));
  obs::ScopedSpan span(trace, "execute_replicated", primary_clock,
                       static_cast<int32_t>(lanes.devices[0]));
  span.AddAttr("partitions", static_cast<uint64_t>(rg.num_partitions()));
  span.AddAttr("lanes", static_cast<uint64_t>(lanes.devices.size()));
  QueryStats stats;
  Result<FilterResult> filtered = RunFilterStageReplicated(
      rg, sel, query, stats, /*parallel_ms=*/nullptr, span.context());
  if (!filtered.ok()) return filtered.status();
  Result<PagedQueryResult> out = RunJoinStageReplicatedPaged(
      rg, sel, query, std::move(filtered.value()), stats, span.context());
  if (out.ok()) out->stats.wall_ms = wall.ElapsedMs();
  return out;
}

}  // namespace gsi
