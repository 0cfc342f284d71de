#ifndef GSI_GSI_REPLICATION_H_
#define GSI_GSI_REPLICATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "graph/graph.h"
#include "gsi/filter.h"
#include "gsi/matcher.h"
#include "gsi/partition.h"
#include "gsi/result_manifest.h"
#include "storage/pcsr.h"
#include "storage/signature_table.h"
#include "util/status.h"

namespace gsi {

/// Where the R replicas of each of K partitions live on a pool of N
/// devices: replica j of partition p sits on device (p + j * (N / R)) mod N
/// — a staggered round-robin, so each device hosts ~K*R/N shares, the
/// replicas of one partition land on R distinct devices, and consecutive
/// devices hold share sets that tile into disjoint "lanes" (device groups
/// that together cover every partition). With N == K (the serving layer's
/// configuration) each device holds R shares — ~R/K of the replicated
/// footprint — and R queries can run concurrently on disjoint lanes.
struct ReplicaPlacement {
  size_t num_devices = 0;
  size_t partitions = 0;
  size_t replicas = 0;
  /// device_of[p][j]: pool index of the device holding replica j of
  /// partition p (R distinct devices per partition).
  std::vector<std::vector<size_t>> device_of;
  /// shares_of[d]: partitions with a replica on device d, ascending.
  std::vector<std::vector<PartitionId>> shares_of;

  /// True when device d holds some replica of partition p.
  bool Hosts(size_t d, PartitionId p) const;
};

/// Builds the staggered placement. Requires 1 <= replicas <= num_devices
/// and partitions >= 1. R dividing N gives the clean trade (exactly R
/// disjoint lanes of N/R devices); a non-divisor R still places and
/// executes correctly but packs onto ceil(N/R) devices per query, buying
/// only floor(N / ceil(N/R)) lanes for the full R-times storage cost.
Result<ReplicaPlacement> MakeStaggeredPlacement(size_t num_devices,
                                                size_t partitions,
                                                size_t replicas);

/// Build-time shape of a ReplicatedGraph (and of how well the partitioner
/// did).
struct ReplicationBuildStats {
  /// Simulated memory resident on each pool device (its shares' PCSR +
  /// signature bytes, plus the halo-cache budget when one is set: a device
  /// runs at most one lane, and so holds at most one lane's cache).
  std::vector<uint64_t> resident_bytes;
  /// Footprint one device pays without partitioning (PCSR + signature
  /// table for the whole graph, one copy).
  uint64_t replicated_bytes = 0;
  /// Sum over devices (== replicas * replicated_bytes: every partition is
  /// stored replicas times).
  uint64_t total_bytes = 0;
  /// Undirected edges whose endpoints live on different partitions (each
  /// parallel edge counted once, like Graph::num_edges).
  size_t cut_edges = 0;

  uint64_t max_resident_bytes() const;
};

/// One query's choice of serving replica per partition: choice[p] indexes
/// placement.device_of[p]. Obtained from CompactSelection (standalone use)
/// or SelectionFromDevices (mapping the devices AcquireOneOfEach picked).
struct ReplicaSelection {
  std::vector<uint32_t> choice;

  size_t DeviceOf(const ReplicaPlacement& placement, PartitionId p) const {
    return placement.device_of[p][choice[p]];
  }
};

/// The data graph partitioned K ways across device memories, with every
/// partition stored on R devices — the memory-capacity half of the paper's
/// Section VIII scaling discussion plus the replication/concurrency trade.
/// At R = 1 (one partition per device) each device holds ~1/K of the
/// replicated footprint and a query needs every device; at R > 1 a query
/// needs just one replica of each partition, so up to R partitioned queries
/// run concurrently, at an ~R/K-of-replica resident cost per device.
///
///   std::vector<gpusim::Device*> devs = ...;        // N devices
///   auto rg = ReplicatedGraph::Build(devs, data, GsiOptOptions(),
///                                    HashVertexPartitioner(),
///                                    /*partitions=*/devs.size(),
///                                    /*replicas=*/1);
///   ReplicaSelection sel = CompactSelection(*rg);
///   QueryEngine engine(data, GsiOptOptions());
///   Result<QueryResult> r = engine.Execute(
///       {.query = &query, .replicated = &*rg, .selection = &sel});
///
/// Requires PCSR storage and the signature filter strategy (the paper's
/// defaults); other configurations fail with InvalidArgument at Build.
/// Immutable after Build and safe to share between threads; concurrent
/// queries are safe as long as their selections map onto disjoint device
/// sets — exactly what DevicePool::AcquireOneOfEach guarantees the serving
/// layer. The data graph and the devices must outlive the instance; devices
/// are borrowed, not owned. The match table is bit-identical to
/// GsiMatcher::Find for *every* selection: replicas of a partition hold
/// identical shares, each lane's join is a deterministic function of its
/// seed subsequence (not of the device that runs it), and the merge
/// reassembles the lanes' tables in global seed order (see
/// docs/ARCHITECTURE.md).
class ReplicatedGraph {
 public:
  /// `partitions` == 0 means one partition per device. `replicas` must be
  /// in [1, devs.size()].
  static Result<ReplicatedGraph> Build(std::span<gpusim::Device* const> devs,
                                       const Graph& data,
                                       const GsiOptions& options,
                                       const GraphPartitioner& partitioner,
                                       size_t partitions, size_t replicas);

  size_t num_partitions() const { return placement_.partitions; }
  size_t num_replicas() const { return placement_.replicas; }
  size_t num_devices() const { return devs_.size(); }
  const ReplicaPlacement& placement() const { return placement_; }

  PartitionId OwnerOf(VertexId v) const { return owner_[v]; }
  std::span<const PartitionId> owners() const { return owner_; }
  /// Vertices owned by partition p, ascending.
  std::span<const VertexId> owned(PartitionId p) const { return owned_[p]; }

  gpusim::Device& device(size_t d) const { return *devs_[d]; }
  /// Replica j of partition p's PCSR share (resident on
  /// placement().device_of[p][j]).
  const PcsrStore& store(PartitionId p, size_t j) const {
    return *stores_[p][j];
  }
  /// Replica j of partition p's signature rows; row i is owned(p)[i].
  const SignatureTable& signatures(PartitionId p, size_t j) const {
    return signatures_[p][j];
  }
  /// The share of partition p resident on device d, or null when d hosts
  /// no replica of p.
  const PcsrStore* StoreOn(size_t d, PartitionId p) const;

  const Graph& data() const { return *data_; }
  const GsiOptions& options() const { return options_; }
  const std::string& partitioner_name() const { return partitioner_name_; }
  const ReplicationBuildStats& build_stats() const { return build_stats_; }

 private:
  ReplicatedGraph() = default;

  const Graph* data_ = nullptr;
  GsiOptions options_;
  std::string partitioner_name_;
  std::vector<gpusim::Device*> devs_;
  ReplicaPlacement placement_;
  std::vector<PartitionId> owner_;            // indexed by vertex id
  std::vector<std::vector<VertexId>> owned_;  // indexed by partition
  std::vector<std::vector<std::unique_ptr<PcsrStore>>> stores_;  // [p][j]
  std::vector<std::vector<SignatureTable>> signatures_;          // [p][j]
  ReplicationBuildStats build_stats_;
};

/// Deterministic selection that packs partitions onto the fewest devices
/// (what AcquireOneOfEach picks on an idle pool): partitions in id order
/// prefer a replica on an already-selected device, then the lowest device
/// index — on the staggered placement with N == K this lands on the first
/// K/R devices, leaving the other lanes idle.
ReplicaSelection CompactSelection(const ReplicatedGraph& rg);

/// Maps the device picked for each partition (AcquireOneOfEach's
/// device_of_group) back to replica indices. Fails with InvalidArgument if
/// some device holds no replica of its partition.
Result<ReplicaSelection> SelectionFromDevices(
    const ReplicatedGraph& rg, std::span<const size_t> device_of_partition);

/// Filtering phase over the selected replicas: each lane (distinct
/// selected device) scans the signature shares of all the partitions
/// mapped onto it in one ScanSignatures launch, then the survivor lists
/// all-gather to the primary (the lowest selected device) — lists from the
/// primary's own lane stay local; the rest are charged as halo traffic.
/// Candidate values are identical to the replicated scan for every
/// selection. `stats.filter` sums every device's counters;
/// `stats.filter_ms` is the phase makespan: the slowest lane's scan plus
/// the primary's gather/materialize. `parallel_ms` (when non-null)
/// receives the same value as `stats.filter_ms`.
Result<FilterResult> RunFilterStageReplicated(const ReplicatedGraph& rg,
                                              const ReplicaSelection& sel,
                                              const Graph& query,
                                              QueryStats& stats,
                                              double* parallel_ms,
                                              const obs::TraceContext& trace =
                                                  {});

/// Joining phase over the selected replicas. The seed list C(order[0]) is
/// split by the lane of each seed's owner, and each lane joins its
/// subsequence in one JoinEngine::Run over one RoutedStoreView. Probes of
/// vertices whose partition has a share on the lane's device are local
/// reads; those served by a share that is not the partition's replica 0
/// are counted in stats.co_located_probes (the traffic replication saves:
/// R = 1 would send them across the interconnect). The rest go to the
/// selected replica of the owner, charged at the interconnect premium
/// (stats.remote_probes / halo_bytes). With options().halo_budget_bytes >
/// 0, each lane makes one HaloCache for this query and tries it before
/// every remote probe (gsi/halo_cache.h; stats.halo_cache_hits,
/// halo_cache_bytes and halo_cache_evictions sum the lanes). The lanes'
/// partial tables stay on their devices and are returned as a
/// ResultManifest of ascending-seed-run segments
/// (internal::PlanSeedRunMerge); the merge's interconnect traffic is
/// charged at plan time, so materializing the manifest — all at once
/// (ToQueryResult) or page by page — is bit-identical to the one-device
/// join (RunJoinStageShardedPaged over one device) for every selection and
/// leaves every counter unchanged.
///
/// Stats roll-up: filter_ms is kept from `stats` (the filter stage's
/// price); `stats.join` sums every device's counters (total work); join_ms
/// is the makespan — the slowest lane's join plus the merge; total_ms is
/// their sum; partition_skew is max/mean join time over the lanes that have
/// seeds; partitions_used counts the partitions that own a seed;
/// stats.replica_lanes counts the distinct devices used.
/// options.join.max_rows bounds each lane's tables. A lane's table after
/// each step is the seed subset of the one-device table, so a budget the
/// one-device join fits never refuses a lane. Wall-clock thread
/// interleaving never leaks into simulated numbers: a lane's work is a
/// deterministic function of its seeds, not of scheduling.
Result<PagedQueryResult> RunJoinStageReplicatedPaged(
    const ReplicatedGraph& rg, const ReplicaSelection& sel, const Graph& query,
    FilterResult filtered, QueryStats stats,
    const obs::TraceContext& trace = {});

/// Full execution against one replica selection: RunFilterStageReplicated
/// then RunJoinStageReplicatedPaged, in manifest form. With one partition
/// this degenerates to single-device execution (no remote traffic); the
/// materialized match table is bit-identical to GsiMatcher::Find whenever
/// both succeed, regardless of the selection. QueryEngine::Execute is this
/// plus ToQueryResult.
Result<PagedQueryResult> ExecuteQueryReplicatedPaged(
    const ReplicatedGraph& rg, const ReplicaSelection& sel, const Graph& query,
    const obs::TraceContext& trace = {});

}  // namespace gsi

#endif  // GSI_GSI_REPLICATION_H_
