#ifndef GSI_GSI_PARTITION_INTERNAL_H_
#define GSI_GSI_PARTITION_INTERNAL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/device.h"
#include "gsi/halo_cache.h"
#include "gsi/match_table.h"
#include "gsi/partition.h"
#include "gsi/result_manifest.h"
#include "storage/pcsr.h"

// Execution building blocks of the partitioned data-graph path
// (gsi/replication.h; the partitioners live in gsi/partition.h).
// Implementation detail — include only from gsi/*.cc.

namespace gsi::internal {

/// K-way merge of per-partition survivor lists for one query vertex (each
/// ascending, value sets disjoint because partitions own disjoint vertex
/// sets) back into one globally ascending candidate list — reproducing the
/// replicated scan's list exactly. `lists[p]` may be null (treated empty).
std::vector<VertexId> MergeAscendingDisjoint(
    std::span<const std::vector<VertexId>* const> lists);

/// Plans the merge of per-lane partial join tables into the replicated
/// final table: the final table of any join is grouped by its column-0
/// (seed) binding, runs appear in candidate-list (ascending) order, and
/// the lanes split the seed list into disjoint subsequences (by the lane of
/// each seed's owner) — so repeatedly taking the run with the smallest
/// column-0 head reconstructs the whole table row for row. A pure host
/// computation over the partial tables: it emits the ordered run list
/// (part, begin, count) the replicated join stores in a ResultManifest, and
/// ResultManifest::Materialize's bulk row copies of those runs are the
/// merged table. `rows_from[i]` receives the rows part i contributed (the
/// caller charges interconnect traffic for parts that are not resident on
/// the merging device).
std::vector<ManifestSegment> PlanSeedRunMerge(
    std::span<const MatchTable* const> parts, std::vector<size_t>& rows_from);

/// NeighborStore view that routes every probe N(v, l) to the PCSR share
/// serving v's partition for one execution lane (one device joining the
/// seeds of all its selected partitions in one run). Shares resident on the
/// lane's device answer at plain global-memory cost; the rest are served
/// across the interconnect with every 128B line re-charged at the premium
/// (Warp::ChargeRemoteTransactions). One view serves one lane of one query
/// execution — the traffic counters are per-query observations, harvested
/// after the join.
///
/// With a HaloCache attached (`halo` non-null), remote probes first try the
/// lane's cache — a hit is a local read (Traffic::halo_hits, no
/// interconnect premium) returning byte-identical data — and remote probes
/// that do run feed the cache their free byproducts (gsi/halo_cache.h).
/// Resident shares never touch the cache: only partitions with no share on
/// the lane's device are cached, which is exactly "skip admission where a
/// co-resident replica exists".
class RoutedStoreView final : public NeighborStore {
 public:
  /// Where the lane reads partition p's share.
  enum class Route : uint8_t {
    /// The selected replica on a peer device, across the interconnect.
    kRemote,
    /// p's replica 0, resident on the lane's device.
    kLocal,
    /// Another replica of p, resident on the lane's device: a local read
    /// that R = 1 would send across the interconnect.
    kCoLocated,
  };

  struct Traffic {
    uint64_t remote_probes = 0;      ///< lookups that crossed the interconnect
    uint64_t remote_lines = 0;       ///< 128B lines those lookups moved
    uint64_t co_located_probes = 0;  ///< lookups served by a kCoLocated share
    uint64_t halo_hits = 0;          ///< remote lookups the halo cache served
    uint64_t halo_hit_bytes = 0;     ///< list bytes those hits served locally
  };

  /// `owner[v]` names v's partition; `serving[p]` answers probes of
  /// partition p (never null) along `route[p]`. `halo` (may be null =
  /// caching off) is the lane's cache for this query. All spans/pointees
  /// must outlive the view.
  RoutedStoreView(std::span<const PartitionId> owner,
                  std::vector<const PcsrStore*> serving,
                  std::vector<Route> route, HaloCache* halo = nullptr)
      : owner_(owner),
        serving_(std::move(serving)),
        route_(std::move(route)),
        halo_(halo) {}

  size_t NeighborCountUpperBound(gpusim::Warp& w, VertexId v,
                                 Label l) const override {
    const PartitionId o = owner_[v];
    if (Resident(o)) return serving_[o]->NeighborCountUpperBound(w, v, l);
    if (halo_ != nullptr) {
      if (std::optional<size_t> n = halo_->ServeCount(w, o, v, l)) {
        return Hit(*n, 0);
      }
    }
    const size_t n = Remote(w, o, [&](const PcsrStore& s) {
      return s.NeighborCountUpperBound(w, v, l);
    });
    // PCSR's upper bound is the exact |N(v, l)| — safe to admit as a count.
    if (halo_ != nullptr) halo_->RecordCount(o, v, l, n);
    return n;
  }

  size_t ExtractSlice(gpusim::Warp& w, VertexId v, Label l, size_t begin,
                      size_t end, std::vector<VertexId>& out) const override {
    const PartitionId o = owner_[v];
    if (Resident(o)) {
      return serving_[o]->ExtractSlice(w, v, l, begin, end, out);
    }
    if (halo_ != nullptr) {
      if (std::optional<size_t> n =
              halo_->ServeSlice(w, o, v, l, begin, end, out)) {
        return Hit(*n, *n * sizeof(VertexId));
      }
    }
    const size_t mark = out.size();
    const size_t n = Remote(w, o, [&](const PcsrStore& s) {
      return s.ExtractSlice(w, v, l, begin, end, out);
    });
    if (halo_ != nullptr && end > begin) {
      halo_->RecordSlice(o, v, l, begin, end - begin,
                         {out.data() + mark, n});
    }
    return n;
  }

  size_t ExtractValueRange(gpusim::Warp& w, VertexId v, Label l, VertexId lo,
                           VertexId hi,
                           std::vector<VertexId>& out) const override {
    const PartitionId o = owner_[v];
    if (Resident(o)) {
      return serving_[o]->ExtractValueRange(w, v, l, lo, hi, out);
    }
    if (halo_ != nullptr) {
      if (std::optional<size_t> n =
              halo_->ServeValueRange(w, o, v, l, lo, hi, out)) {
        return Hit(*n, *n * sizeof(VertexId));
      }
    }
    // Value-range results are positionless — nothing admissible to record.
    return Remote(w, o, [&](const PcsrStore& s) {
      return s.ExtractValueRange(w, v, l, lo, hi, out);
    });
  }

  /// The shares resident on the lane's device.
  uint64_t device_bytes() const override {
    uint64_t bytes = 0;
    for (size_t p = 0; p < serving_.size(); ++p) {
      if (route_[p] != Route::kRemote) bytes += serving_[p]->device_bytes();
    }
    return bytes;
  }

  std::string name() const override { return "PCSR-partitioned"; }

  const Traffic& traffic() const { return traffic_; }

 private:
  /// True when partition o's share is on the lane's device; counts the
  /// co-located reads.
  bool Resident(PartitionId o) const {
    if (route_[o] == Route::kCoLocated) ++traffic_.co_located_probes;
    return route_[o] != Route::kRemote;
  }

  template <typename Fn>
  size_t Remote(gpusim::Warp& w, PartitionId o, Fn&& probe) const {
    const uint64_t before = w.device().stats().gld;
    const size_t n = probe(*serving_[o]);
    const uint64_t lines = w.device().stats().gld - before;
    w.ChargeRemoteTransactions(lines);
    ++traffic_.remote_probes;
    traffic_.remote_lines += lines;
    return n;
  }

  size_t Hit(size_t n, uint64_t bytes) const {
    ++traffic_.halo_hits;
    traffic_.halo_hit_bytes += bytes;
    return n;
  }

  std::span<const PartitionId> owner_;
  std::vector<const PcsrStore*> serving_;
  std::vector<Route> route_;
  HaloCache* halo_;
  mutable Traffic traffic_;  // one view per lane thread; no sharing
};

}  // namespace gsi::internal

#endif  // GSI_GSI_PARTITION_INTERNAL_H_
