#ifndef GSI_GSI_HALO_CACHE_H_
#define GSI_GSI_HALO_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "util/annotations.h"
#include "util/common.h"
#include "util/sync.h"

namespace gsi {

/// Partition identifier (the canonical definition lives in gsi/partition.h;
/// re-declared here so the cache does not depend on the partition layer it
/// serves).
using PartitionId = uint32_t;

/// Per-device LRU over remote N(v, l) lists — the halo cache of the
/// partitioned execution path (ROADMAP tentpole). Keyed by (owner partition,
/// vertex, label); bytes are charged against a fixed budget so the memory
/// cost shows up in the same resident-bytes accounting the partition benches
/// report.
///
/// The contract that keeps match tables bit-identical: the cache NEVER
/// changes what a probe returns, only *where* the bytes come from. Serve*
/// answers a probe purely from cached data (charging ordinary local gld
/// lines to the warp — no interconnect premium, so every hit strictly
/// removes remote transactions) or declines; Record* admits only the free
/// byproducts of a remote probe that already ran and was already charged —
/// admission never issues extra remote reads. Entries hold an in-order
/// prefix of the ascending N(v, l) list plus the exact count once known;
/// the cache admits counts and slices only:
///
///   - a remote NeighborCountUpperBound records the exact count;
///   - a remote ExtractSlice extends the prefix when it continues it, and
///     completes the entry when the store returned fewer positions than
///     requested (the list ended) or the prefix reaches the known count.
///     A whole list is the slice [0, SIZE_MAX) that came back short, so it
///     completes the entry in one record;
///   - ExtractValueRange results are positionless and are not admitted.
///
/// Counts, slices within the prefix (whole lists included), and (for
/// complete entries) value ranges are then served locally. Eviction is
/// strict LRU until resident_bytes() <= budget.
///
/// Thread safety: all cache state sits under one mutex, so stats snapshots
/// (the metrics collector's pull path) stay coherent while the owning
/// device's lane thread serves queries. Serve/Record additionally read the
/// device's fault epoch — they must only be called by the thread currently
/// driving the device (the single-writer discipline all device access
/// follows); a fault bump discards every entry, so nothing cached before a
/// trip survives quarantine + repair.
///
/// Determinism: a query run against a given cache *state* produces the same
/// match table and the same counters every time (the cache is only touched
/// by the device's own lane thread during execution, so thread interleaving
/// never reaches the simulated numbers). Across queries the hit pattern —
/// and hence cycle/transaction counters, never table contents — depends on
/// what earlier queries left cached, the same history dependence the
/// service-level FilterCache already has.
class HaloCache {
 public:
  /// Aggregate counters + current footprint. Monotone except resident_bytes
  /// and entries.
  struct Stats {
    uint64_t hits = 0;           ///< probes answered from the cache
    uint64_t hit_bytes = 0;      ///< list bytes those hits served
    uint64_t misses = 0;         ///< probes that went to the interconnect
    uint64_t insertions = 0;     ///< entries created
    uint64_t evictions = 0;      ///< entries dropped for budget
    uint64_t invalidations = 0;  ///< whole-cache drops (device fault epoch)
    uint64_t resident_bytes = 0;
    uint64_t entries = 0;
  };

  /// The cache belongs to `dev` (its fault epoch gates every operation) and
  /// may hold at most `budget_bytes` of entry footprint.
  HaloCache(gpusim::Device& dev, uint64_t budget_bytes)
      : dev_(&dev), budget_bytes_(budget_bytes),
        epoch_(dev.fault_epoch()) {}

  HaloCache(const HaloCache&) = delete;
  HaloCache& operator=(const HaloCache&) = delete;

  uint64_t budget_bytes() const { return budget_bytes_; }

  // --- Serve side: answer a probe from cached data or decline. On a hit
  // the warp is charged one directory-lookup line plus the local gld lines
  // of the bytes served; on a decline a miss is counted and nothing is
  // charged (the remote probe that follows charges itself).

  /// NeighborCountUpperBound from cache (known count or complete list).
  std::optional<size_t> ServeCount(gpusim::Warp& w, PartitionId p, VertexId v,
                                   Label l) GSI_EXCLUDES(mu_);
  /// ExtractSlice from cache: needs the exact count (to clamp `end` the way
  /// the store does) and a prefix covering the clamped range, so a whole
  /// list [0, SIZE_MAX) is served from complete entries only.
  std::optional<size_t> ServeSlice(gpusim::Warp& w, PartitionId p, VertexId v,
                                   Label l, size_t begin, size_t end,
                                   std::vector<VertexId>& out)
      GSI_EXCLUDES(mu_);
  /// ExtractValueRange from cache (complete entries only): binary-searches
  /// the ascending list for [lo, hi].
  std::optional<size_t> ServeValueRange(gpusim::Warp& w, PartitionId p,
                                        VertexId v, Label l, VertexId lo,
                                        VertexId hi,
                                        std::vector<VertexId>& out)
      GSI_EXCLUDES(mu_);

  // --- Record side: admit the byproducts of a remote probe that already
  // ran. Free — never touches the warp or issues reads.

  /// The exact |N(v, l)| a remote count probe returned.
  void RecordCount(PartitionId p, VertexId v, Label l, size_t count)
      GSI_EXCLUDES(mu_);
  /// Positions [begin, begin + values.size()) a remote ExtractSlice
  /// returned, where the caller asked for `requested` positions. Extends
  /// the entry's prefix when contiguous; a short return proves the list
  /// ended at begin + values.size().
  void RecordSlice(PartitionId p, VertexId v, Label l, size_t begin,
                   size_t requested, std::span<const VertexId> values)
      GSI_EXCLUDES(mu_);

  /// Coherent snapshot; safe to call from any thread at any time.
  Stats stats() const GSI_EXCLUDES(mu_);

  /// Current footprint (counted against the partition's resident bytes).
  uint64_t resident_bytes() const GSI_EXCLUDES(mu_);

 private:
  using Key = std::tuple<PartitionId, VertexId, Label>;

  static constexpr size_t kUnknownCount = static_cast<size_t>(-1);
  /// Fixed per-entry footprint (key, directory node, list node, counters)
  /// charged on top of the value bytes.
  static constexpr uint64_t kEntryOverheadBytes = 64;

  struct Entry {
    /// In-order prefix of the ascending N(v, l) list, starting at position
    /// 0; the whole list iff `complete`.
    std::vector<VertexId> values;
    /// Exact |N(v, l)| once a count probe or a short slice revealed it.
    size_t known_count = kUnknownCount;
    bool complete = false;
  };

  using LruList = std::list<std::pair<Key, Entry>>;

  static uint64_t EntryBytes(const Entry& e) {
    return kEntryOverheadBytes + e.values.size() * sizeof(VertexId);
  }

  /// Discards everything if the device tripped since the cache last looked.
  void MaybeInvalidateLocked() GSI_REQUIRES(mu_);
  /// Entry for key, moved to the LRU front; null when absent.
  Entry* TouchLocked(const Key& key) GSI_REQUIRES(mu_);
  /// Entry for key, created (and counted as an insertion) when absent.
  Entry* TouchOrCreateLocked(const Key& key) GSI_REQUIRES(mu_);
  /// Re-charges `delta` footprint bytes and evicts LRU-back to budget.
  void ChargeAndEvictLocked(uint64_t before, uint64_t after)
      GSI_REQUIRES(mu_);
  void CountHitLocked(gpusim::Warp& w, uint64_t bytes) GSI_REQUIRES(mu_);

  gpusim::Device* dev_;
  const uint64_t budget_bytes_;

  mutable Mutex mu_;
  uint64_t epoch_ GSI_GUARDED_BY(mu_);
  LruList lru_ GSI_GUARDED_BY(mu_);
  std::map<Key, LruList::iterator> index_ GSI_GUARDED_BY(mu_);
  Stats stats_ GSI_GUARDED_BY(mu_);
};

}  // namespace gsi

#endif  // GSI_GSI_HALO_CACHE_H_
