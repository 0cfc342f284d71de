#ifndef GSI_GSI_HALO_CACHE_H_
#define GSI_GSI_HALO_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "gpusim/launch.h"
#include "util/common.h"

namespace gsi {

/// Partition identifier (the canonical definition lives in gsi/partition.h;
/// re-declared here so the cache does not depend on the partition layer it
/// serves).
using PartitionId = uint32_t;

/// One lane's LRU over remote N(v, l) lists during one query — the halo
/// cache of the partitioned execution path. Keyed by (owner partition,
/// vertex, label); bytes are charged against a fixed budget, which the
/// partitioned build reserves in every device's resident bytes (a device
/// runs at most one lane at a time).
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
/// strict LRU until the footprint is back within the budget.
///
/// Thread safety: none. RunJoinStageReplicatedPaged makes one cache per
/// lane per query, and only that lane's thread touches it. A failed
/// attempt's cache dies with the attempt.
///
/// Determinism: the cache starts empty for every lane of every query, and
/// the lane joins its seeds in one run, so a query's hits and counters are
/// a function of the query and its replica selection alone — never of what
/// ran before it. The lane's store view (RoutedStoreView::Traffic) counts
/// the hits and the remote probes; the cache counts only its evictions.
class HaloCache {
 public:
  /// Evictions + current footprint. Monotone except resident_bytes and
  /// entries.
  struct Stats {
    uint64_t evictions = 0;  ///< entries dropped for budget
    uint64_t resident_bytes = 0;
    uint64_t entries = 0;
  };

  /// The cache may hold at most `budget_bytes` of entry footprint.
  explicit HaloCache(uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  HaloCache(const HaloCache&) = delete;
  HaloCache& operator=(const HaloCache&) = delete;

  uint64_t budget_bytes() const { return budget_bytes_; }

  // --- Serve side: answer a probe from cached data or decline. On a hit
  // the warp is charged one directory-lookup line plus the local gld lines
  // of the bytes served; on a decline nothing is charged (the remote probe
  // that follows charges itself).

  /// NeighborCountUpperBound from cache (known count or complete list).
  std::optional<size_t> ServeCount(gpusim::Warp& w, PartitionId p, VertexId v,
                                   Label l);
  /// ExtractSlice from cache: needs the exact count (to clamp `end` the way
  /// the store does) and a prefix covering the clamped range, so a whole
  /// list [0, SIZE_MAX) is served from complete entries only.
  std::optional<size_t> ServeSlice(gpusim::Warp& w, PartitionId p, VertexId v,
                                   Label l, size_t begin, size_t end,
                                   std::vector<VertexId>& out);
  /// ExtractValueRange from cache (complete entries only): binary-searches
  /// the ascending list for [lo, hi].
  std::optional<size_t> ServeValueRange(gpusim::Warp& w, PartitionId p,
                                        VertexId v, Label l, VertexId lo,
                                        VertexId hi,
                                        std::vector<VertexId>& out);

  // --- Record side: admit the byproducts of a remote probe that already
  // ran. Free — never touches the warp or issues reads.

  /// The exact |N(v, l)| a remote count probe returned.
  void RecordCount(PartitionId p, VertexId v, Label l, size_t count);
  /// Positions [begin, begin + values.size()) a remote ExtractSlice
  /// returned, where the caller asked for `requested` positions. Extends
  /// the entry's prefix when contiguous; a short return proves the list
  /// ended at begin + values.size().
  void RecordSlice(PartitionId p, VertexId v, Label l, size_t begin,
                   size_t requested, std::span<const VertexId> values);

  Stats stats() const;

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

  /// Entry for key, moved to the LRU front; null when absent.
  Entry* Touch(const Key& key);
  /// Entry for key, created when absent.
  Entry* TouchOrCreate(const Key& key);
  /// Re-charges `delta` footprint bytes and evicts LRU-back to budget.
  void ChargeAndEvict(uint64_t before, uint64_t after);
  void ChargeHit(gpusim::Warp& w, uint64_t bytes);

  const uint64_t budget_bytes_;
  LruList lru_;
  std::map<Key, LruList::iterator> index_;
  Stats stats_;
};

}  // namespace gsi

#endif  // GSI_GSI_HALO_CACHE_H_
