#ifndef GSI_SERVICE_FILTER_CACHE_H_
#define GSI_SERVICE_FILTER_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpusim/device.h"
#include "graph/graph.h"
#include "gsi/filter.h"
#include "obs/metrics.h"
#include "util/annotations.h"
#include "util/common.h"
#include "util/sync.h"

namespace gsi {

/// Signature-keyed memoization of the filtering phase (the ROADMAP's
/// "batch queries sharing signatures could share filtering work").
///
/// The key is an exact structural serialization of the query graph (vertex
/// count, vertex labels, sorted undirected labeled edge list). Against a
/// fixed data graph and filter configuration, two queries with the same key
/// produce identical candidate sets, so a cache instance must be private to
/// one (data graph, GsiOptions) pair — QueryService owns exactly one.
///
/// Values are host-side candidate lists. A hit skips the signature scan
/// over the query labels' buckets of the signature table and only pays
/// re-upload plus the one bitset kernel, O(sum |C(u)|) — identical
/// candidate sets in, identical match tables out, just a cheaper filter
/// phase. Entries are evicted LRU-first to stay
/// under a byte budget. All methods are thread-safe.
///
/// Ownership: entries are shared_ptr<const Entry> — a looked-up entry
/// stays valid after eviction or Clear, and Materialize builds a fresh
/// FilterResult (device buffers owned by the caller's device) without
/// aliasing the cache. The cache serves every execution strategy: the
/// replicated, sharded and partitioned paths all consume the same global
/// candidate lists, so one instance is shared across them per
/// (data graph, GsiOptions) pair.
class FilterCache {
 public:
  struct Options {
    /// Total budget for cached candidate lists; entries larger than the
    /// whole budget are never admitted.
    size_t max_bytes = 64ull << 20;
  };

  /// Immutable cached filter outcome for one query shape.
  struct Entry {
    /// Sorted candidate list per query vertex (index = query vertex id).
    std::vector<std::vector<VertexId>> candidates;
    size_t min_candidate_size = 0;
    VertexId min_candidate_vertex = kInvalidVertex;
    /// Accounting size of the candidate payload.
    size_t bytes = 0;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;

    double HitRate() const {
      uint64_t lookups = hits + misses;
      return lookups ? static_cast<double>(hits) /
                           static_cast<double>(lookups)
                     : 0;
    }

    /// Adds the gsi_filter_cache_* families to `sink`.
    void AddSamples(obs::MetricsSink& sink) const;
  };

  FilterCache() : FilterCache(Options{}) {}
  explicit FilterCache(Options options);

  /// Canonical cache key of a query graph (cheap: one pass over vertices
  /// and edges, no isomorphism canonization — structurally identical Graph
  /// objects share a key, relabeled isomorphic ones do not).
  static std::string KeyOf(const Graph& query);

  /// Copies the candidate lists out of a filter-stage result into a
  /// shareable entry.
  static std::shared_ptr<const Entry> MakeEntry(const FilterResult& filtered);

  /// Rebuilds a FilterResult on `dev` with MakeFilterResult, charging the
  /// one bitset kernel to it (the cache-hit fast path of the filter stage).
  static FilterResult Materialize(gpusim::Device& dev, const Entry& entry,
                                  size_t num_data_vertices,
                                  bool build_bitmaps);

  /// Returns the entry and marks it most-recently-used; nullptr on miss.
  std::shared_ptr<const Entry> Lookup(const std::string& key)
      GSI_EXCLUDES(mu_);

  /// Inserts (or refreshes) `entry`, evicting least-recently-used entries
  /// until the byte budget holds. Oversized entries are dropped silently.
  void Insert(const std::string& key, std::shared_ptr<const Entry> entry)
      GSI_EXCLUDES(mu_);

  Stats stats() const GSI_EXCLUDES(mu_);
  void Clear() GSI_EXCLUDES(mu_);

 private:
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<std::string>::iterator lru_it;
  };

  void EvictWhileOverBudgetLocked() GSI_REQUIRES(mu_);

  Options options_;  // immutable after construction
  mutable Mutex mu_;
  /// Front = most recently used. The map owns the entries; the list orders
  /// the keys for eviction.
  std::list<std::string> lru_ GSI_GUARDED_BY(mu_);
  std::unordered_map<std::string, Slot> map_ GSI_GUARDED_BY(mu_);
  Stats stats_ GSI_GUARDED_BY(mu_);
};

}  // namespace gsi

#endif  // GSI_SERVICE_FILTER_CACHE_H_
