#include "service/filter_cache.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace gsi {
namespace {

void AppendU32(std::string& out, uint32_t v) {
  const char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                         static_cast<char>(v >> 16),
                         static_cast<char>(v >> 24)};
  out.append(bytes, 4);
}

}  // namespace

FilterCache::FilterCache(Options options) : options_(options) {}

std::string FilterCache::KeyOf(const Graph& query) {
  std::vector<EdgeRecord> edges = query.UndirectedEdges();
  std::sort(edges.begin(), edges.end(),
            [](const EdgeRecord& a, const EdgeRecord& b) {
              return std::tie(a.src, a.dst, a.label) <
                     std::tie(b.src, b.dst, b.label);
            });
  std::string key;
  key.reserve(4 * (1 + query.num_vertices() + 3 * edges.size()));
  AppendU32(key, static_cast<uint32_t>(query.num_vertices()));
  for (Label l : query.vertex_labels()) AppendU32(key, l);
  for (const EdgeRecord& e : edges) {
    AppendU32(key, e.src);
    AppendU32(key, e.dst);
    AppendU32(key, e.label);
  }
  return key;
}

std::shared_ptr<const FilterCache::Entry> FilterCache::MakeEntry(
    const FilterResult& filtered) {
  auto entry = std::make_shared<Entry>();
  entry->candidates.reserve(filtered.candidates.size());
  for (const CandidateSet& c : filtered.candidates) {
    std::span<const VertexId> list = c.list().span();
    entry->candidates.emplace_back(list.begin(), list.end());
    entry->bytes += list.size() * sizeof(VertexId);
  }
  entry->min_candidate_size = filtered.min_candidate_size;
  entry->min_candidate_vertex = filtered.min_candidate_vertex;
  return entry;
}

FilterResult FilterCache::Materialize(gpusim::Device& dev, const Entry& entry,
                                      size_t num_data_vertices,
                                      bool build_bitmaps) {
  return MakeFilterResult(dev, entry.candidates, num_data_vertices,
                          build_bitmaps);
}

std::shared_ptr<const FilterCache::Entry> FilterCache::Lookup(
    const std::string& key) {
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.entry;
}

void FilterCache::Insert(const std::string& key,
                         std::shared_ptr<const Entry> entry) {
  if (entry == nullptr || entry->bytes > options_.max_bytes) return;
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Refresh: another worker filtered the same shape concurrently.
    stats_.bytes -= it->second.entry->bytes;
    stats_.bytes += entry->bytes;
    it->second.entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    lru_.push_front(key);
    map_.emplace(key, Slot{std::move(entry), lru_.begin()});
    stats_.bytes += map_.at(key).entry->bytes;
    ++stats_.insertions;
  }
  EvictWhileOverBudgetLocked();
  stats_.entries = map_.size();
}

void FilterCache::EvictWhileOverBudgetLocked() {
  while (stats_.bytes > options_.max_bytes && !lru_.empty()) {
    const std::string& victim = lru_.back();
    auto it = map_.find(victim);
    stats_.bytes -= it->second.entry->bytes;
    ++stats_.evictions;
    map_.erase(it);
    lru_.pop_back();
  }
}

FilterCache::Stats FilterCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void FilterCache::Clear() {
  MutexLock lock(mu_);
  map_.clear();
  lru_.clear();
  stats_.bytes = 0;
  stats_.entries = 0;
}

void FilterCache::Stats::AddSamples(obs::MetricsSink& sink) const {
  sink.AddCounter("gsi_filter_cache_hits_total",
                  "Filter-phase lookups served from memoized candidates",
                  static_cast<double>(hits));
  sink.AddCounter("gsi_filter_cache_misses_total",
                  "Filter-phase lookups that ran the scan kernels",
                  static_cast<double>(misses));
  sink.AddCounter("gsi_filter_cache_insertions_total",
                  "Entries admitted into the cache",
                  static_cast<double>(insertions));
  sink.AddCounter("gsi_filter_cache_evictions_total",
                  "Entries evicted to hold the byte budget",
                  static_cast<double>(evictions));
  sink.AddGauge("gsi_filter_cache_entries", "Resident entries",
                static_cast<double>(entries));
  sink.AddGauge("gsi_filter_cache_bytes", "Resident candidate-list bytes",
                static_cast<double>(bytes));
  sink.AddGauge("gsi_filter_cache_hit_rate",
                "hits / (hits + misses) over the cache's lifetime",
                HitRate());
}

}  // namespace gsi
