#include "gsi/partition.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "gpusim/launch.h"
#include "gsi/fault.h"
#include "gsi/join.h"
#include "gsi/partition_internal.h"
#include "gsi/plan.h"
#include "storage/signature.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gsi {
namespace {

using gpusim::kTransactionBytes;
using gpusim::Warp;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

MatchTable internal::SeedOwned(gpusim::Device& dev,
                               const std::vector<VertexId>& column) {
  gpusim::DeviceBuffer<VertexId> list = dev.Upload(column);
  MatchTable m = MatchTable::FromColumn(dev, column);
  gpusim::Launch(dev, std::max<size_t>(1, (column.size() + 1023) / 1024),
                 [&](Warp& w) {
                   size_t begin = w.global_id() * 1024;
                   if (begin >= column.size()) return;
                   size_t len = std::min<size_t>(1024, column.size() - begin);
                   w.LoadRange(list, begin, len);
                   w.StoreRange(m.data(), begin,
                                std::span<const VertexId>(
                                    m.data().data() + begin, len));
                 });
  return m;
}

std::vector<VertexId> internal::MergeAscendingDisjoint(
    std::span<const std::vector<VertexId>* const> lists) {
  const size_t k = lists.size();
  size_t total = 0;
  for (const std::vector<VertexId>* l : lists) {
    if (l != nullptr) total += l->size();
  }
  std::vector<VertexId> merged;
  merged.reserve(total);
  std::vector<size_t> cur(k, 0);
  while (merged.size() < total) {
    size_t best = k;
    for (size_t p = 0; p < k; ++p) {
      if (lists[p] == nullptr || cur[p] >= lists[p]->size()) continue;
      if (best == k || (*lists[p])[cur[p]] < (*lists[best])[cur[best]]) {
        best = p;
      }
    }
    merged.push_back((*lists[best])[cur[best]++]);
  }
  return merged;
}

std::vector<ManifestSegment> internal::PlanSeedRunMerge(
    std::span<const MatchTable* const> parts, std::vector<size_t>& rows_from) {
  const size_t k = parts.size();
  rows_from.assign(k, 0);
  size_t total_rows = 0;
  for (const MatchTable* t : parts) total_rows += t->rows();

  std::vector<ManifestSegment> runs;
  std::vector<size_t> cur(k, 0);
  size_t out_row = 0;
  while (out_row < total_rows) {
    size_t best = k;
    for (size_t p = 0; p < k; ++p) {
      if (cur[p] >= parts[p]->rows()) continue;
      if (best == k ||
          parts[p]->At(cur[p], 0) < parts[best]->At(cur[best], 0)) {
        best = p;
      }
    }
    const VertexId head = parts[best]->At(cur[best], 0);
    size_t run_end = cur[best];
    while (run_end < parts[best]->rows() &&
           parts[best]->At(run_end, 0) == head) {
      ++run_end;
    }
    runs.push_back(ManifestSegment{best, cur[best], run_end - cur[best]});
    rows_from[best] += run_end - cur[best];
    out_row += run_end - cur[best];
    cur[best] = run_end;
  }
  return runs;
}

MatchTable internal::MergeBySeedRuns(gpusim::Device& primary,
                                     std::span<const MatchTable* const> parts,
                                     size_t cols_out,
                                     std::vector<size_t>& rows_from) {
  const std::vector<ManifestSegment> runs = PlanSeedRunMerge(parts, rows_from);
  size_t total_rows = 0;
  for (const MatchTable* t : parts) total_rows += t->rows();

  MatchTable merged = MatchTable::Alloc(primary, total_rows, cols_out);
  size_t out_row = 0;
  for (const ManifestSegment& r : runs) {
    merged.CopyRowsFrom(*parts[r.part], r.begin, out_row, r.count);
    out_row += r.count;
  }
  return merged;
}

std::vector<PartitionId> HashVertexPartitioner::Assign(const Graph& g,
                                                       size_t k) const {
  GSI_CHECK(k >= 1);
  std::vector<PartitionId> owner(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    owner[v] = static_cast<PartitionId>(SplitMix64(v) % k);
  }
  return owner;
}

std::vector<PartitionId> GreedyEdgeCutPartitioner::Assign(const Graph& g,
                                                          size_t k) const {
  GSI_CHECK(k >= 1);
  const size_t n = g.num_vertices();
  std::vector<PartitionId> owner(n, 0);
  if (k == 1 || n == 0) return owner;
  const double capacity =
      (static_cast<double>(n) / static_cast<double>(k)) *
      (1.0 + std::max(0.0, balance_slack_));
  std::vector<size_t> load(k, 0);
  std::vector<size_t> with_v(k, 0);  // |N(v) cap P|, rebuilt per vertex
  for (VertexId v = 0; v < n; ++v) {
    std::fill(with_v.begin(), with_v.end(), 0);
    for (const Neighbor& nb : g.neighbors(v)) {
      if (nb.v < v) ++with_v[owner[nb.v]];  // only already-placed neighbors
    }
    PartitionId best = 0;
    double best_score = -1;
    for (PartitionId p = 0; p < k; ++p) {
      if (static_cast<double>(load[p]) >= capacity) continue;
      const double score =
          static_cast<double>(with_v[p]) *
          (1.0 - static_cast<double>(load[p]) / capacity);
      // Strict > keeps ties on the lowest id; empty-score vertices fall
      // through to the least-loaded pick below.
      if (score > best_score) {
        best_score = score;
        best = p;
      }
    }
    if (best_score <= 0) {
      best = static_cast<PartitionId>(
          std::min_element(load.begin(), load.end()) - load.begin());
    }
    owner[v] = best;
    ++load[best];
  }
  return owner;
}

uint64_t PartitionBuildStats::max_resident_bytes() const {
  uint64_t worst = 0;
  for (uint64_t b : resident_bytes) worst = std::max(worst, b);
  return worst;
}

Result<PartitionedGraph> PartitionedGraph::Build(
    std::span<gpusim::Device* const> devs, const Graph& data,
    const GsiOptions& options, const GraphPartitioner& partitioner) {
  if (devs.empty()) {
    return Status::InvalidArgument(
        "partitioned build needs at least one device");
  }
  Status valid = ValidateGsiOptions(options);
  if (!valid.ok()) return valid;
  if (options.join.storage != StorageKind::kPcsr) {
    return Status::InvalidArgument(
        "partitioned execution requires PCSR storage (join.storage)");
  }
  if (options.filter.strategy != FilterStrategy::kSignature) {
    return Status::InvalidArgument(
        "partitioned execution requires the signature filter strategy");
  }

  const size_t k = devs.size();
  std::vector<PartitionId> owner = partitioner.Assign(data, k);
  if (owner.size() != data.num_vertices()) {
    return Status::Internal(partitioner.name() +
                            " returned an assignment of the wrong size");
  }
  for (PartitionId p : owner) {
    if (p >= k) {
      return Status::InvalidArgument(partitioner.name() +
                                     " assigned a vertex outside [0, K)");
    }
  }

  PartitionedGraph pg;
  pg.data_ = &data;
  pg.options_ = options;
  pg.partitioner_name_ = partitioner.name();
  pg.devs_.assign(devs.begin(), devs.end());
  pg.owner_ = std::move(owner);
  pg.owned_.resize(k);
  for (VertexId v = 0; v < data.num_vertices(); ++v) {
    pg.owned_[pg.owner_[v]].push_back(v);
  }

  PartitionBuildStats& bs = pg.build_stats_;
  bs.vertices.resize(k);
  bs.directed_edges.resize(k);
  bs.resident_bytes.resize(k);
  std::vector<uint8_t> keep(data.num_vertices());
  for (PartitionId p = 0; p < k; ++p) {
    std::fill(keep.begin(), keep.end(), 0);
    size_t directed = 0;
    for (VertexId v : pg.owned_[p]) {
      keep[v] = 1;
      directed += data.degree(v);
    }
    pg.stores_.push_back(PcsrStore::BuildForVertices(*devs[p], data, keep,
                                                     options.join.gpn));
    pg.signatures_.push_back(SignatureTable::BuildSubset(
        *devs[p], data, pg.owned_[p], options.filter.signature_bits,
        options.filter.layout));
    bs.vertices[p] = pg.owned_[p].size();
    bs.directed_edges[p] = directed;
    bs.resident_bytes[p] =
        pg.stores_[p]->device_bytes() + pg.signatures_[p].device_bytes();
    bs.replicated_bytes += bs.resident_bytes[p];
  }
  // The halo cache's budget is a reserved slice of each partition's
  // resident memory (counted up front, like any allocation) — but not of
  // replicated_bytes, which measures the unpartitioned single-copy
  // footprint the shares are compared against.
  pg.halo_.resize(k);
  if (options.halo_budget_bytes > 0) {
    for (PartitionId p = 0; p < k; ++p) {
      pg.halo_[p] =
          std::make_unique<HaloCache>(*devs[p], options.halo_budget_bytes);
      bs.resident_bytes[p] += options.halo_budget_bytes;
    }
  }
  for (VertexId v = 0; v < data.num_vertices(); ++v) {
    for (const Neighbor& nb : data.neighbors(v)) {
      if (nb.v > v && pg.owner_[v] != pg.owner_[nb.v]) ++bs.cut_edges;
    }
  }
  uint64_t max_edges = 0;
  uint64_t sum_edges = 0;
  for (size_t e : bs.directed_edges) {
    max_edges = std::max<uint64_t>(max_edges, e);
    sum_edges += e;
  }
  bs.edge_balance =
      sum_edges > 0 ? static_cast<double>(max_edges) /
                          (static_cast<double>(sum_edges) /
                           static_cast<double>(k))
                    : 1.0;
  return pg;
}

Result<FilterResult> RunFilterStagePartitioned(const PartitionedGraph& pg,
                                               const Graph& query,
                                               QueryStats& stats,
                                               double* parallel_ms,
                                               const obs::TraceContext& trace) {
  if (query.num_vertices() == 0) {
    return Status::InvalidArgument("empty query");
  }
  if (!query.IsConnected()) {
    return Status::InvalidArgument(
        "query must be connected (run components separately)");
  }
  const size_t k = pg.num_partitions();
  const size_t nu = query.num_vertices();
  const size_t n = pg.data().num_vertices();
  const int nbits = pg.options().filter.signature_bits;

  const std::vector<Signature> qsigs = Signature::EncodeAll(query, nbits);

  // --- Scan phase: partition p scans its owned vertices on its device (one
  // ScanSignatures kernel per partition). A barrier, like the sharded
  // filter's scan.
  const obs::DeviceCycleClock primary_clock(pg.device(0));
  obs::ScopedSpan filter_span(trace, "filter", primary_clock, 0);
  std::vector<std::vector<std::vector<VertexId>>> partial(k);  // [p][u]
  std::vector<gpusim::MemStats> scan_mem(k);
  {
    ThreadPool pool(k);
    for (PartitionId p = 0; p < k; ++p) {
      pool.Submit([&, p] {
        gpusim::Device& dev = pg.device(p);
        const obs::DeviceCycleClock clock(dev);
        obs::ScopedSpan span(filter_span.context(), "partition_scan", clock,
                             static_cast<int32_t>(p));
        span.AddAttr("vertices", static_cast<uint64_t>(pg.owned(p).size()));
        const gpusim::MemStats before = dev.stats();
        partial[p] =
            internal::ScanOwnedSignatures(dev, pg.signatures(p),
                                          pg.owned(p), qsigs);
        scan_mem[p] = dev.stats() - before;
      });
    }
    pool.Wait();
  }
  // Phase barrier: a partition device that tripped mid-scan invalidates its
  // survivor lists; the query fails over before any gather.
  for (PartitionId p = 0; p < k; ++p) {
    if (Status h = CheckDeviceHealthy(pg.device(p), "partition_scan");
        !h.ok()) {
      return h;
    }
  }

  // --- Gather phase: the per-partition survivor lists all-gather to the
  // primary (halo traffic: every non-primary byte crosses the
  // interconnect), which merges them back into globally ascending candidate
  // lists — partitions own disjoint vertex sets and each list is ascending,
  // so a K-way merge reproduces the replicated scan's list exactly — and
  // materializes the candidate buffers (upload + bitset kernel).
  gpusim::Device& primary = pg.device(0);
  const gpusim::MemStats before_gather = primary.stats();
  uint64_t halo = 0;
  FilterResult result;
  result.candidates.resize(nu);
  std::vector<size_t> sizes(nu, 0);
  {
    obs::ScopedSpan gather_span(filter_span.context(), "candidate_gather",
                                primary_clock);
    for (VertexId u = 0; u < nu; ++u) {
      std::vector<const std::vector<VertexId>*> lists(k);
      for (PartitionId p = 0; p < k; ++p) {
        lists[p] = &partial[p][u];
        if (p != 0) halo += partial[p][u].size() * sizeof(VertexId);
      }
      std::vector<VertexId> merged = internal::MergeAscendingDisjoint(lists);
      sizes[u] = merged.size();
      result.candidates[u] = CandidateSet::Create(
          primary, u, std::move(merged), n, pg.options().filter.build_bitmaps);
    }
    primary.ChargeRemoteTransfer(halo);
    gather_span.AddAttr("halo_bytes", halo);
  }
  if (Status h = CheckDeviceHealthy(primary, "candidate_gather"); !h.ok()) {
    return h;
  }
  const gpusim::MemStats gather_mem = primary.stats() - before_gather;

  result.min_candidate_size = SIZE_MAX;
  for (VertexId u = 0; u < nu; ++u) {
    if (sizes[u] < result.min_candidate_size) {
      result.min_candidate_size = sizes[u];
      result.min_candidate_vertex = u;
    }
  }

  gpusim::MemStats total;
  double max_scan_ms = 0;
  for (PartitionId p = 0; p < k; ++p) {
    total += scan_mem[p];
    max_scan_ms =
        std::max(max_scan_ms, scan_mem[p].SimulatedMs(pg.device(p).config()));
  }
  total += gather_mem;
  stats.filter = total;
  stats.min_candidate_size = result.min_candidate_size;
  stats.halo_bytes += halo;
  if (parallel_ms != nullptr) {
    *parallel_ms = max_scan_ms + gather_mem.SimulatedMs(primary.config());
  }
  return result;
}

Result<PagedQueryResult> RunJoinStagePartitionedPaged(
    const PartitionedGraph& pg, const Graph& query, FilterResult filtered,
    QueryStats stats, const obs::TraceContext& trace) {
  const Graph& data = pg.data();
  const GsiOptions& options = pg.options();
  const size_t k = pg.num_partitions();
  gpusim::Device& primary = pg.device(0);
  const obs::DeviceCycleClock primary_clock(primary);
  obs::ScopedSpan join_span(trace, "join", primary_clock, 0);

  PagedQueryResult out;
  out.stats = stats;

  if (query.num_vertices() == 1) {
    // Degenerate query: the candidate set is the answer (assembled on the
    // primary, exactly like RunJoinStage).
    const CandidateSet& c = filtered.candidates[0];
    MatchTable table = MatchTable::Alloc(primary, c.size(), 1);
    for (size_t i = 0; i < c.size(); ++i) table.Set(i, 0, c.list()[i]);
    out.manifest = ResultManifest::FromWholeTable(std::move(table), primary);
    out.column_to_query = {0};
    out.stats.partitions_used = 1;
  } else if (filtered.AnyEmpty()) {
    // Some query vertex has no candidates: zero matches, skip the join.
    out.manifest = ResultManifest::FromWholeTable(
        MatchTable::Alloc(primary, 0, query.num_vertices()), primary);
    JoinPlan plan = MakeJoinPlan(query, data, filtered.candidates);
    out.column_to_query = plan.order;
    out.stats.partitions_used = 1;
  } else {
    const JoinPlan plan = MakeJoinPlan(query, data, filtered.candidates);
    const CandidateSet& seed = filtered.candidates[plan.order[0]];

    // Split the seed list by ownership (host-mediated read, like any seed
    // scatter): partition p joins the subsequence of C(order[0]) it owns.
    std::vector<std::vector<VertexId>> seed_cols(k);
    for (size_t i = 0; i < seed.size(); ++i) {
      const VertexId v = seed.list()[i];
      seed_cols[pg.OwnerOf(v)].push_back(v);
    }

    std::vector<std::optional<Result<MatchTable>>> parts(k);
    std::vector<gpusim::MemStats> deltas(k);
    std::vector<JoinStats> part_join(k);
    std::vector<internal::RoutedStoreView::Traffic> remotes(k);
    {
      ThreadPool pool(k);
      for (PartitionId p = 0; p < k; ++p) {
        pool.Submit([&, p] {
          gpusim::Device& dev = pg.device(p);
          const obs::DeviceCycleClock clock(dev);
          obs::ScopedSpan part_span(join_span.context(), "partition_join",
                                    clock, static_cast<int32_t>(p));
          part_span.AddAttr("seed_rows",
                            static_cast<uint64_t>(seed_cols[p].size()));
          const gpusim::MemStats before = dev.stats();
          if (seed_cols[p].empty()) {
            parts[p] = MatchTable::Alloc(dev, 0, plan.order.size());
          } else {
            MatchTable m = internal::SeedOwned(dev, seed_cols[p]);
            // Only this partition's share is local; every other probe
            // crosses the interconnect to its owner.
            std::vector<const PcsrStore*> serving(k);
            std::vector<uint8_t> local(k, 0);
            for (PartitionId o = 0; o < k; ++o) serving[o] = &pg.store(o);
            local[p] = 1;
            internal::RoutedStoreView view(pg.owners(), std::move(serving),
                                           std::move(local), p,
                                           pg.halo_cache(p));
            JoinEngine join(&dev, &view, options.join);
            join.set_trace(part_span.context());
            const uint64_t probes_start = clock.NowNanos();
            parts[p] = join.RunSteps(plan, filtered.candidates, std::move(m),
                                     0, plan.steps.size());
            part_join[p] = join.stats();
            remotes[p] = view.traffic();
            // The partition's remote probes as one batch span covering the
            // join steps they were served during.
            const obs::TraceContext part_ctx = part_span.context();
            if (part_ctx.tracer != nullptr && remotes[p].remote_probes > 0) {
              const int32_t idx = part_ctx.tracer->RecordSpan(
                  "remote_probes", static_cast<int32_t>(p), probes_start,
                  clock.NowNanos(), part_ctx.parent);
              part_ctx.tracer->AddAttr(
                  idx, "probes", std::to_string(remotes[p].remote_probes));
              part_ctx.tracer->AddAttr(
                  idx, "lines", std::to_string(remotes[p].remote_lines));
            }
            // Halo-cache hits as their own span: remote lookups this lane
            // answered locally (cycle-clock timed, so traced runs at a
            // fixed budget stay byte-identical).
            if (part_ctx.tracer != nullptr && remotes[p].halo_hits > 0) {
              const int32_t idx = part_ctx.tracer->RecordSpan(
                  "halo_probe", static_cast<int32_t>(p), probes_start,
                  clock.NowNanos(), part_ctx.parent);
              part_ctx.tracer->AddAttr(
                  idx, "hits", std::to_string(remotes[p].halo_hits));
              part_ctx.tracer->AddAttr(
                  idx, "bytes", std::to_string(remotes[p].halo_hit_bytes));
            }
          }
          deltas[p] = dev.stats() - before;
        });
      }
      pool.Wait();
    }
    for (PartitionId p = 0; p < k; ++p) {
      if (!parts[p]->ok()) return parts[p]->status();
    }

    // --- Roll-up: counters sum total work; the time is the makespan of the
    // concurrently-running partitions (each a deterministic function of its
    // seed subsequence) plus the merge below.
    gpusim::MemStats join_counters;
    JoinStats detail;
    double sum_ms = 0;
    double max_ms = 0;
    size_t active = 0;
    for (PartitionId p = 0; p < k; ++p) {
      join_counters += deltas[p];
      if (seed_cols[p].empty()) continue;
      const double ms = deltas[p].SimulatedMs(pg.device(p).config());
      ++active;
      sum_ms += ms;
      max_ms = std::max(max_ms, ms);
      detail.iterations = std::max(detail.iterations, part_join[p].iterations);
      detail.peak_rows += part_join[p].peak_rows;  // concurrently resident
      detail.total_chunks += part_join[p].total_chunks;
      detail.dup_cache_hits += part_join[p].dup_cache_hits;
      detail.dup_cache_misses += part_join[p].dup_cache_misses;
      out.stats.remote_probes += remotes[p].remote_probes;
      out.stats.halo_bytes += remotes[p].remote_lines * kTransactionBytes;
      out.stats.halo_cache_hits += remotes[p].halo_hits;
      out.stats.halo_cache_bytes += remotes[p].halo_hit_bytes;
    }

    // --- Merge planning on the primary, in global seed order. The final
    // table of any join is grouped by its column-0 (seed) binding, runs
    // appear in candidate-list (ascending) order, and ownership split the
    // seed list into disjoint subsequences — so repeatedly taking the run
    // with the smallest column-0 head reconstructs the replicated table row
    // for row. The partial tables stay on their partition devices; only the
    // ordered run list is computed here, but the movement of non-primary
    // rows is still charged now (halo traffic), so one-shot and paged
    // consumers observe identical counters no matter how many pages are
    // eventually fetched.
    const gpusim::MemStats before_merge = primary.stats();
    obs::ScopedSpan merge_span(join_span.context(), "result_merge",
                               primary_clock);
    const size_t cols_out = plan.order.size();
    std::vector<const MatchTable*> tabs(k);
    for (PartitionId p = 0; p < k; ++p) tabs[p] = &parts[p]->value();
    std::vector<size_t> rows_from;
    const std::vector<ManifestSegment> runs =
        internal::PlanSeedRunMerge(tabs, rows_from);
    uint64_t remote_rows = 0;
    for (PartitionId p = 1; p < k; ++p) remote_rows += rows_from[p];
    const uint64_t merge_bytes = remote_rows * cols_out * sizeof(VertexId);
    primary.ChargeRemoteTransfer(merge_bytes);
    out.stats.halo_bytes += merge_bytes;
    size_t total_rows = 0;
    for (const MatchTable* t : tabs) total_rows += t->rows();
    merge_span.AddAttr("rows", static_cast<uint64_t>(total_rows));
    merge_span.AddAttr("halo_bytes", merge_bytes);
    if (Status h = CheckDeviceHealthy(primary, "result_merge"); !h.ok()) {
      return h;
    }
    const gpusim::MemStats merge_mem = primary.stats() - before_merge;
    join_counters += merge_mem;

    detail.final_rows = total_rows;
    detail.peak_rows = std::max(detail.peak_rows, total_rows);
    out.manifest.set_cols(cols_out);
    std::vector<size_t> part_index(k, SIZE_MAX);
    for (PartitionId p = 0; p < k; ++p) {
      if (parts[p]->value().rows() == 0) continue;  // nothing to reference
      part_index[p] =
          out.manifest.AddPart(std::move(parts[p]->value()), pg.device(p));
    }
    for (const ManifestSegment& r : runs) {
      out.manifest.AddSegment(part_index[r.part], r.begin, r.count);
    }
    out.column_to_query = plan.order;
    out.stats.join = join_counters;
    out.stats.join_detail = detail;
    out.stats.partitions_used = std::max<size_t>(1, active);
    out.stats.partition_skew =
        active > 0 && sum_ms > 0
            ? max_ms / (sum_ms / static_cast<double>(active))
            : 0;
    out.stats.join_ms =
        max_ms + merge_mem.SimulatedMs(primary.config());
  }

  // Covers the degenerate paths (single-vertex / empty-candidate), which
  // materialize on the primary without entering the join engine.
  if (Status h = CheckDeviceHealthy(primary, "join"); !h.ok()) return h;
  out.stats.filter_ms = out.stats.filter.SimulatedMs(primary.config());
  if (out.stats.join_ms == 0) {
    out.stats.join_ms = out.stats.join.SimulatedMs(primary.config());
  }
  out.stats.total_ms = out.stats.filter_ms + out.stats.join_ms;
  out.stats.num_matches = out.manifest.rows();
  return out;
}

Result<QueryResult> RunJoinStagePartitioned(const PartitionedGraph& pg,
                                            const Graph& query,
                                            FilterResult filtered,
                                            QueryStats stats,
                                            const obs::TraceContext& trace) {
  Result<PagedQueryResult> paged = RunJoinStagePartitionedPaged(
      pg, query, std::move(filtered), std::move(stats), trace);
  if (!paged.ok()) return paged.status();
  // Materializing is host-mediated row movement (uncharged); the merge's
  // interconnect cost was already charged at plan time, so this wrapper is
  // counter- and table-bit-identical to the historical eager merge.
  return ToQueryResult(std::move(paged.value()), pg.device(0));
}

Result<PagedQueryResult> ExecuteQueryPartitionedPaged(
    const PartitionedGraph& pg, const Graph& query,
    const obs::TraceContext& trace) {
  WallTimer wall;
  const obs::DeviceCycleClock primary_clock(pg.device(0));
  obs::ScopedSpan span(trace, "execute_partitioned", primary_clock, 0);
  span.AddAttr("partitions", static_cast<uint64_t>(pg.num_partitions()));
  QueryStats stats;
  double filter_parallel_ms = 0;
  Result<FilterResult> filtered = RunFilterStagePartitioned(
      pg, query, stats, &filter_parallel_ms, span.context());
  if (!filtered.ok()) return filtered.status();
  Result<PagedQueryResult> out = RunJoinStagePartitionedPaged(
      pg, query, std::move(filtered.value()), stats, span.context());
  if (out.ok()) {
    // The join stage derives filter_ms from the summed counters; restore
    // the fanned-out filter's makespan so total_ms reflects wall-parallel
    // partitions, not serialized work.
    out->stats.filter_ms = filter_parallel_ms;
    out->stats.total_ms = out->stats.filter_ms + out->stats.join_ms;
    out->stats.wall_ms = wall.ElapsedMs();
  }
  return out;
}

Result<QueryResult> ExecuteQueryPartitioned(const PartitionedGraph& pg,
                                            const Graph& query,
                                            const obs::TraceContext& trace) {
  Result<PagedQueryResult> paged =
      ExecuteQueryPartitionedPaged(pg, query, trace);
  if (!paged.ok()) return paged.status();
  return ToQueryResult(std::move(paged.value()), pg.device(0));
}

}  // namespace gsi
