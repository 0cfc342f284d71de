#include "gsi/matcher.h"

#include <algorithm>

#include "gsi/fault.h"
#include "gsi/sharded_engine.h"
#include "storage/basic_rep.h"
#include "storage/compressed_rep.h"
#include "storage/csr.h"
#include "storage/pcsr.h"

namespace gsi {

GsiOptions DefaultGsiOptions() { return GsiOptions{}; }

GsiOptions GsiOptOptions() {
  GsiOptions o;
  o.join.load_balance = true;
  o.join.duplicate_removal = true;
  return o;
}

GsiOptions GsiMinusOptions() {
  GsiOptions o;
  o.join.storage = StorageKind::kCsr;
  o.join.output_scheme = OutputScheme::kTwoStep;
  o.join.set_op = SetOpKind::kNaive;
  o.join.write_cache = false;
  return o;
}

Status ValidateGsiOptions(const GsiOptions& options) {
  const JoinOptions& j = options.join;
  if (options.device.num_sms < 1 || options.device.warps_per_block < 1 ||
      options.device.warp_slots_per_sm < 1) {
    return Status::InvalidArgument("device config requires >= 1 SM, warp "
                                   "slot and warp per block");
  }
  if (options.filter.strategy == FilterStrategy::kSignature) {
    // Signature::Encode aborts outside these bounds (signature.cc).
    const int bits = options.filter.signature_bits;
    if (bits <= kVertexLabelBits || bits > kMaxSignatureBits ||
        bits % 32 != 0) {
      return Status::InvalidArgument(
          "filter.signature_bits must be a multiple of 32 in (" +
          std::to_string(kVertexLabelBits) + ", " +
          std::to_string(kMaxSignatureBits) + "], got " +
          std::to_string(bits));
    }
  }
  if (!options.filter.build_bitmaps && j.set_op == SetOpKind::kWarpFriendly) {
    // The GPU-friendly set op probes the candidate bitsets; only the naive
    // one (binary search on the sorted lists) runs without them.
    return Status::InvalidArgument(
        "join.set_op = kWarpFriendly requires filter.build_bitmaps");
  }
  if (j.storage == StorageKind::kPcsr && (j.gpn < 2 || j.gpn > 16)) {
    return Status::InvalidArgument("join.gpn must be in [2, 16], got " +
                                   std::to_string(j.gpn));
  }
  if (j.max_rows == 0) {
    return Status::InvalidArgument("join.max_rows must be positive");
  }
  if (j.load_balance) {
    // W2 is fixed to the block size; PlanChunks requires W1 > W2 > W3 >= 32.
    const uint32_t w2 = static_cast<uint32_t>(options.device.warps_per_block) *
                        gpusim::kWarpSize;
    if (!(j.w1 > w2 && w2 > j.w3 && j.w3 >= 32)) {
      return Status::InvalidArgument(
          "load balance requires W1 > W2 > W3 >= 32 (W1=" +
          std::to_string(j.w1) + ", W2=block size " + std::to_string(w2) +
          ", W3=" + std::to_string(j.w3) + ")");
    }
  }
  return Status::Ok();
}

std::vector<VertexId> QueryResult::MatchInQueryOrder(size_t r) const {
  std::vector<VertexId> out(table.cols());
  for (size_t c = 0; c < table.cols(); ++c) {
    out[column_to_query[c]] = table.At(r, c);
  }
  return out;
}

bool QueryResult::TableEquals(const QueryResult& other) const {
  if (table.rows() != other.table.rows() ||
      table.cols() != other.table.cols() ||
      column_to_query != other.column_to_query) {
    return false;
  }
  for (size_t r = 0; r < table.rows(); ++r) {
    for (size_t c = 0; c < table.cols(); ++c) {
      if (table.At(r, c) != other.table.At(r, c)) return false;
    }
  }
  return true;
}

std::vector<std::vector<VertexId>> QueryResult::AllMatchesSorted() const {
  std::vector<std::vector<VertexId>> out;
  out.reserve(table.rows());
  for (size_t r = 0; r < table.rows(); ++r) {
    out.push_back(MatchInQueryOrder(r));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<NeighborStore> BuildStore(gpusim::Device& dev,
                                          const Graph& g, StorageKind kind,
                                          int gpn) {
  switch (kind) {
    case StorageKind::kCsr:
      return DeviceCsr::Build(dev, g);
    case StorageKind::kPcsr:
      return PcsrStore::Build(dev, g, gpn);
    case StorageKind::kBasicRep:
      return BasicRep::Build(dev, g);
    case StorageKind::kCompressedRep:
      return CompressedRep::Build(dev, g);
  }
  return nullptr;
}

Status ValidateQuery(const Graph& query) {
  if (query.num_vertices() == 0) {
    return Status::InvalidArgument("empty query");
  }
  if (!query.IsConnected()) {
    return Status::InvalidArgument(
        "query must be connected (run components separately)");
  }
  return Status::Ok();
}

Result<FilterResult> RunFilterStage(gpusim::Device& dev,
                                    const FilterContext& filter,
                                    const Graph& query, QueryStats& stats,
                                    const obs::TraceContext& trace) {
  if (Status v = ValidateQuery(query); !v.ok()) return v;
  if (Status h = CheckDeviceHealthy(dev, "filter"); !h.ok()) return h;
  const obs::DeviceCycleClock clock(dev);
  obs::ScopedSpan span(trace, "filter", clock, dev.ordinal());
  gpusim::MemStats before = dev.stats();
  Result<FilterResult> filtered = filter.Filter(dev, query);
  if (!filtered.ok()) return filtered;
  // Phase boundary of the fail-stop fault model: candidate sets built on a
  // device that tripped mid-scan are discarded here.
  if (Status h = CheckDeviceHealthy(dev, "filter"); !h.ok()) return h;
  stats.filter = dev.stats() - before;
  stats.filter_ms = stats.filter.SimulatedMs(dev.config());
  stats.min_candidate_size = filtered->min_candidate_size;
  span.AddAttr("min_candidate_size",
               static_cast<uint64_t>(filtered->min_candidate_size));
  span.AddAttr("rows_scanned", filtered->rows_scanned);
  return filtered;
}

std::optional<QueryResult> internal::JoinWithoutEngine(
    gpusim::Device& dev, const Graph& data, const Graph& query,
    const FilterResult& filtered, const QueryStats& stats) {
  QueryResult out;
  if (query.num_vertices() == 1) {
    // Degenerate query: the candidate set is the answer.
    const CandidateSet& c = filtered.candidates[0];
    out.table = MatchTable::Alloc(dev, c.size(), 1);
    for (size_t i = 0; i < c.size(); ++i) out.table.Set(i, 0, c.list()[i]);
    out.column_to_query = {0};
  } else if (filtered.AnyEmpty()) {
    // Some query vertex has no candidates: zero matches, skip the join.
    out.table = MatchTable::Alloc(dev, 0, query.num_vertices());
    out.column_to_query =
        MakeJoinPlan(query, data, filtered.candidates).order;
  } else {
    return std::nullopt;
  }
  out.stats = stats;
  out.stats.join_ms = 0;
  out.stats.total_ms = out.stats.filter_ms;
  out.stats.num_matches = out.table.rows();
  return out;
}

GsiMatcher::GsiMatcher(const Graph& data, GsiOptions options)
    : data_(&data), options_(options) {
  dev_ = std::make_unique<gpusim::Device>(options.device);
  init_status_ = ValidateGsiOptions(options);
  if (!init_status_.ok()) return;  // Find reports the error.
  store_ = BuildStore(*dev_, data, options.join.storage, options.join.gpn);
  filter_ = std::make_unique<FilterContext>(*dev_, data, options.filter);
}

Result<QueryResult> GsiMatcher::Find(const Graph& query) {
  return Find(query, obs::TraceContext{});
}

Result<QueryResult> GsiMatcher::Find(const Graph& query,
                                     const obs::TraceContext& trace) {
  if (!init_status_.ok()) return init_status_;
  gpusim::Device* const devs[] = {dev_.get()};
  Result<PagedQueryResult> out = ExecuteQueryShardedPaged(
      devs, *data_, *store_, *filter_, options_, ShardOptions(), query, trace);
  if (!out.ok()) return out.status();
  return ToQueryResult(std::move(out.value()), *dev_);
}

}  // namespace gsi
