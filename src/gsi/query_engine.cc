#include "gsi/query_engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "util/percentile.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gsi {

QueryEngine::QueryEngine(const Graph& data, GsiOptions options)
    : data_(&data), options_(options) {
  init_status_ = ValidateGsiOptions(options);
  if (!init_status_.ok()) return;  // Execute/RunBatch report the error.
  build_dev_ = std::make_unique<gpusim::Device>(options.device);
  store_ =
      BuildStore(*build_dev_, data, options.join.storage, options.join.gpn);
  filter_ = std::make_unique<FilterContext>(*build_dev_, data, options.filter);
}

Status QueryEngine::ValidateRequest(const ExecRequest& req) const {
  if (!init_status_.ok()) return init_status_;
  if (req.query == nullptr) {
    return Status::InvalidArgument("ExecRequest.query must be set");
  }
  if (!req.devices.empty() && req.replicated != nullptr) {
    return Status::InvalidArgument(
        "ExecRequest names more than one execution target (set at most one "
        "of devices / replicated)");
  }
  for (size_t i = 0; i < req.devices.size(); ++i) {
    if (req.devices[i] == nullptr) {
      return Status::InvalidArgument("ExecRequest.devices[" +
                                     std::to_string(i) + "] is null");
    }
    if (std::find(req.devices.begin(), req.devices.begin() + i,
                  req.devices[i]) != req.devices.begin() + i) {
      return Status::InvalidArgument("ExecRequest.devices[" +
                                     std::to_string(i) +
                                     "] repeats an earlier device");
    }
  }
  if (req.replicated != nullptr && req.selection == nullptr) {
    return Status::InvalidArgument(
        "ExecRequest.replicated requires a replica selection");
  }
  if (req.selection != nullptr && req.replicated == nullptr) {
    return Status::InvalidArgument(
        "ExecRequest.selection is set but no replicated target is");
  }
  if (req.replicated != nullptr) {
    if (&req.replicated->data() != data_) {
      return Status::InvalidArgument(
          "ReplicatedGraph was built over a different data graph");
    }
    if (!(req.replicated->options() == options_)) {
      // Divergent tuning (signature width, join order inputs, chunking...)
      // would execute fine but silently break the documented bit-identical
      // parity across targets, so reject it up front.
      return Status::InvalidArgument(
          "ReplicatedGraph was built with different GsiOptions than this "
          "engine");
    }
  }
  return Status::Ok();
}

Result<QueryResult> QueryEngine::Execute(const ExecRequest& req) const {
  Result<PagedQueryResult> paged = ExecutePaged(req);
  if (!paged.ok()) return paged.status();
  // Materializing is host-mediated row movement (uncharged), so the device
  // the table lands on changes no counter.
  gpusim::Device scratch(options_.device);
  return ToQueryResult(std::move(paged.value()), scratch);
}

Result<PagedQueryResult> QueryEngine::ExecutePaged(
    const ExecRequest& req) const {
  if (Status v = ValidateRequest(req); !v.ok()) return v;
  if (req.replicated != nullptr) {
    return ExecuteQueryReplicatedPaged(*req.replicated, *req.selection,
                                       *req.query, req.trace);
  }
  if (!req.devices.empty()) {
    return ExecuteQueryShardedPaged(req.devices, *data_, *store_, *filter_,
                                    options_, req.shard, *req.query,
                                    req.trace);
  }
  // No target: the same flow over one private device.
  gpusim::Device dev(options_.device);
  gpusim::Device* const devs[] = {&dev};
  return ExecuteQueryShardedPaged(devs, *data_, *store_, *filter_, options_,
                                  req.shard, *req.query, req.trace);
}

BatchResult QueryEngine::RunBatch(std::span<const Graph> queries,
                                  const BatchOptions& options) const {
  BatchResult batch;
  batch.stats.total = queries.size();
  if (!init_status_.ok()) {
    for (size_t i = 0; i < queries.size(); ++i) {
      batch.per_query.emplace_back(init_status_);
    }
    batch.stats.failed = queries.size();
    return batch;
  }
  if (queries.empty()) return batch;

  const size_t num_workers = std::clamp<size_t>(
      options.num_threads < 1 ? 1 : static_cast<size_t>(options.num_threads),
      1, queries.size());
  batch.stats.num_workers = num_workers;

  // Workers pull query indices from a shared counter; each owns a private
  // device, so all simulated costs of query i land in slot i's stats.
  std::vector<std::optional<Result<QueryResult>>> slots(queries.size());
  std::atomic<size_t> next{0};
  std::mutex agg_mu;
  WallTimer wall;
  {
    ThreadPool pool(num_workers);
    for (size_t t = 0; t < num_workers; ++t) {
      pool.Submit([&] {
        gpusim::Device dev(options_.device);
        gpusim::Device* const devs[] = {&dev};
        for (size_t i = next.fetch_add(1); i < queries.size();
             i = next.fetch_add(1)) {
          Result<PagedQueryResult> out =
              ExecuteQueryShardedPaged(devs, *data_, *store_, *filter_,
                                       options_, ShardOptions(), queries[i]);
          if (out.ok()) {
            slots[i] = ToQueryResult(std::move(out.value()), dev);
          } else {
            slots[i] = out.status();
          }
        }
        std::lock_guard<std::mutex> lock(agg_mu);
        batch.stats.device += dev.stats();
      });
    }
    pool.Wait();
  }
  batch.stats.wall_ms = wall.ElapsedMs();

  std::vector<double> latencies_ms;
  latencies_ms.reserve(queries.size());
  for (std::optional<Result<QueryResult>>& slot : slots) {
    Result<QueryResult>& r = *slot;
    if (r.ok()) {
      ++batch.stats.ok;
      batch.stats.sum_simulated_ms += r->stats.total_ms;
      latencies_ms.push_back(r->stats.total_ms);
    } else {
      ++batch.stats.failed;
    }
    batch.per_query.push_back(std::move(r));
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  batch.stats.p50_simulated_ms = PercentileOfSorted(latencies_ms, 0.5);
  batch.stats.p99_simulated_ms = PercentileOfSorted(latencies_ms, 0.99);
  if (batch.stats.wall_ms > 0) {
    batch.stats.queries_per_sec = static_cast<double>(queries.size()) /
                                  (batch.stats.wall_ms / 1000.0);
    batch.stats.ok_queries_per_sec = static_cast<double>(batch.stats.ok) /
                                     (batch.stats.wall_ms / 1000.0);
  }
  return batch;
}

}  // namespace gsi
