// Service throughput: the streamed QueryService (async submit/poll over a
// bounded admission queue) vs QueryEngine::RunBatch on the same
// repeated-shape workload, plus the filter-phase saving from the
// signature-keyed FilterCache. Every mode executes the identical query
// stream, so ok-counts and match work line up; only the serving layer and
// the cache differ.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gpusim/device.h"
#include "service/query_service.h"
#include "util/check.h"
#include "util/timer.h"

namespace gsi::bench {
namespace {

/// Each query shape appears this many times in the stream — the repeats
/// are what the filter cache can serve.
constexpr size_t kRepeats = 4;

/// `--fault-rate <r>`: injected device faults per query (0 = mode off).
/// Parsed in main before google-benchmark sees the flag.
double& FaultRateSlot() {
  static double rate = 0;
  return rate;
}

/// `--page-budget <bytes>`: stream every result through FetchPage cursors
/// with this host-resident page budget (0 = unbounded pages, < 0 = mode
/// off). Parsed in main like --fault-rate.
long long& PageBudgetSlot() {
  static long long budget = -1;
  return budget;
}

TableCollector& Table() {
  static auto& t = *new TableCollector(
      "Service throughput: streamed submit/poll vs RunBatch on a "
      "repeated-shape stream (GSI-opt)",
      {"Mode", "Wall ms", "Queries/s", "ok", "Filter ms (sum)", "p50 sim ms",
       "p99 sim ms", "Cache hit rate"});
  return t;
}

const Graph& Data() { return GetDataset("enron").graph; }

const std::vector<Graph>& Stream() {
  static auto& stream = *new std::vector<Graph>([] {
    const std::vector<Graph>& base =
        GetQueries("enron", Env().query_vertices, 0, Env().queries);
    std::vector<Graph> s;
    s.reserve(base.size() * kRepeats);
    for (size_t r = 0; r < kRepeats; ++r) {
      s.insert(s.end(), base.begin(), base.end());
    }
    return s;
  }());
  return stream;
}

struct Outcome {
  double wall_ms = 0;
  double qps = 0;
  size_t ok = 0;
  double sum_filter_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double cache_hit_rate = 0;
};

void Record(benchmark::State& state, const std::string& mode,
            const Outcome& o) {
  state.counters["qps"] = o.qps;
  state.counters["sum_filter_ms"] = o.sum_filter_ms;
  Table().AddRow({mode, TablePrinter::FormatMs(o.wall_ms),
                  TablePrinter::FormatCount(static_cast<uint64_t>(o.qps)),
                  std::to_string(o.ok), TablePrinter::FormatMs(o.sum_filter_ms),
                  TablePrinter::FormatMs(o.p50_ms),
                  TablePrinter::FormatMs(o.p99_ms),
                  TablePrinter::FormatPercent(o.cache_hit_rate)});
  RecordJson({"service_throughput", mode, o.qps, o.p50_ms, o.p99_ms, {}});
}

Outcome RunViaBatch() {
  QueryEngine engine(Data(), GsiOptOptions());
  BatchOptions bo;
  bo.num_threads = static_cast<int>(Env().threads);
  BatchResult batch = engine.RunBatch(Stream(), bo);
  Outcome o;
  o.wall_ms = batch.stats.wall_ms;
  o.qps = batch.stats.ok_queries_per_sec;
  o.ok = batch.stats.ok;
  for (const Result<QueryResult>& r : batch.per_query) {
    if (r.ok()) o.sum_filter_ms += r->stats.filter_ms;
  }
  o.p50_ms = batch.stats.p50_simulated_ms;
  o.p99_ms = batch.stats.p99_simulated_ms;
  return o;
}

Outcome RunViaService(bool enable_cache) {
  ServiceOptions so;
  so.num_workers = static_cast<int>(Env().threads);
  // Throughput run: backpressure instead of shedding, so every query
  // executes and the comparison against RunBatch is apples-to-apples.
  so.overload = OverloadPolicy::kBlock;
  so.max_queue_depth = 512;
  so.enable_filter_cache = enable_cache;
  QueryService service(Data(), GsiOptOptions(), so);

  MaybeTraceQuery("service", [&]() -> std::shared_ptr<const obs::Tracer> {
    SubmitOptions submit;
    submit.trace = true;
    Result<QueryTicket> t = service.Submit(Stream().front(), submit);
    if (!t.ok()) return nullptr;
    (void)service.Wait(*t);
    return service.GetTrace(*t);
  });

  Outcome o;
  WallTimer wall;
  std::vector<QueryTicket> tickets;
  tickets.reserve(Stream().size());
  // One wave per repeat, each submitted after the previous one drained: a
  // repeated shape then always finds its first run's cache entry, so the
  // hit rate does not depend on worker timing. Both cache settings submit
  // the same waves.
  const size_t wave = Stream().size() / kRepeats;
  for (size_t i = 0; i < Stream().size(); ++i) {
    if (i > 0 && i % wave == 0) service.Drain();
    Result<QueryTicket> t = service.Submit(Stream()[i]);
    GSI_CHECK(t.ok());
    tickets.push_back(*t);
  }
  for (const QueryTicket& t : tickets) {
    Result<QueryResult> r = service.Wait(t);
    if (r.ok()) {
      ++o.ok;
      o.sum_filter_ms += r->stats.filter_ms;
    }
  }
  o.wall_ms = wall.ElapsedMs();
  if (o.wall_ms > 0) {
    o.qps = static_cast<double>(o.ok) / (o.wall_ms / 1000.0);
  }
  ServiceStats stats = service.stats();
  o.p50_ms = stats.p50_simulated_ms;
  o.p99_ms = stats.p99_simulated_ms;
  o.cache_hit_rate = stats.cache.HitRate();
  return o;
}

/// Same stream as RunViaService, but with one deterministic fail_on_lease
/// fault injected every 1/rate queries (retry budget 3, one spare device).
/// Quarantined devices are repaired between waves, so the run measures the
/// steady-state cost of surviving faults: availability (ok / submitted) and
/// the retry overhead the backoff model adds to simulated latency.
Outcome RunViaFaultedService(double fault_rate) {
  const size_t period =
      std::max<size_t>(1, static_cast<size_t>(std::llround(1.0 / fault_rate)));
  ServiceOptions so;
  so.num_workers = static_cast<int>(Env().threads);
  // One spare device: with at most one quarantined device per wave, every
  // worker still finds healthy hardware and the retry always lands.
  so.num_devices = static_cast<int>(Env().threads) + 1;
  so.overload = OverloadPolicy::kBlock;
  so.max_queue_depth = 512;
  so.enable_filter_cache = false;
  so.default_max_attempts = 3;
  QueryService service(Data(), GsiOptOptions(), so);
  GSI_CHECK(service.init_status().ok());

  Outcome o;
  size_t submitted = 0;
  size_t injected = 0;
  double retry_overhead_ms = 0;
  WallTimer wall;
  const std::vector<Graph>& stream = Stream();
  for (size_t base = 0; base < stream.size(); base += period) {
    // One fault per wave, always on device 0: the pool leases low indices
    // first, so the wave's first query is guaranteed to trip the plan (a
    // plan armed on a device the wave never leases would silently carry
    // over and stack with later faults). The pool is idle between waves,
    // so the plan arms immediately rather than deferring.
    gpusim::FaultPlan plan;
    plan.fail_on_lease = true;
    plan.reason = "bench-injected fault";
    if (service.InjectDeviceFault(0, plan).ok()) ++injected;
    const size_t end = std::min(base + period, stream.size());
    std::vector<QueryTicket> tickets;
    tickets.reserve(end - base);
    for (size_t i = base; i < end; ++i) {
      Result<QueryTicket> t = service.Submit(stream[i]);
      GSI_CHECK(t.ok());
      tickets.push_back(*t);
      ++submitted;
    }
    for (const QueryTicket& t : tickets) {
      Result<QueryResult> r = service.Wait(t);
      if (r.ok()) {
        ++o.ok;
        o.sum_filter_ms += r->stats.filter_ms;
        retry_overhead_ms += r->stats.backoff_ms;
      }
    }
    for (int d = 0; d < so.num_devices; ++d) (void)service.RepairDevice(d);
  }
  o.wall_ms = wall.ElapsedMs();
  if (o.wall_ms > 0) {
    o.qps = static_cast<double>(o.ok) / (o.wall_ms / 1000.0);
  }
  ServiceStats stats = service.stats();
  o.p50_ms = stats.p50_simulated_ms;
  o.p99_ms = stats.p99_simulated_ms;

  const double availability =
      submitted > 0 ? static_cast<double>(o.ok) / static_cast<double>(submitted)
                    : 0;
  std::printf("[bench] fault-rate %.3f: %zu faults injected, availability "
              "%.4f, %llu retries (%llu failovers), %.2f ms simulated retry "
              "overhead\n",
              fault_rate, injected, availability,
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.failovers),
              retry_overhead_ms);
  RecordJson({"service_throughput", "faulted", o.qps, o.p50_ms, o.p99_ms,
              {{"fault_rate", fault_rate},
               {"availability", availability},
               {"injected_faults", static_cast<double>(injected)},
               {"retries", static_cast<double>(stats.retries)},
               {"failovers", static_cast<double>(stats.failovers)},
               {"device_failures", static_cast<double>(stats.device_failures)},
               {"retry_overhead_ms", retry_overhead_ms}}});
  return o;
}

/// Same stream, but every result is consumed through the paged cursor
/// protocol (Submit -> FetchPage loop -> CloseCursor) under `budget`
/// host-resident bytes per page, and each page is compared cell-by-cell
/// against a one-shot RunBatch reference computed before the timer starts.
/// The JSON extras carry the acceptance metrics: pages_fetched,
/// peak_result_resident_mb (largest page the host ever held) and
/// paged_bit_identical (1.0 when every page matched the reference).
Outcome RunViaPagedService(size_t budget) {
  // Reference tables for the bit-identity check, outside the timed region.
  QueryEngine engine(Data(), GsiOptOptions());
  BatchOptions bo;
  bo.num_threads = static_cast<int>(Env().threads);
  BatchResult ref = engine.RunBatch(Stream(), bo);

  ServiceOptions so;
  so.num_workers = static_cast<int>(Env().threads);
  so.overload = OverloadPolicy::kBlock;
  so.max_queue_depth = 512;
  so.enable_filter_cache = false;
  so.page_budget_bytes = budget;
  QueryService service(Data(), GsiOptOptions(), so);

  Outcome o;
  bool identical = true;
  WallTimer wall;
  std::vector<QueryTicket> tickets;
  tickets.reserve(Stream().size());
  for (const Graph& q : Stream()) {
    Result<QueryTicket> t = service.Submit(q);
    GSI_CHECK(t.ok());
    tickets.push_back(*t);
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const MatchTable* expect =
        ref.per_query[i].ok() ? &ref.per_query[i]->table : nullptr;
    bool query_ok = true;
    for (;;) {
      Result<ResultPage> page = service.FetchPage(tickets[i]);
      if (!page.ok()) {
        query_ok = false;
        break;
      }
      if (expect != nullptr) {
        for (size_t r = 0; r < page->num_rows && identical; ++r) {
          for (size_t c = 0; c < page->cols; ++c) {
            identical = identical && page->rows[r * page->cols + c] ==
                                         expect->At(page->row_begin + r, c);
          }
        }
      }
      if (page->done) {
        identical = identical &&
                    (expect == nullptr ||
                     page->row_begin + page->num_rows == expect->rows());
        break;
      }
    }
    if (query_ok) ++o.ok;
    GSI_CHECK(service.CloseCursor(tickets[i]).ok());
  }
  o.wall_ms = wall.ElapsedMs();
  if (o.wall_ms > 0) {
    o.qps = static_cast<double>(o.ok) / (o.wall_ms / 1000.0);
  }
  ServiceStats stats = service.stats();
  o.p50_ms = stats.p50_simulated_ms;
  o.p99_ms = stats.p99_simulated_ms;

  const double peak_resident_mb =
      static_cast<double>(stats.peak_page_bytes) / (1024.0 * 1024.0);
  std::printf("[bench] page-budget %zu B: %llu pages over %zu queries, peak "
              "page %zu B (%.4f MB), bit-identical %s\n",
              budget, static_cast<unsigned long long>(stats.result_pages),
              tickets.size(), stats.peak_page_bytes, peak_resident_mb,
              identical ? "yes" : "NO");
  RecordJson({"service_throughput", "paged", o.qps, o.p50_ms, o.p99_ms,
              {{"page_budget_bytes", static_cast<double>(budget)},
               {"pages_fetched", static_cast<double>(stats.result_pages)},
               {"peak_result_resident_mb", peak_resident_mb},
               {"peak_page_bytes", static_cast<double>(stats.peak_page_bytes)},
               {"cursor_rebuilds", static_cast<double>(stats.cursor_rebuilds)},
               {"paged_bit_identical", identical ? 1.0 : 0.0}}});
  return o;
}

void BM_RunBatch(benchmark::State& state) {
  Outcome o;
  for (auto _ : state) {
    o = RunViaBatch();
    state.SetIterationTime(std::max(1e-9, o.wall_ms / 1000.0));
  }
  Record(state, "RunBatch", o);
}

void BM_ServiceStreamed(benchmark::State& state) {
  Outcome o;
  for (auto _ : state) {
    o = RunViaService(/*enable_cache=*/false);
    state.SetIterationTime(std::max(1e-9, o.wall_ms / 1000.0));
  }
  Record(state, "Service (cache off)", o);
}

void BM_ServiceCached(benchmark::State& state) {
  Outcome cold;
  Outcome warm;
  for (auto _ : state) {
    cold = RunViaService(/*enable_cache=*/false);
    warm = RunViaService(/*enable_cache=*/true);
    state.SetIterationTime(std::max(1e-9, warm.wall_ms / 1000.0));
  }
  state.counters["filter_speedup"] =
      warm.sum_filter_ms > 0 ? cold.sum_filter_ms / warm.sum_filter_ms : 0;
  Record(state, "Service (cache on)", warm);
}

void BM_ServiceFaulted(benchmark::State& state) {
  Outcome o;
  for (auto _ : state) {
    o = RunViaFaultedService(FaultRateSlot());
    state.SetIterationTime(std::max(1e-9, o.wall_ms / 1000.0));
  }
  // RunViaFaultedService records its own JSON entry (with the availability
  // and retry-overhead extras); only the table row is added here.
  state.counters["qps"] = o.qps;
  Table().AddRow({"Service (faults)", TablePrinter::FormatMs(o.wall_ms),
                  TablePrinter::FormatCount(static_cast<uint64_t>(o.qps)),
                  std::to_string(o.ok), TablePrinter::FormatMs(o.sum_filter_ms),
                  TablePrinter::FormatMs(o.p50_ms),
                  TablePrinter::FormatMs(o.p99_ms), "-"});
}

void BM_ServicePaged(benchmark::State& state) {
  Outcome o;
  for (auto _ : state) {
    o = RunViaPagedService(static_cast<size_t>(PageBudgetSlot()));
    state.SetIterationTime(std::max(1e-9, o.wall_ms / 1000.0));
  }
  // RunViaPagedService records its own JSON entry (with the paging
  // extras); only the table row is added here.
  state.counters["qps"] = o.qps;
  Table().AddRow({"Service (paged)", TablePrinter::FormatMs(o.wall_ms),
                  TablePrinter::FormatCount(static_cast<uint64_t>(o.qps)),
                  std::to_string(o.ok), TablePrinter::FormatMs(o.sum_filter_ms),
                  TablePrinter::FormatMs(o.p50_ms),
                  TablePrinter::FormatMs(o.p99_ms), "-"});
}

void RegisterAll() {
  for (auto [name, fn] :
       {std::pair{"service_throughput/run_batch", &BM_RunBatch},
        std::pair{"service_throughput/service_stream", &BM_ServiceStreamed},
        std::pair{"service_throughput/service_cached", &BM_ServiceCached}}) {
    benchmark::RegisterBenchmark(name, fn)
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  if (FaultRateSlot() > 0) {
    benchmark::RegisterBenchmark("service_throughput/service_faulted",
                                 &BM_ServiceFaulted)
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  if (PageBudgetSlot() >= 0) {
    benchmark::RegisterBenchmark("service_throughput/service_paged",
                                 &BM_ServicePaged)
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace gsi::bench

int main(int argc, char** argv) {
  // Peel off --fault-rate before google-benchmark (via BenchMain) sees it.
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--fault-rate" && i + 1 < argc) {
      gsi::bench::FaultRateSlot() = std::atof(argv[++i]);
    } else if (a.rfind("--fault-rate=", 0) == 0) {
      gsi::bench::FaultRateSlot() = std::atof(a.substr(13).c_str());
    } else if (a == "--page-budget" && i + 1 < argc) {
      gsi::bench::PageBudgetSlot() = std::atoll(argv[++i]);
    } else if (a.rfind("--page-budget=", 0) == 0) {
      gsi::bench::PageBudgetSlot() = std::atoll(a.substr(14).c_str());
    } else {
      args.push_back(argv[i]);
    }
  }
  GSI_CHECK_MSG(
      gsi::bench::FaultRateSlot() >= 0 && gsi::bench::FaultRateSlot() <= 1,
      "--fault-rate must be in [0, 1]");
  gsi::bench::RegisterAll();
  return gsi::bench::BenchMain(static_cast<int>(args.size()), args.data(),
                               {&gsi::bench::Table()});
}
