#include "bench_common.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <thread>

#include "util/check.h"

namespace gsi::bench {
namespace {

double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : def;
}

size_t EnvSize(const char* name, size_t def) {
  const char* v = std::getenv(name);
  return v ? static_cast<size_t>(std::atoll(v)) : def;
}

}  // namespace

const BenchEnv& Env() {
  static const BenchEnv env = [] {
    BenchEnv e;
    e.scale = EnvDouble("GSI_BENCH_SCALE", 6.0);
    e.queries = EnvSize("GSI_BENCH_QUERIES", 5);
    e.query_vertices = EnvSize("GSI_BENCH_QSIZE", 8);
    size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
    e.threads = EnvSize("GSI_BENCH_THREADS", std::min<size_t>(4, hw));
    return e;
  }();
  return env;
}

const Dataset& GetDataset(const std::string& name) {
  static auto& cache = *new std::map<std::string, Dataset>();
  auto it = cache.find(name);
  if (it == cache.end()) {
    Result<Dataset> d = MakeDataset(name, Env().scale);
    GSI_CHECK_MSG(d.ok(), name.c_str());
    std::fprintf(stderr, "[bench] dataset %s: %s\n", name.c_str(),
                 d->graph.Summary().c_str());
    it = cache.emplace(name, std::move(d.value())).first;
  }
  return it->second;
}

const std::vector<Graph>& GetQueries(const std::string& dataset_name,
                                     size_t num_vertices, size_t num_edges,
                                     size_t count) {
  using Key = std::tuple<std::string, size_t, size_t, size_t>;
  static auto& cache = *new std::map<Key, std::vector<Graph>>();
  Key key{dataset_name, num_vertices, num_edges, count};
  auto it = cache.find(key);
  if (it == cache.end()) {
    const Dataset& d = GetDataset(dataset_name);
    QueryGenConfig qc;
    qc.num_vertices = num_vertices;
    qc.num_edges = num_edges;
    std::vector<Graph> qs = GenerateQuerySet(d.graph, qc, count,
                                             /*seed=*/4242);
    GSI_CHECK_MSG(!qs.empty(), "query generation produced nothing");
    it = cache.emplace(key, std::move(qs)).first;
  }
  return it->second;
}

Aggregate AggregateBatch(const BatchResult& batch) {
  Aggregate agg;
  agg.failed = batch.stats.failed;
  for (const Result<QueryResult>& r : batch.per_query) {
    if (r.ok()) AccumulateResult(agg, r.value());
  }
  return agg;
}

Aggregate RunGsi(const std::string& dataset_name, const GsiOptions& options,
                 const std::vector<Graph>& queries) {
  GsiMatcher matcher(GetDataset(dataset_name).graph, options);
  if (!queries.empty()) {
    // The extra traced run is invisible to the measurement: QueryResult
    // stats are per-query deltas, so only this capture carries the tracer.
    MaybeTraceQuery("gsi", [&](const obs::TraceContext& ctx) {
      (void)matcher.Find(queries.front(), ctx);
    });
  }
  return RunQueries(matcher, queries);
}

Aggregate RunGsiBatch(const Graph& g, const GsiOptions& options,
                      const std::vector<Graph>& queries) {
  QueryEngine engine(g, options);
  if (!queries.empty()) {
    MaybeTraceQuery("gsi_batch", [&](const obs::TraceContext& ctx) {
      (void)engine.Execute({.query = &queries.front(), .trace = ctx});
    });
  }
  BatchOptions bo;
  bo.num_threads = static_cast<int>(Env().threads);
  return AggregateBatch(engine.RunBatch(queries, bo));
}

std::vector<size_t> EnvCounts(const char* name, const char* def) {
  auto parse = [](const char* text) {
    std::vector<size_t> out;
    std::stringstream ss(text);
    size_t v = 0;
    while (ss >> v) {
      if (v > 0) out.push_back(v);
    }
    return out;
  };
  const char* env = std::getenv(name);
  std::vector<size_t> counts = parse(env != nullptr ? env : def);
  return counts.empty() ? parse(def) : counts;
}

const QueryEngine& EnronEngine() {
  static auto& engine =
      *new QueryEngine(GetDataset("enron").graph, GsiOptOptions());
  return engine;
}

const Graph& HeavyQuery() {
  static auto& query = *new Graph([] {
    const std::vector<Graph>& all =
        GetQueries("enron", Env().query_vertices, 0, Env().queries);
    const Graph* heaviest = nullptr;
    double worst_ms = -1;
    for (const Graph& q : all) {
      Result<QueryResult> r = EnronEngine().Execute({.query = &q});
      if (!r.ok()) continue;
      if (r->stats.total_ms > worst_ms) {
        worst_ms = r->stats.total_ms;
        heaviest = &q;
      }
    }
    GSI_CHECK_MSG(heaviest != nullptr, "no query executed successfully");
    std::fprintf(stderr, "[bench] heavy query: %s, %.2f ms single-device\n",
                 heaviest->Summary().c_str(), worst_ms);
    return *heaviest;
  }());
  return query;
}

TableCollector::TableCollector(std::string title,
                               std::vector<std::string> header)
    : title_(std::move(title)), header_(std::move(header)) {}

void TableCollector::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TableCollector::PrintAndClear() {
  TablePrinter p(header_);
  for (auto& r : rows_) p.AddRow(std::move(r));
  std::printf("\n");
  p.Print(title_);
  rows_.clear();
}

namespace {

std::vector<JsonRecord>& JsonRecords() {
  static auto& records = *new std::vector<JsonRecord>();
  return records;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// The shortest decimal that reads back as exactly `v`, so a record's
/// simulated counts and times compare exactly across runs.
std::string JsonNumber(double v) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void WriteJsonReport(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot open --json path %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  const std::vector<JsonRecord>& records = JsonRecords();
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    std::fprintf(f,
                 "  {\"bench\": \"%s\", \"config\": \"%s\", \"qps\": %s, "
                 "\"p50\": %s, \"p99\": %s",
                 JsonEscape(r.bench).c_str(), JsonEscape(r.config).c_str(),
                 JsonNumber(r.qps).c_str(), JsonNumber(r.p50_ms).c_str(),
                 JsonNumber(r.p99_ms).c_str());
    for (const auto& [key, value] : r.extras) {
      std::fprintf(f, ", \"%s\": %s", JsonEscape(key).c_str(),
                   JsonNumber(value).c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %zu json records to %s\n",
               records.size(), path.c_str());
}

std::string& TracePathSlot() {
  static auto& path = *new std::string();
  return path;
}

}  // namespace

void RecordJson(JsonRecord record) {
  JsonRecords().push_back(std::move(record));
}

bool TraceWanted() { return !TracePathSlot().empty(); }

namespace {

void WriteTraceFile(const std::string& label, const obs::Tracer& tracer) {
  const std::string path = TracePathSlot();
  TracePathSlot().clear();  // First capture wins.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot open --trace-out path %s\n",
                 path.c_str());
    return;
  }
  const std::string json = tracer.ToChromeJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s trace (%zu spans) to %s\n",
               label.c_str(), tracer.Snapshot().size(), path.c_str());
}

}  // namespace

void MaybeTraceQuery(
    const std::string& label,
    const std::function<void(const obs::TraceContext&)>& fn) {
  if (!TraceWanted()) return;
  obs::Tracer tracer;
  fn(obs::TraceContext{&tracer, /*parent=*/-1, obs::kHostDevice});
  WriteTraceFile(label, tracer);
}

void MaybeTraceQuery(
    const std::string& label,
    const std::function<std::shared_ptr<const obs::Tracer>()>& fn) {
  if (!TraceWanted()) return;
  std::shared_ptr<const obs::Tracer> tracer = fn();
  if (tracer == nullptr) return;
  WriteTraceFile(label, *tracer);
}

int BenchMain(int argc, char** argv,
              const std::vector<TableCollector*>& tables) {
  // Peel off --json/--trace-out before google-benchmark sees (and rejects)
  // them.
  std::string json_path;
  std::vector<char*> args;
  args.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a == "--trace-out" && i + 1 < argc) {
      TracePathSlot() = argv[++i];
    } else if (a.rfind("--trace-out=", 0) == 0) {
      TracePathSlot() = a.substr(12);
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  for (TableCollector* t : tables) t->PrintAndClear();
  if (!json_path.empty()) WriteJsonReport(json_path);
  return 0;
}

}  // namespace gsi::bench
