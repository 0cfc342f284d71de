// The repository benchmark: drives QueryService from outside the way a
// caller does (Submit -> FetchPage until done -> CloseCursor) from a closed
// loop of client threads, checks every served result against
// QueryEngine::Execute, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics of a traced run plus a layer replay (--trace 1).
// The last line of stdout is one JSON object; everything before it is a
// human-readable report. README.md in this directory documents the
// workloads, the metrics and the layer each one belongs to.
//
//   gsi_perfbench --workload cold_fanout --seed 1 --seconds 15 --trace 0

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "graph/datasets.h"
#include "graph/graph_io.h"
#include "graph/query_generator.h"
#include "gsi/query_engine.h"
#include "layers.h"
#include "service/filter_cache.h"
#include "service/query_service.h"
#include "util/percentile.h"

namespace gsi::perfbench {

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr size_t kQueryVertices = 8;
/// Threads of the screening pass (before set-up, outside every window).
constexpr int kScreenThreads = 4;

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool toy) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  if (name == "cold_fanout") {
    w->dataset = "gowalla";
    w->scale = toy ? 0.3 : 2.0;
    w->num_devices = kWorkers * 2 + kClients;
    w->max_shards_per_query = 2;
    w->shard_min_candidates = 32;
    w->filter_cache_bytes = toy ? (16u << 10) : (512u << 10);
    w->pass_mix = toy ? ClassMix{6, 2, 0, 0} : ClassMix{276, 32, 8, 4};
    w->warmup_mix = {toy ? 2u : 8u, 0, 0, 0};
    w->setup_repeats = toy ? 1 : 5;
    w->replay_queries = toy ? 2 : 12;
  } else if (name == "partitioned_halo") {
    w->dataset = "enron";
    w->scale = toy ? 0.5 : 6.0;
    w->num_devices = 4;
    w->partitioned = true;
    w->replicas = 2;
    w->filter_cache_bytes = toy ? (16u << 10) : (1u << 20);
    w->halo_budget_bytes = toy ? (4u << 10) : (32u << 10);
    w->page_budget_bytes = 4096;
    w->pass_mix = toy ? ClassMix{6, 2, 0, 0} : ClassMix{156, 26, 10, 8};
    w->warmup_mix = {toy ? 2u : 24u, 0, 0, 0};
    w->setup_repeats = toy ? 1 : 3;
    w->replay_queries = toy ? 2 : 8;
  } else {
    return nullptr;
  }
  return w;
}

GsiOptions ScreenGsiOptions() {
  GsiOptions o = GsiOptOptions();
  o.join.max_rows = kServingRowCap;
  return o;
}

void Digest::Update(const VertexId* words, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = words[i];
    a_ = (a_ ^ w) * 0x100000001b3ull;
    b_ += w * 0xbf58476d1ce4e5b9ull;
    b_ = ((b_ << 27) | (b_ >> 37)) * 0x94d049bb133111ebull;
  }
}

double Percentile(std::vector<double>& values, double p) {
  std::sort(values.begin(), values.end());
  return PercentileOfSorted(values, p);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  bool toy = false;
  bool corrupt_page = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--toy") {
      a.toy = true;
      continue;
    }
    if (k == "--corrupt-page") {
      a.corrupt_page = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

ResultSummary Summarize(const Result<QueryResult>& r) {
  ResultSummary s;
  if (!r.ok()) {
    s.code = r.status().code();
    return s;
  }
  s.rows = r->table.rows();
  s.cols = r->table.cols();
  s.column_to_query = r->column_to_query;
  s.digest.Update(r->table.data().data(), s.rows * s.cols);
  return s;
}

/// The seed's query population. Distinct random-walk shapes are generated
/// in order and admitted when QueryEngine::Execute under ScreenGsiOptions()
/// answers them. That run is also the reference of the output check: an
/// admitted query never reaches either row cap, so its table is the one
/// Execute returns under GsiOptOptions().
///
/// Result sizes are heavy-tailed: a 16K-64K-row answer costs the service
/// tens of times a small one (join, page-out, memory), and how many of
/// them a seed draws varies by a factor of two or more. So the pass is a
/// fixed mix: the screen admits shapes until each result-size class
/// (kClassRows) holds its quota and skips the surplus. The shapes still
/// come from the seed, and the mix follows the measured shares of the
/// workload's dataset (README.md).
struct Population {
  std::vector<Graph> queries;
  std::vector<ResultSummary> reference;
  /// The first few shapes the screen rejected (the layer replay times
  /// their failure path).
  std::vector<Graph> rejected;
  size_t generated = 0;
  size_t admitted = 0;
};

Population Screen(const Graph& data, const ClassMix& mix, uint64_t seed,
                  std::unordered_set<std::string>& taken) {
  const QueryEngine engine(data, ScreenGsiOptions());
  QueryGenConfig qc;
  qc.num_vertices = kQueryVertices;
  ClassMix need = mix;
  size_t wanted = 0;
  for (size_t n : mix) wanted += n;
  Population pop;
  for (uint64_t round = 0; pop.queries.size() < wanted && round < 64;
       ++round) {
    // Shapes in generation order, minus repeats of an earlier shape.
    std::vector<Graph> batch;
    for (Graph& q : GenerateQuerySet(
             data, qc, std::max<size_t>(wanted - pop.queries.size(), 64),
             seed * 1000003ull + round * 7919ull)) {
      if (taken.insert(FilterCache::KeyOf(q)).second) {
        batch.push_back(std::move(q));
      }
    }
    std::vector<Result<QueryResult>> results;
    for (size_t i = 0; i < batch.size(); ++i) {
      results.emplace_back(Status::Internal("not run"));
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kScreenThreads; ++t) {
      threads.emplace_back([&] {
        for (size_t i = next++; i < batch.size(); i = next++) {
          QueryEngine::ExecRequest req;
          req.query = &batch[i];
          results[i] = engine.Execute(req);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < batch.size() && pop.queries.size() < wanted;
         ++i) {
      ++pop.generated;
      if (!results[i].ok()) {
        if (pop.rejected.size() < 2) {
          pop.rejected.push_back(std::move(batch[i]));
        }
        continue;
      }
      ++pop.admitted;
      size_t c = 0;
      while (results[i]->table.rows() > kClassRows[c]) ++c;
      if (need[c] == 0) continue;
      --need[c];
      pop.queries.push_back(std::move(batch[i]));
      pop.reference.push_back(Summarize(results[i]));
    }
  }
  // Rare classes fill last; interleave them over the pass.
  std::mt19937_64 rng(seed);
  for (size_t i = pop.queries.size(); i > 1; --i) {
    const size_t j = rng() % i;
    std::swap(pop.queries[i - 1], pop.queries[j]);
    std::swap(pop.reference[i - 1], pop.reference[j]);
  }
  return pop;
}

/// Text form of a population, as the screening child sends it back: a
/// `g <generated> <admitted> <queries> <rejected>` line; per query its
/// graph (GraphToText) and an `r <code> <rows> <cols> <digest a> <digest b>
/// <column_to_query...>` line; then each rejected graph.
std::string PopulationToText(const Population& p) {
  std::ostringstream out;
  out << "g " << p.generated << " " << p.admitted << " " << p.queries.size()
      << " " << p.rejected.size() << "\n";
  for (size_t i = 0; i < p.queries.size(); ++i) {
    const ResultSummary& r = p.reference[i];
    out << GraphToText(p.queries[i]) << "r " << static_cast<int>(r.code)
        << " " << r.rows << " " << r.cols << " " << r.digest.a() << " "
        << r.digest.b();
    for (VertexId v : r.column_to_query) out << " " << v;
    out << "\n";
  }
  for (const Graph& g : p.rejected) out << GraphToText(g);
  return out.str();
}

/// Reads one GraphToText block: its `t <n> <m>` header and n + m lines.
bool ReadGraph(std::istream& in, Graph& g) {
  std::string line;
  if (!std::getline(in, line)) return false;
  std::istringstream header(line);
  std::string tag;
  size_t n = 0;
  size_t m = 0;
  if (!(header >> tag >> n >> m) || tag != "t") return false;
  std::string text = line + "\n";
  for (size_t i = 0; i < n + m; ++i) {
    if (!std::getline(in, line)) return false;
    text += line + "\n";
  }
  Result<Graph> parsed = ParseGraphText(text);
  if (!parsed.ok()) return false;
  g = std::move(parsed.value());
  return true;
}

bool PopulationFromText(std::istream& in, Population& p) {
  std::string tag;
  size_t queries = 0;
  size_t rejected = 0;
  if (!(in >> tag >> p.generated >> p.admitted >> queries >> rejected) ||
      tag != "g") {
    return false;
  }
  in.ignore(1);
  for (size_t i = 0; i < queries; ++i) {
    Graph g;
    ResultSummary r;
    int code = 0;
    uint64_t a = 0;
    uint64_t b = 0;
    if (!ReadGraph(in, g) ||
        !(in >> tag >> code >> r.rows >> r.cols >> a >> b) || tag != "r") {
      return false;
    }
    r.code = static_cast<StatusCode>(code);
    r.digest = Digest(a, b);
    r.column_to_query.resize(r.cols);
    for (VertexId& v : r.column_to_query) in >> v;
    in.ignore(1);
    p.queries.push_back(std::move(g));
    p.reference.push_back(std::move(r));
  }
  for (size_t i = 0; i < rejected; ++i) {
    Graph g;
    if (!ReadGraph(in, g)) return false;
    p.rejected.push_back(std::move(g));
  }
  return static_cast<bool>(in);
}

/// Runs both screens (pass, then warm-up) in a child process and reads
/// the populations back. The screen's joins leave allocator state behind
/// that malloc_trim cannot return: 0-22 MB of RSS depending on the seed,
/// which would sit under every peak_rss_mb reading. Sets the child's peak
/// RSS in `child_peak_mb`.
bool ScreenInChild(const Graph& data, const Workload& w, uint64_t seed,
                   Population& pop, Population& warmup,
                   double& child_peak_mb) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    std::unordered_set<std::string> taken;
    const std::string text =
        PopulationToText(Screen(data, w.pass_mix, seed, taken)) +
        PopulationToText(
            Screen(data, w.warmup_mix, seed ^ 0x5eed5eedull, taken));
    for (size_t off = 0; off < text.size();) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) _exit(1);
      off += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n > 0) text.append(buf, static_cast<size_t>(n));
    if (n < 0 && errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return false;
  }
  child_peak_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  std::istringstream in(text);
  return PopulationFromText(in, pop) && PopulationFromText(in, warmup);
}

/// Bytes of candidate lists the filter cache holds for `queries` (its
/// working set over one pass), from the filter stage on private devices.
size_t CandidateBytes(const Graph& data, const std::vector<Graph>& queries) {
  const QueryEngine engine(data, GsiOptOptions());
  std::atomic<size_t> total{0};
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kScreenThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < queries.size(); i = next++) {
        gpusim::Device dev(engine.options().device);
        QueryStats stats;
        Result<FilterResult> f =
            RunFilterStage(dev, engine.filter(), queries[i], stats);
        if (f.ok()) total += FilterCache::MakeEntry(*f)->bytes;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return total;
}

ServiceOptions ServiceOptionsFor(const Workload& w) {
  ServiceOptions so;
  so.num_workers = kWorkers;
  so.num_devices = w.num_devices;
  so.max_shards_per_query = w.max_shards_per_query;
  so.shard_min_candidates = w.shard_min_candidates;
  so.overload = OverloadPolicy::kBlock;
  so.filter_cache_bytes = w.filter_cache_bytes;
  so.partition_data_graph = w.partitioned;
  so.partition_replicas = w.replicas;
  so.halo_budget_bytes = w.halo_budget_bytes;
  so.page_budget_bytes = w.page_budget_bytes;
  return so;
}

/// Resets the process's RSS high-water mark to its current RSS. Returns
/// false when the kernel refused the reset.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return !clear.fail();
}

/// Peak RSS (MB) since the last ResetPeakRss: VmHWM of /proc/self/status.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

struct LoopOptions {
  /// > 0: cycle the queries until this many seconds pass, then finish the
  /// pass in progress; 0: serve each query once.
  double seconds = 0;
  bool trace = false;
  bool corrupt_page = false;
  obs::Tracer* bench_tracer = nullptr;
  const obs::Clock* bench_clock = nullptr;
  /// Traced runs: sampled after every first page (cursor residency).
  std::atomic<size_t>* peak_cursor_bytes = nullptr;
  /// When set, the RSS high-water mark is reset as each pass starts, and
  /// each pass's peak RSS (MB) is appended here.
  std::vector<double>* pass_peak_rss_mb = nullptr;
};

struct LoopResult {
  std::vector<Outcome> outcomes;
  double elapsed_s = 0;
};

/// Serves one query the way a caller does and records what came back.
Outcome ServeOne(QueryService& service, const Graph& query, size_t index,
                 size_t request_id, const LoopOptions& opt,
                 std::atomic<bool>& corrupted) {
  Outcome o;
  o.query = index;
  obs::Tracer* tr = opt.bench_tracer;
  const obs::Clock* clock = opt.bench_clock;
  int32_t root = -1;
  if (tr != nullptr) {
    root = tr->OpenSpan("request", obs::kHostDevice, clock->NowNanos(), -1);
    tr->AddAttr(root, "request_id", std::to_string(request_id));
    tr->AddAttr(root, "query", std::to_string(index));
  }
  auto stamp = [&]() -> uint64_t { return tr ? clock->NowNanos() : 0; };
  auto span = [&](const char* name, uint64_t start_ns) {
    if (tr != nullptr) {
      tr->RecordSpan(name, obs::kHostDevice, start_ns, clock->NowNanos(),
                     root);
    }
  };

  const double t0 = NowMs();
  SubmitOptions submit;
  submit.trace = opt.trace;
  uint64_t s0 = stamp();
  Result<QueryTicket> ticket = service.Submit(query, submit);
  o.submit_us = (NowMs() - t0) * 1000.0;
  span("submit", s0);
  if (!ticket.ok()) {
    o.result.code = ticket.status().code();
    o.latency_ms = NowMs() - t0;
    if (tr != nullptr) tr->CloseSpan(root, clock->NowNanos());
    return o;
  }
  for (;;) {
    const double f0 = NowMs();
    s0 = stamp();
    Result<ResultPage> page = service.FetchPage(*ticket);
    if (o.pages > 0 && opt.trace) {
      o.later_fetch_us.push_back((NowMs() - f0) * 1000.0);
    }
    span("fetch_page", s0);
    if (!page.ok()) {
      o.result.code = page.status().code();
      break;
    }
    ResultPage& p = page.value();
    if (o.pages == 0) {
      o.result.cols = p.cols;
      o.result.column_to_query = p.column_to_query;
      if (opt.peak_cursor_bytes != nullptr) {
        const size_t resident = service.stats().cursor_resident_bytes;
        size_t seen = opt.peak_cursor_bytes->load();
        while (resident > seen &&
               !opt.peak_cursor_bytes->compare_exchange_weak(seen, resident)) {
        }
      }
    }
    if (p.row_begin != o.result.rows || p.page_index != o.pages ||
        p.cols != o.result.cols || p.rows.size() != p.num_rows * p.cols) {
      o.out_of_order = true;
    }
    if (opt.corrupt_page && p.num_rows > 0 && !corrupted.exchange(true)) {
      p.rows[0] ^= 1;  // the self-test's deliberately corrupted page
    }
    o.result.digest.Update(p.rows.data(), p.num_rows * p.cols);
    o.result.rows += p.num_rows;
    ++o.pages;
    if (p.done) break;
  }
  o.latency_ms = NowMs() - t0;
  s0 = stamp();
  (void)service.CloseCursor(*ticket);
  span("close", s0);
  if (opt.trace) o.service_trace = service.GetTrace(*ticket);
  if (tr != nullptr) tr->CloseSpan(root, clock->NowNanos());
  return o;
}

/// The closed loop: kClients threads, each submitting its next query only
/// after the previous one's last page arrived. A timed loop stops on a
/// whole pass over `queries`, so every run serves each query equally often
/// and the simulated totals cover the same multiset.
LoopResult RunLoop(QueryService& service, const std::vector<Graph>& queries,
                   const LoopOptions& opt) {
  LoopResult out;
  std::mutex mu;
  size_t next = 0;
  size_t stop = opt.seconds > 0 ? SIZE_MAX : queries.size();
  std::atomic<bool> corrupted{false};
  const double start = NowMs();
  const double deadline = start + opt.seconds * 1000.0;
  auto claim = [&]() -> size_t {
    std::lock_guard<std::mutex> lock(mu);
    if (stop == SIZE_MAX && NowMs() >= deadline) {
      stop = (next + queries.size() - 1) / queries.size() * queries.size();
    }
    if (opt.pass_peak_rss_mb != nullptr && next < stop &&
        next % queries.size() == 0) {
      if (next > 0) opt.pass_peak_rss_mb->push_back(PeakRssMb());
      ResetPeakRss();
    }
    return next < stop ? next++ : SIZE_MAX;
  };
  std::vector<std::vector<Outcome>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = claim(); i != SIZE_MAX; i = claim()) {
        const size_t q = i % queries.size();
        per_client[c].push_back(
            ServeOne(service, queries[q], q, i, opt, corrupted));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  out.elapsed_s = (NowMs() - start) / 1000.0;
  if (opt.pass_peak_rss_mb != nullptr) {
    opt.pass_peak_rss_mb->push_back(PeakRssMb());
  }
  for (std::vector<Outcome>& v : per_client) {
    for (Outcome& o : v) out.outcomes.push_back(std::move(o));
  }
  return out;
}

/// Counters read from outside the service: its stats() snapshot plus the
/// gsi_device_* families summed over the pool and the gsi_halo_cache_*
/// families (absent when the halo cache is off).
struct Snapshot {
  ServiceStats stats;
  std::map<std::string, double> sums;  // family name -> sum over labels

  double Sum(const std::string& family) const {
    auto it = sums.find(family);
    return it == sums.end() ? 0 : it->second;
  }
};

Snapshot TakeSnapshot(QueryService& service) {
  Snapshot s;
  s.stats = service.stats();
  // MetricsDebugString lines read `name{labels} = value`.
  const std::string text = service.MetricsDebugString();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t eq = line.find(" = ");
    if (eq == std::string::npos) continue;
    const std::string family = line.substr(0, std::min(eq, line.find('{')));
    if (family.rfind("gsi_device_", 0) == 0 ||
        family.rfind("gsi_halo_cache_", 0) == 0) {
      s.sums[family] += std::strtod(line.c_str() + eq + 3, nullptr);
    }
  }
  return s;
}

/// Process CPU seconds (user + system) since the process started.
double CpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// One timed window and the counters around it.
struct Window {
  LoopResult loop;
  Snapshot before;
  Snapshot after;
  size_t ok = 0;
  double cpu_s = 0;  ///< process CPU time spent during the window

  double Delta(const std::string& family) const {
    return after.Sum(family) - before.Sum(family);
  }
  double Qps() const {
    return loop.elapsed_s > 0 ? static_cast<double>(ok) / loop.elapsed_s : 0;
  }
};

Window TimedWindow(QueryService& service, const std::vector<Graph>& stream,
                   const LoopOptions& opt) {
  Window win;
  win.before = TakeSnapshot(service);
  const double cpu0 = CpuSeconds();
  win.loop = RunLoop(service, stream, opt);
  win.cpu_s = CpuSeconds() - cpu0;
  win.after = TakeSnapshot(service);
  for (const Outcome& o : win.loop.outcomes) {
    if (o.result.code == StatusCode::kOk) ++win.ok;
  }
  return win;
}

/// Output check: every served result must equal its reference summary.
/// Returns the number of mismatches.
size_t CheckOutcomes(const std::vector<Outcome>& outcomes,
                     const std::vector<ResultSummary>& reference) {
  size_t bad = 0;
  for (const Outcome& o : outcomes) {
    if (!o.out_of_order && o.result == reference[o.query]) continue;
    if (bad < 5) {
      std::printf("# MISMATCH query %zu: served status %d, %zu rows; "
                  "reference status %d, %zu rows%s\n",
                  o.query, static_cast<int>(o.result.code), o.result.rows,
                  static_cast<int>(reference[o.query].code),
                  reference[o.query].rows,
                  o.out_of_order ? "; pages out of order" : "");
    }
    ++bad;
  }
  return bad;
}

/// The gated end-to-end metrics (BENCHMARK.json): set-up time, simulated
/// time, outcomes and memory. Host time of the timed window is in
/// HostMetrics: it follows the shared machine's speed too far to be gated.
std::vector<Metric> EndToEndMetrics(const Window& win, double setup_s,
                                    double peak_rss_mb, double clock_ghz) {
  const ServiceStats& s = win.after.stats;
  const double ok = static_cast<double>(win.ok);
  const double attempted = static_cast<double>(win.loop.outcomes.size());
  const double device_ms =
      win.Delta("gsi_device_simulated_cycles_total") / (clock_ghz * 1e6);
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s", 0});
  m.push_back({"sim_latency_ms.p50", s.p50_simulated_ms, "ms",
               std::min<size_t>(s.completed_ok, 4096)});
  m.push_back(
      {"sim_device_ms_per_query", ok > 0 ? device_ms / ok : 0, "ms", 0});
  m.push_back({"ok_rate", attempted > 0 ? ok / attempted : 0, "ratio", 0});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB", 0});
  return m;
}

/// Host time of the timed window: wall-clock throughput and latency (from
/// the Submit call until the FetchPage that returns done, OK queries
/// only), and process CPU time per completed query.
std::vector<Metric> HostMetrics(const Window& win) {
  std::vector<double> latency;
  for (const Outcome& o : win.loop.outcomes) {
    if (o.result.code == StatusCode::kOk) latency.push_back(o.latency_ms);
  }
  const size_t n = latency.size();
  std::vector<Metric> m;
  m.push_back({"e2e.qps", win.Qps(), "1/s", 0});
  m.push_back({"e2e.latency_ms.p50", Percentile(latency, 0.5), "ms", n});
  m.push_back({"e2e.latency_ms.p75", Percentile(latency, 0.75), "ms", n});
  m.push_back({"e2e.cpu_ms_per_query",
               win.ok > 0 ? win.cpu_s * 1000.0 / static_cast<double>(win.ok)
                          : 0,
               "ms", 0});
  return m;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintLines(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-46s %16.6f %-6s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf(" (n=%zu)", m.samples);
    std::printf("\n");
  }
}

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 size_t attempted, size_t failed) {
  PrintLines(metrics);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.toy);
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wl;
  Result<Dataset> ds = MakeDataset(w.dataset, w.scale);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset: %s\n", ds.status().ToString().c_str());
    return 2;
  }
  const Graph& data = ds->graph;
  std::printf("# workload %s, seed %llu: %s x%.1f %s\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), w.dataset.c_str(),
              w.scale, data.Summary().c_str());

  // Inputs from the seed (not part of setup_s).
  Population pop;
  Population warmup;
  double screen_peak_mb = 0;
  if (!ScreenInChild(data, w, args.seed, pop, warmup, screen_peak_mb)) {
    std::fprintf(stderr, "the screening process failed\n");
    return 2;
  }
  if (pop.queries.empty()) {
    std::fprintf(stderr, "no query passed the screen\n");
    return 2;
  }
  size_t wanted = 0;
  for (size_t n : w.pass_mix) wanted += n;
  if (pop.queries.size() < wanted) {
    std::printf("# warning: the screen filled only %zu of the pass's %zu "
                "slots\n",
                pop.queries.size(), wanted);
  }
  const size_t generated = pop.generated + warmup.generated;
  const size_t rejected = generated - pop.admitted - warmup.admitted;
  std::printf("# population: a pass of %zu shapes (%zu/%zu/%zu/%zu with up "
              "to %zu/%zu/%zu/%zu result rows), %zu warm-up shapes; the "
              "screen at %zu rows rejected %zu of %zu generated shapes "
              "(%.1f%%)\n",
              pop.queries.size(), w.pass_mix[0], w.pass_mix[1],
              w.pass_mix[2], w.pass_mix[3], kClassRows[0], kClassRows[1],
              kClassRows[2], kClassRows[3], warmup.queries.size(),
              kServingRowCap, rejected, generated,
              100.0 * static_cast<double>(rejected) /
                  static_cast<double>(generated));
  ResetPeakRss();

  // Set-up: QueryService construction, several times; the last one serves.
  const GsiOptions go = GsiOptOptions();
  const ServiceOptions so = ServiceOptionsFor(w);
  std::vector<double> setup_times;
  std::unique_ptr<QueryService> service;
  for (int r = 0; r < w.setup_repeats; ++r) {
    service.reset();
    const double t0 = NowMs();
    service = std::make_unique<QueryService>(data, go, so);
    setup_times.push_back((NowMs() - t0) / 1000.0);
    if (!service->init_status().ok()) {
      std::fprintf(stderr, "service: %s\n",
                   service->init_status().ToString().c_str());
      return 2;
    }
  }
  const double setup_s = Percentile(setup_times, 0.5);

  // Warm-up, outside every window: disjoint shapes (allocators, halo).
  if (!warmup.queries.empty()) {
    RunLoop(*service, warmup.queries, LoopOptions{});
  }
  const double setup_peak_mb = PeakRssMb();
  const Snapshot warm = TakeSnapshot(*service);
  std::printf("# budgets: filter cache %zu B, halo cache %llu B/device, "
              "page %zu B; after warm-up the filter cache holds %zu B in %zu "
              "entries, the halo caches %.0f B over all devices\n",
              w.filter_cache_bytes,
              static_cast<unsigned long long>(w.halo_budget_bytes),
              w.page_budget_bytes, warm.stats.cache.bytes,
              warm.stats.cache.entries,
              warm.Sum("gsi_halo_cache_resident_bytes"));

  // Timed window(s).
  obs::SteadyClockSource bench_clock;
  obs::Tracer bench_tracer;
  std::atomic<size_t> peak_cursor_bytes{0};
  LoopOptions plain;
  plain.seconds = args.seconds;
  plain.corrupt_page = args.corrupt_page;
  malloc_trim(0);
  const bool rss_reset = ResetPeakRss();
  std::vector<double> pass_peaks;
  plain.pass_peak_rss_mb = &pass_peaks;
  const Window untraced = TimedWindow(*service, pop.queries, plain);
  plain.pass_peak_rss_mb = nullptr;
  std::printf("# peak RSS: screen %.1f MB, set-up and warm-up %.1f MB, timed "
              "passes",
              screen_peak_mb, setup_peak_mb);
  for (double mb : pass_peaks) std::printf(" %.1f", mb);
  std::printf(" MB%s\n",
              rss_reset ? "" : " (reset refused: process lifetime peaks)");
  const double peak_rss_mb = Percentile(pass_peaks, 0.5);
  Window traced;
  if (args.trace) {
    LoopOptions opt = plain;
    opt.trace = true;
    opt.bench_tracer = &bench_tracer;
    opt.bench_clock = &bench_clock;
    opt.peak_cursor_bytes = &peak_cursor_bytes;
    traced = TimedWindow(*service, pop.queries, opt);
  }
  service.reset();

  const size_t failed = CheckOutcomes(untraced.loop.outcomes, pop.reference) +
                        CheckOutcomes(traced.loop.outcomes, pop.reference);
  const size_t attempted =
      untraced.loop.outcomes.size() + traced.loop.outcomes.size();
  std::printf("# output check: %zu served results over %zu passes, %zu "
              "mismatches\n",
              attempted, attempted / pop.queries.size(), failed);

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::printf("# host time of the timed window (not gated):\n");
    PrintLines(HostMetrics(untraced));
    metrics = EndToEndMetrics(untraced, setup_s, peak_rss_mb,
                              go.device.clock_ghz);
  } else {
    std::printf("# filter-cache working set: %zu B of candidate lists over "
                "one pass of %zu shapes (budget %zu B)\n",
                CandidateBytes(data, pop.queries), pop.queries.size(),
                w.filter_cache_bytes);
    TracedRun in;
    in.workload = &w;
    in.data = &data;
    in.stream = &pop.queries;
    in.reference = &pop.reference;
    in.rejected = &pop.rejected;
    in.outcomes = &traced.loop.outcomes;
    in.untraced_qps = untraced.Qps();
    in.traced_qps = traced.Qps();
    in.before = traced.before.stats;
    in.after = traced.after.stats;
    in.halo_hits = traced.Delta("gsi_halo_cache_hits_total");
    in.halo_misses = traced.Delta("gsi_halo_cache_misses_total");
    in.halo_evictions = traced.Delta("gsi_halo_cache_evictions_total");
    in.halo_resident_bytes = traced.after.Sum("gsi_halo_cache_resident_bytes");
    in.gld = traced.Delta("gsi_device_global_load_transactions_total");
    in.gst = traced.Delta("gsi_device_global_store_transactions_total");
    in.remote = traced.Delta("gsi_device_remote_transactions_total");
    in.kernels = traced.Delta("gsi_device_kernel_launches_total");
    in.peak_cursor_bytes = peak_cursor_bytes.load();
    in.bench_tracer = &bench_tracer;
    metrics = HostMetrics(untraced);
    const std::vector<Metric> layers = PerLayerMetrics(in);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + w.name + "_seed" +
                               std::to_string(args.seed) + "_client.json";
      std::ofstream(path) << bench_tracer.ToChromeJson();
      std::printf("# client spans written to %s\n", path.c_str());
    }
  }
  PrintResult(metrics, failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gsi::perfbench

int main(int argc, char** argv) {
  gsi::perfbench::Args args;
  if (!gsi::perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: gsi_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--toy] [--corrupt-page] "
                 "[--trace-dir <dir>]\n");
    return 2;
  }
  return gsi::perfbench::Run(args);
}
