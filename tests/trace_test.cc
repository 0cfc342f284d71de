// obs::Tracer / obs::Clock: span-tree mechanics (nesting, attribution,
// seq assignment, branch-on-null when disabled), the Chrome trace_event
// export's structure, and the headline determinism contract — traces
// captured on the sharded, partitioned and replicated execution paths are
// byte-identical across runs because every execution-path span is timed
// by the simulated cycle clock.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "gsi/partition.h"
#include "gsi/query_engine.h"
#include "gsi/replication.h"
#include "gsi/sharded_engine.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "test_util.h"

namespace gsi {
namespace {

using obs::kHostDevice;
using obs::ManualClock;
using obs::ScopedSpan;
using obs::TraceContext;
using obs::Tracer;
using obs::TraceSpan;

const TraceSpan* FindSpan(const std::vector<TraceSpan>& spans,
                          const std::string& name) {
  for (const TraceSpan& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

size_t CountSpans(const std::vector<TraceSpan>& spans,
                  const std::string& name) {
  size_t n = 0;
  for (const TraceSpan& s : spans) n += (s.name == name);
  return n;
}

// ------------------------------------------------------------ mechanics ---

TEST(Tracer, ScopedSpansNestAndStampTheInjectedClock) {
  Tracer tracer;
  ManualClock clock(100);
  {
    ScopedSpan root(TraceContext{&tracer, -1, kHostDevice}, "root", clock);
    clock.Advance(50);
    {
      ScopedSpan child(root.context(), "child", clock, /*device=*/2);
      child.AddAttr("rows", uint64_t{7});
      clock.Advance(25);
    }
    clock.Advance(10);
  }
  std::vector<TraceSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const TraceSpan* root = FindSpan(spans, "root");
  const TraceSpan* child = FindSpan(spans, "child");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(root->device, kHostDevice);
  EXPECT_EQ(root->start_ns, 100u);
  EXPECT_EQ(root->end_ns, 185u);
  EXPECT_EQ(root->parent, -1);
  EXPECT_EQ(child->device, 2);
  EXPECT_EQ(child->start_ns, 150u);
  EXPECT_EQ(child->end_ns, 175u);
  ASSERT_EQ(child->attrs.size(), 1u);
  EXPECT_EQ(child->attrs[0].first, "rows");
  EXPECT_EQ(child->attrs[0].second, "7");
  // The child span opened on the "root" span's index.
  EXPECT_EQ(&spans[static_cast<size_t>(child->parent)], root);
}

TEST(Tracer, ThreeArgScopedSpanInheritsTheContextDevice) {
  Tracer tracer;
  ManualClock clock;
  TraceContext ctx{&tracer, -1, kHostDevice};
  { ScopedSpan span(ctx.OnDevice(3), "work", clock); }
  std::vector<TraceSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].device, 3);
}

TEST(Tracer, NullTracerIsANoOpEverywhere) {
  TraceContext off;  // default: tracer == nullptr
  EXPECT_FALSE(off.enabled());
  ManualClock clock;
  ScopedSpan span(off, "ignored", clock);
  span.AddAttr("k", "v");
  span.AddAttr("n", uint64_t{1});
  // context() of a disabled span stays disabled — the whole subtree is
  // branch-on-null.
  EXPECT_FALSE(span.context().enabled());
  ScopedSpan child(span.context(), "also-ignored", clock);
}

TEST(Tracer, SeqCountsPerDeviceTrack) {
  Tracer tracer;
  // Interleave opens across two device tracks and the host track.
  tracer.RecordSpan("a", 0, 0, 1, -1);
  tracer.RecordSpan("b", 1, 0, 1, -1);
  tracer.RecordSpan("c", 0, 2, 3, -1);
  tracer.RecordSpan("d", kHostDevice, 0, 1, -1);
  tracer.RecordSpan("e", 1, 2, 3, -1);
  std::vector<TraceSpan> spans = tracer.Snapshot();
  EXPECT_EQ(FindSpan(spans, "a")->seq, 0u);
  EXPECT_EQ(FindSpan(spans, "c")->seq, 1u);
  EXPECT_EQ(FindSpan(spans, "b")->seq, 0u);
  EXPECT_EQ(FindSpan(spans, "e")->seq, 1u);
  EXPECT_EQ(FindSpan(spans, "d")->seq, 0u);
}

TEST(Tracer, ChromeJsonStructure) {
  Tracer tracer;
  int32_t root = tracer.RecordSpan("outer", 0, 1000, 3000, -1);
  tracer.AddAttr(root, "rows", "42");
  tracer.RecordSpan("inner", 0, 1500, 2500, root);
  const std::string json = tracer.ToChromeJson();
  // Structural checks; full schema validation (every event parses, the
  // required spans exist) runs in tests/trace_example_test.py against the
  // example binary's output.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":\"42\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  const std::string tree = tracer.ToTreeString();
  EXPECT_NE(tree.find("outer"), std::string::npos);
  EXPECT_NE(tree.find("inner"), std::string::npos);
}

TEST(Clock, DeviceCycleClockFollowsSimulatedCycles) {
  gpusim::Device dev;
  obs::DeviceCycleClock clock(dev);
  const uint64_t before = clock.NowNanos();
  dev.ChargeKernelLaunch();
  EXPECT_GT(clock.NowNanos(), before);
}

// ---------------------------------------------------- execution tracing ---

struct Fixture {
  Graph data;
  Graph query;
  Fixture()
      : data(testing::RandomGraph(400, 3, 4, 3, 99)),
        query(testing::RandomQuery(data, 5, 7)) {}
};

/// One traced execution against a partitioned data graph (one partition
/// per device, `replicas` copies of each) over fresh devices under the
/// compact selection; returns the exported JSON. With `history`, untraced
/// runs of the query and of a second query go first on the same devices.
std::string TracePartitionedRun(const Fixture& f, size_t partitions,
                                size_t replicas, uint64_t halo_budget = 0,
                                bool history = false) {
  GsiOptions options = GsiOptOptions();
  options.halo_budget_bytes = halo_budget;
  QueryEngine engine(f.data, options);
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> devs;
  for (size_t i = 0; i < partitions; ++i) {
    owned.push_back(
        std::make_unique<gpusim::Device>(engine.options().device));
    devs.push_back(owned.back().get());
  }
  Result<ReplicatedGraph> rg =
      ReplicatedGraph::Build(devs, f.data, engine.options(),
                             HashVertexPartitioner(), partitions, replicas);
  GSI_CHECK(rg.ok());
  const ReplicaSelection sel = CompactSelection(*rg);
  QueryEngine::ExecRequest req{
      .query = &f.query, .replicated = &*rg, .selection = &sel};
  if (history) {
    const Graph other = testing::RandomQuery(f.data, 5, 8);
    GSI_CHECK(engine.Execute(req).ok());
    QueryEngine::ExecRequest other_req = req;
    other_req.query = &other;
    GSI_CHECK(engine.Execute(other_req).ok());
  }
  Tracer tracer;
  req.trace = TraceContext{&tracer, -1, kHostDevice};
  Result<QueryResult> r = engine.Execute(req);
  GSI_CHECK(r.ok());
  return tracer.ToChromeJson();
}

TEST(TraceDeterminism, PartitionedTraceIsByteIdenticalAcrossRuns) {
  Fixture f;
  const std::string first = TracePartitionedRun(f, 4, /*replicas=*/1);
  const std::string second = TracePartitionedRun(f, 4, /*replicas=*/1);
  // Every span on this path is timed by a device cycle clock, and the
  // exporters sort by (device, start_ns, seq) before emitting — so the
  // whole export is a pure function of the work, even though partition
  // workers append to the tracer concurrently.
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("execute_replicated"), std::string::npos);
  EXPECT_NE(first.find("result_merge"), std::string::npos);
  // R = 1 emits the same span tree as any R: one lane per device, with
  // lane_scan on the filter side, and no span per partition.
  EXPECT_NE(first.find("\"lane\""), std::string::npos);
  EXPECT_NE(first.find("\"seed_rows\""), std::string::npos);
  EXPECT_NE(first.find("lane_scan"), std::string::npos);
  EXPECT_EQ(first.find("partition_join"), std::string::npos);
  EXPECT_EQ(first.find("partition_scan"), std::string::npos);
}

TEST(TraceDeterminism, ReplicatedTraceIsByteIdenticalAcrossRuns) {
  Fixture f;
  const std::string first = TracePartitionedRun(f, 4, /*replicas=*/2);
  const std::string second = TracePartitionedRun(f, 4, /*replicas=*/2);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("execute_replicated"), std::string::npos);
  // The acceptance-criterion spans: one lane per distinct device of the
  // selection, lane_scan on the filter side.
  EXPECT_NE(first.find("\"lane\""), std::string::npos);
  EXPECT_NE(first.find("lane_scan"), std::string::npos);
}

/// Occurrences of span `name` in a Chrome JSON export.
size_t CountNamed(const std::string& json, const std::string& name) {
  const std::string key = "{\"name\":\"" + name + "\"";
  size_t n = 0;
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    ++n;
  }
  return n;
}

TEST(TraceDeterminism, HaloProbeSpanAppearsAndStaysByteIdentical) {
  Fixture f;
  // At a fixed budget the whole export — including the halo_probe spans and
  // their hit/byte attributes — is a pure function of the work: a run after
  // other queries on the same devices serializes byte for byte like a run
  // on fresh devices, because each lane's cache lives for one query. A
  // lane joins all its seeds in one run, so it records at most one
  // halo_probe.
  for (size_t replicas : {1, 2}) {
    const std::string fresh =
        TracePartitionedRun(f, 4, replicas, /*halo_budget=*/1 << 20);
    const std::string after_history = TracePartitionedRun(
        f, 4, replicas, /*halo_budget=*/1 << 20, /*history=*/true);
    EXPECT_EQ(fresh, after_history) << "R = " << replicas;
    EXPECT_NE(fresh.find("halo_probe"), std::string::npos) << replicas;
    EXPECT_NE(fresh.find("\"hits\""), std::string::npos) << replicas;
    EXPECT_GE(CountNamed(fresh, "halo_probe"), 1u) << replicas;
    EXPECT_LE(CountNamed(fresh, "halo_probe"), CountNamed(fresh, "lane"))
        << replicas;
  }
  // Without a budget the span never exists.
  EXPECT_EQ(TracePartitionedRun(f, 4, /*replicas=*/1).find("halo_probe"),
            std::string::npos);
}

/// One traced sharded execution over four fresh devices with the pool
/// ordinals 4-7, the join allowed to fan out. Returns the exported
/// JSON; `part_ordinals` receives the owning ordinal of each manifest part.
std::string TraceShardedRun(const Graph& data, const Graph& query,
                            std::vector<int>& part_ordinals) {
  QueryEngine engine(data, GsiOptOptions());
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> devs;
  for (int i = 0; i < 4; ++i) {
    owned.push_back(
        std::make_unique<gpusim::Device>(engine.options().device));
    owned.back()->set_ordinal(4 + i);
    devs.push_back(owned.back().get());
  }
  ShardOptions so;
  so.min_rows_per_shard = 1;
  Tracer tracer;
  Result<PagedQueryResult> r =
      engine.ExecutePaged({.query = &query,
                           .devices = devs,
                           .shard = so,
                           .trace = TraceContext{&tracer, -1, kHostDevice}});
  GSI_CHECK(r.ok());
  part_ordinals.clear();
  for (size_t i = 0; i < r->manifest.num_parts(); ++i) {
    part_ordinals.push_back(r->manifest.part(i).device_ordinal);
  }
  for (const TraceSpan& s : tracer.Snapshot()) {
    // Every span lands on one of the devices' own ordinal tracks.
    EXPECT_GE(s.device, 4) << s.name;
    EXPECT_LE(s.device, 7) << s.name;
  }
  return tracer.ToChromeJson();
}

TEST(TraceDeterminism, ShardedTraceIsByteIdenticalAcrossRuns) {
  Graph data = testing::RandomHubGraph(300, 3, 2, 2, 2, 5, 0.25);
  Graph query = testing::RandomQuery(data, 3, 102);
  std::vector<int> parts;
  const std::string first = TraceShardedRun(data, query, parts);
  EXPECT_NE(first.find("\"lane\""), std::string::npos);
  // The join fans out into four lanes, and part i stays on the device that
  // ran lane i.
  EXPECT_EQ(parts, (std::vector<int>{4, 5, 6, 7}));
  // Lane i always runs on device i, so neither the spans nor the part
  // owners follow host thread scheduling.
  for (int run = 1; run < 10; ++run) {
    std::vector<int> again;
    EXPECT_EQ(TraceShardedRun(data, query, again), first) << "run " << run;
    EXPECT_EQ(again, parts) << "run " << run;
  }
}

/// The value of `span`'s attribute `key` ("" when absent).
std::string AttrOf(const TraceSpan& span, const std::string& key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return v;
  }
  return "";
}

/// The partition ids of a lane span's `partitions` attribute ("0,4").
std::vector<size_t> LanePartitions(const TraceSpan& span) {
  std::vector<size_t> ids;
  std::stringstream in(AttrOf(span, "partitions"));
  for (std::string id; std::getline(in, id, ',');) {
    ids.push_back(std::stoul(id));
  }
  return ids;
}

TEST(TraceDeterminism, PartitionedTraceCoversEveryPartitionAndJoinStep) {
  Fixture f;
  QueryEngine engine(f.data, GsiOptOptions());
  // K = 4 puts one partition on each of the 4 devices; K = 8 puts two.
  for (size_t k : {4, 8}) {
    std::vector<std::unique_ptr<gpusim::Device>> owned;
    std::vector<gpusim::Device*> devs;
    for (size_t i = 0; i < 4; ++i) {
      owned.push_back(
          std::make_unique<gpusim::Device>(engine.options().device));
      devs.push_back(owned.back().get());
    }
    Result<ReplicatedGraph> pg = ReplicatedGraph::Build(
        devs, f.data, engine.options(), HashVertexPartitioner(),
        /*partitions=*/k, /*replicas=*/1);
    ASSERT_TRUE(pg.ok());
    const ReplicaSelection sel = CompactSelection(*pg);
    Tracer tracer;
    Result<QueryResult> r = engine.Execute(
        {.query = &f.query,
         .replicated = &*pg,
         .selection = &sel,
         .trace = TraceContext{&tracer, -1, kHostDevice}});
    ASSERT_TRUE(r.ok());
    std::vector<TraceSpan> spans = tracer.Snapshot();
    // At R = 1 one lane (and one lane_scan) per device, each carrying at
    // least one join_step child (the query has >= 2 vertices, so the join
    // iterates).
    EXPECT_EQ(CountSpans(spans, "lane"), 4u) << "K=" << k;
    EXPECT_EQ(CountSpans(spans, "lane_scan"), 4u) << "K=" << k;
    EXPECT_GE(CountSpans(spans, "join_step"), 4u) << "K=" << k;
    EXPECT_EQ(CountSpans(spans, "result_merge"), 1u) << "K=" << k;
    // The lanes' partitions cover 0..K-1 exactly once, on both sides, and
    // each lane sits on the track of the device holding its partitions.
    for (const char* name : {"lane", "lane_scan"}) {
      std::vector<size_t> seen(k, 0);
      for (const TraceSpan& s : spans) {
        if (s.name != name) continue;
        ASSERT_GE(s.device, 0);
        ASSERT_LT(s.device, 4);
        for (size_t p : LanePartitions(s)) {
          ASSERT_LT(p, k) << name;
          ++seen[p];
          EXPECT_EQ(pg->placement().device_of[p][0],
                    static_cast<size_t>(s.device))
              << name << " partition " << p;
        }
      }
      for (size_t p = 0; p < k; ++p) {
        EXPECT_EQ(seen[p], 1u) << name << " K=" << k << " partition " << p;
      }
    }
  }
}

/// Sum of attribute `key` over every span named `name`.
uint64_t SumAttr(const std::vector<TraceSpan>& spans, const std::string& name,
                 const std::string& key) {
  uint64_t sum = 0;
  for (const TraceSpan& s : spans) {
    if (s.name == name) sum += std::stoull(AttrOf(s, key));
  }
  return sum;
}

TEST(TraceAttrs, FilterRowsScannedAreTheQueryLabelBuckets) {
  Fixture f;
  std::set<Label> labels(f.query.vertex_labels().begin(),
                         f.query.vertex_labels().end());
  uint64_t bucket_rows = 0;
  for (Label l : labels) bucket_rows += f.data.VertexLabelFrequency(l);
  ASSERT_LT(bucket_rows, f.data.num_vertices());
  QueryEngine engine(f.data, GsiOptOptions());

  // Single device: the one scan reads exactly the query labels' buckets.
  {
    Tracer tracer;
    ASSERT_TRUE(engine
                    .Execute({.query = &f.query,
                              .trace = TraceContext{&tracer, -1, kHostDevice}})
                    .ok());
    const std::vector<TraceSpan> spans = tracer.Snapshot();
    ASSERT_NE(FindSpan(spans, "filter"), nullptr);
    EXPECT_EQ(AttrOf(*FindSpan(spans, "filter"), "rows_scanned"),
              std::to_string(bucket_rows));
  }
  // Partitioned at R = 1 and R = 2: the shares' buckets partition the
  // query labels' rows, so the lane scans sum to the same count.
  for (size_t replicas : {1, 2}) {
    std::vector<std::unique_ptr<gpusim::Device>> owned;
    std::vector<gpusim::Device*> devs;
    for (size_t i = 0; i < 4; ++i) {
      owned.push_back(
          std::make_unique<gpusim::Device>(engine.options().device));
      devs.push_back(owned.back().get());
    }
    Result<ReplicatedGraph> rg = ReplicatedGraph::Build(
        devs, f.data, engine.options(), HashVertexPartitioner(),
        /*partitions=*/4, replicas);
    ASSERT_TRUE(rg.ok());
    const ReplicaSelection sel = CompactSelection(*rg);
    Tracer tracer;
    ASSERT_TRUE(engine
                    .Execute({.query = &f.query,
                              .replicated = &*rg,
                              .selection = &sel,
                              .trace = TraceContext{&tracer, -1, kHostDevice}})
                    .ok());
    const std::vector<TraceSpan> spans = tracer.Snapshot();
    ASSERT_NE(FindSpan(spans, "filter"), nullptr);
    EXPECT_EQ(AttrOf(*FindSpan(spans, "filter"), "rows_scanned"),
              std::to_string(bucket_rows))
        << "R=" << replicas;
    EXPECT_EQ(CountSpans(spans, "lane_scan"), 4u / replicas)
        << "R=" << replicas;
    EXPECT_EQ(SumAttr(spans, "lane_scan", "rows_scanned"), bucket_rows)
        << "R=" << replicas;
  }
  // Sharded: the primary filters alone, so no device scans a share.
  {
    std::vector<std::unique_ptr<gpusim::Device>> owned;
    std::vector<gpusim::Device*> devs;
    for (int i = 0; i < 3; ++i) {
      owned.push_back(
          std::make_unique<gpusim::Device>(engine.options().device));
      devs.push_back(owned.back().get());
    }
    Tracer tracer;
    ASSERT_TRUE(engine
                    .ExecutePaged(
                        {.query = &f.query,
                         .devices = devs,
                         .trace = TraceContext{&tracer, -1, kHostDevice}})
                    .ok());
    const std::vector<TraceSpan> spans = tracer.Snapshot();
    ASSERT_NE(FindSpan(spans, "filter"), nullptr);
    EXPECT_EQ(AttrOf(*FindSpan(spans, "filter"), "rows_scanned"),
              std::to_string(bucket_rows));
    EXPECT_EQ(CountSpans(spans, "shard_scan"), 0u);
  }
}

/// Per-step attributes of a join: `rows_in`, `rows_out`, `gba_entries`.
struct StepValues {
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t gba_entries = 0;
  friend bool operator==(const StepValues&, const StepValues&) = default;
};

bool IsJoinStep(const TraceSpan& s) { return s.name == "join_step"; }

/// Every join step span's output rows fit the GBA its first-edge bounds
/// sized; returns how many spans were checked.
size_t ExpectRowsWithinGba(const std::vector<TraceSpan>& spans,
                           const std::string& context) {
  size_t checked = 0;
  for (const TraceSpan& s : spans) {
    if (!IsJoinStep(s)) continue;
    if (AttrOf(s, "rows_out").empty() || AttrOf(s, "gba_entries").empty()) {
      ADD_FAILURE() << context << " " << s.name << " lacks an attribute";
      continue;
    }
    EXPECT_LE(std::stoull(AttrOf(s, "rows_out")),
              std::stoull(AttrOf(s, "gba_entries")))
        << context << " " << s.name << " step " << AttrOf(s, "step");
    ++checked;
  }
  return checked;
}

/// The join step spans of one join, by `step`, each summed over the lanes
/// that ran it.
std::map<uint64_t, StepValues> StepsOf(const std::vector<TraceSpan>& spans) {
  std::map<uint64_t, StepValues> steps;
  for (const TraceSpan& s : spans) {
    if (!IsJoinStep(s)) continue;
    StepValues& step = steps[std::stoull(AttrOf(s, "step"))];
    step.rows_in += std::stoull(AttrOf(s, "rows_in"));
    step.rows_out += std::stoull(AttrOf(s, "rows_out"));
    step.gba_entries += std::stoull(AttrOf(s, "gba_entries"));
  }
  return steps;
}

/// Sum of the unsigned attr `key` of every join step span.
uint64_t SumOfStepAttr(const std::vector<TraceSpan>& spans,
                       const std::string& key) {
  uint64_t sum = 0;
  for (const TraceSpan& s : spans) {
    if (!IsJoinStep(s)) continue;
    const std::string value = AttrOf(s, key);
    if (value.empty()) {
      ADD_FAILURE() << s.name << " step " << AttrOf(s, "step") << " lacks "
                    << key;
      continue;
    }
    sum += std::stoull(value);
  }
  return sum;
}

/// One traced run of a query on each path: one device, four devices with
/// the join allowed to fan out, and a K = 4 partitioned graph.
struct TracedPaths {
  struct Run {
    const char* path;
    Result<QueryResult> result;
    std::vector<TraceSpan> spans;
  };
  std::vector<Run> runs;
};

TracedPaths RunOnEveryPath(const Graph& data, const Graph& query) {
  QueryEngine engine(data, GsiOptOptions());
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> devs;
  for (size_t i = 0; i < 4; ++i) {
    owned.push_back(std::make_unique<gpusim::Device>(engine.options().device));
    devs.push_back(owned.back().get());
  }
  Result<ReplicatedGraph> rg =
      ReplicatedGraph::Build(devs, data, engine.options(),
                             HashVertexPartitioner(), /*partitions=*/4,
                             /*replicas=*/1);
  GSI_CHECK(rg.ok());
  const ReplicaSelection sel = CompactSelection(*rg);
  ShardOptions so;
  so.min_rows_per_shard = 1;
  TracedPaths out;
  auto run = [&](const char* path, QueryEngine::ExecRequest request) {
    Tracer tracer;
    request.query = &query;
    request.trace = TraceContext{&tracer, -1, kHostDevice};
    Result<QueryResult> r = engine.Execute(request);
    out.runs.push_back({path, std::move(r), tracer.Snapshot()});
  };
  run("single", {});
  run("sharded", {.devices = devs, .shard = so});
  run("partitioned", {.replicated = &*rg, .selection = &sel});
  return out;
}

// Every join step span says how many of its Pass A blocks staged C(u)'s
// bitset, and the spans of one query sum to its
// JoinStats::staged_blocks: on one device, over the sharded lanes, and
// over the partitioned lanes. The 300-vertex graph's bitsets are one line, so
// every block with first-edge work stages.
TEST(TraceAttrs, StagedBlocksSumToTheJoinStats) {
  Graph data = testing::RandomHubGraph(300, 3, 2, 2, 2, 5, 0.25);
  Graph query = testing::RandomQuery(data, 4, 102);
  const TracedPaths paths = RunOnEveryPath(data, query);
  ASSERT_EQ(paths.runs.size(), 3u);
  EXPECT_GE(CountSpans(paths.runs[1].spans, "lane"), 2u);
  for (const TracedPaths::Run& run : paths.runs) {
    ASSERT_TRUE(run.result.ok()) << run.path;
    const JoinStats& detail = run.result->stats.join_detail;
    EXPECT_GT(detail.staged_blocks, 0u) << run.path;
    EXPECT_EQ(SumOfStepAttr(run.spans, "staged_blocks"), detail.staged_blocks)
        << run.path;
  }
}

// Every join step span says how many kernels it launched on its device,
// and those, plus one seed kernel per engine that seeded (one per lane on
// the partitioned path, the primary's alone on the others), are all of a
// query's join launches on every path. Over four vertex labels the
// query's steps include steps that run as one block, on every path, and
// steps that do not.
TEST(TraceAttrs, StepKernelsSumToTheJoinLaunches) {
  Graph data = testing::RandomHubGraph(300, 3, 4, 2, 2, 5, 0.25);
  Graph query = testing::RandomQuery(data, 4, 103);
  const TracedPaths paths = RunOnEveryPath(data, query);
  ASSERT_EQ(paths.runs.size(), 3u);
  for (const TracedPaths::Run& run : paths.runs) {
    ASSERT_TRUE(run.result.ok()) << run.path;
    uint64_t engine_runs = 1;
    if (std::string(run.path) == "partitioned") {
      engine_runs = 0;
      for (const TraceSpan& s : run.spans) {
        if (s.name == "lane" && AttrOf(s, "seed_rows") != "0") ++engine_runs;
      }
    }
    EXPECT_GE(engine_runs, 1u) << run.path;
    const QueryStats& stats = run.result->stats;
    EXPECT_GT(stats.join_detail.fused_steps, 0u) << run.path;
    EXPECT_EQ(SumOfStepAttr(run.spans, "kernels") + engine_runs,
              stats.join.kernel_launches)
        << run.path;
  }
  EXPECT_GE(CountSpans(paths.runs[1].spans, "lane"), 2u);
  const TracedPaths::Run& single = paths.runs[0];
  EXPECT_LT(single.result->stats.join_detail.fused_steps,
            single.result->stats.join_detail.iterations);
}

// The GBA a step fills is sized by its rows' first-edge bounds, so its
// output never exceeds it, on every path; and a sharded run's steps,
// summed over its lanes when it fans out, report what one device's do.
TEST(TraceAttrs, JoinStepRowsStayWithinTheirGba) {
  Graph data = testing::RandomHubGraph(300, 3, 2, 2, 2, 5, 0.25);
  Graph query = testing::RandomQuery(data, 4, 102);
  QueryEngine engine(data, GsiOptOptions());

  Tracer single_tracer;
  ASSERT_TRUE(
      engine
          .Execute({.query = &query,
                    .trace = TraceContext{&single_tracer, -1, kHostDevice}})
          .ok());
  const std::vector<TraceSpan> single = single_tracer.Snapshot();
  EXPECT_EQ(ExpectRowsWithinGba(single, "single"), 3u);
  const std::map<uint64_t, StepValues> want = StepsOf(single);
  ASSERT_EQ(want.size(), 3u);

  // The join fans out at min_rows_per_shard = 1; a volume floor above its
  // seed step's 932 bound entries keeps it on the primary.
  size_t serial = 0;
  size_t fanned = 0;
  for (size_t min_rows : {1, 256}) {
    std::vector<std::unique_ptr<gpusim::Device>> owned;
    std::vector<gpusim::Device*> devs;
    for (int i = 0; i < 4; ++i) {
      owned.push_back(
          std::make_unique<gpusim::Device>(engine.options().device));
      devs.push_back(owned.back().get());
    }
    ShardOptions so;
    so.min_rows_per_shard = min_rows;
    Tracer tracer;
    ASSERT_TRUE(engine
                    .ExecutePaged(
                        {.query = &query,
                         .devices = devs,
                         .shard = so,
                         .trace = TraceContext{&tracer, -1, kHostDevice}})
                    .ok());
    const std::vector<TraceSpan> spans = tracer.Snapshot();
    const std::string context = "sharded min_rows=" + std::to_string(min_rows);
    const size_t lanes = CountSpans(spans, "lane");
    EXPECT_EQ(ExpectRowsWithinGba(spans, context), lanes > 0 ? 3 * lanes : 3)
        << context;
    EXPECT_EQ(StepsOf(spans), want) << context;
    (lanes > 0 ? fanned : serial) += 1;
  }
  EXPECT_EQ(serial, 1u);
  EXPECT_EQ(fanned, 1u);

  // Partitioned at R = 1: each partition's join steps over its seed share.
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> devs;
  for (size_t i = 0; i < 4; ++i) {
    owned.push_back(std::make_unique<gpusim::Device>(engine.options().device));
    devs.push_back(owned.back().get());
  }
  Result<ReplicatedGraph> rg =
      ReplicatedGraph::Build(devs, data, engine.options(),
                             HashVertexPartitioner(), /*partitions=*/4,
                             /*replicas=*/1);
  ASSERT_TRUE(rg.ok());
  const ReplicaSelection sel = CompactSelection(*rg);
  Tracer tracer;
  ASSERT_TRUE(engine
                  .Execute({.query = &query,
                            .replicated = &*rg,
                            .selection = &sel,
                            .trace = TraceContext{&tracer, -1, kHostDevice}})
                  .ok());
  EXPECT_GE(ExpectRowsWithinGba(tracer.Snapshot(), "partitioned"), 4u);
}

/// The trace holds one `join` span, and its `matches` is `matches`.
void ExpectJoinMatches(const std::vector<TraceSpan>& spans, size_t matches,
                       const std::string& context) {
  ASSERT_EQ(CountSpans(spans, "join"), 1u) << context;
  EXPECT_EQ(AttrOf(*FindSpan(spans, "join"), "matches"),
            std::to_string(matches))
      << context;
}

/// The `devices` attribute of the trace's `execute` root ("" when absent).
std::string ExecuteDevices(const std::vector<TraceSpan>& spans) {
  const TraceSpan* root = FindSpan(spans, "execute");
  return root == nullptr ? "" : AttrOf(*root, "devices");
}

// Every join span carries the query's match count, on one device, sharded
// and partitioned; the full-replica flow's root names its device count.
TEST(TraceAttrs, EveryJoinSpanCarriesTheMatchCount) {
  Graph data = testing::RandomHubGraph(300, 3, 2, 2, 2, 5, 0.25);
  Graph query = testing::RandomQuery(data, 3, 102);
  QueryEngine engine(data, GsiOptOptions());
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> devs;
  for (int i = 0; i < 4; ++i) {
    owned.push_back(std::make_unique<gpusim::Device>(engine.options().device));
    devs.push_back(owned.back().get());
  }

  {
    Tracer tracer;
    Result<QueryResult> r = engine.Execute(
        {.query = &query, .trace = TraceContext{&tracer, -1, kHostDevice}});
    ASSERT_TRUE(r.ok());
    ASSERT_GT(r->num_matches(), 0u);
    const std::vector<TraceSpan> spans = tracer.Snapshot();
    ExpectJoinMatches(spans, r->num_matches(), "one device");
    EXPECT_EQ(ExecuteDevices(spans), "1");
  }
  {
    ShardOptions so;
    so.min_rows_per_shard = 1;
    Tracer tracer;
    Result<PagedQueryResult> r =
        engine.ExecutePaged({.query = &query,
                             .devices = devs,
                             .shard = so,
                             .trace = TraceContext{&tracer, -1, kHostDevice}});
    ASSERT_TRUE(r.ok());
    // The join fanned out: its lanes' tables stayed on their devices.
    ASSERT_GT(r->manifest.num_parts(), 1u);
    const std::vector<TraceSpan> spans = tracer.Snapshot();
    ExpectJoinMatches(spans, r->num_matches(), "sharded");
    EXPECT_EQ(ExecuteDevices(spans), "4");
  }
  for (size_t replicas : {1, 2}) {
    Result<ReplicatedGraph> rg = ReplicatedGraph::Build(
        devs, data, engine.options(), HashVertexPartitioner(),
        /*partitions=*/4, replicas);
    ASSERT_TRUE(rg.ok());
    const ReplicaSelection sel = CompactSelection(*rg);
    Tracer tracer;
    Result<QueryResult> r =
        engine.Execute({.query = &query,
                        .replicated = &*rg,
                        .selection = &sel,
                        .trace = TraceContext{&tracer, -1, kHostDevice}});
    ASSERT_TRUE(r.ok());
    ExpectJoinMatches(tracer.Snapshot(), r->num_matches(),
                      "partitioned R=" + std::to_string(replicas));
  }
}

TEST(TraceDeterminism, DisabledTracerLeavesResultsUntouched) {
  Fixture f;
  QueryEngine engine(f.data, GsiOptOptions());
  Tracer tracer;
  Result<QueryResult> traced = engine.Execute(
      {.query = &f.query, .trace = TraceContext{&tracer, -1, kHostDevice}});
  Result<QueryResult> plain = engine.Execute({.query = &f.query});
  ASSERT_TRUE(traced.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(traced->TableEquals(*plain));
  EXPECT_EQ(traced->stats.total_ms, plain->stats.total_ms);
  EXPECT_FALSE(tracer.Snapshot().empty());
}

}  // namespace
}  // namespace gsi
