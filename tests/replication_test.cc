// R-way replicated partitions (R = 1 is plain partitioning, tested in
// partition_test.cc): placement invariants (R distinct devices per
// partition, staggered lanes, resident bytes ~R/K of the replica),
// bit-identical match tables for *every* replica selection (the guarantee
// that lets the serving layer route each partition to any live replica),
// co-location accounting (replication converts remote probes into local
// reads), and the QueryService wiring over AcquireOneOfEach.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/datasets.h"
#include "graph/query_generator.h"
#include "gsi/matcher.h"
#include "gsi/plan.h"
#include "gsi/query_engine.h"
#include "gsi/replication.h"
#include "gsi/sharded_engine.h"
#include "service/query_service.h"
#include "test_util.h"

namespace gsi {
namespace {

void ExpectBitIdentical(const QueryResult& got, const QueryResult& want,
                        const std::string& context) {
  ASSERT_EQ(got.table.rows(), want.table.rows()) << context;
  ASSERT_EQ(got.table.cols(), want.table.cols()) << context;
  EXPECT_EQ(got.column_to_query, want.column_to_query) << context;
  for (size_t r = 0; r < want.table.rows(); ++r) {
    for (size_t c = 0; c < want.table.cols(); ++c) {
      ASSERT_EQ(got.table.At(r, c), want.table.At(r, c))
          << context << " cell (" << r << ", " << c << ")";
    }
  }
  EXPECT_TRUE(got.TableEquals(want)) << context;
}

struct DeviceSet {
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> ptrs;
};

DeviceSet MakeDevices(size_t n, const gpusim::DeviceConfig& config) {
  DeviceSet ds;
  for (size_t i = 0; i < n; ++i) {
    ds.owned.push_back(std::make_unique<gpusim::Device>(config));
    ds.ptrs.push_back(ds.owned.back().get());
  }
  return ds;
}

Result<ReplicatedGraph> BuildReplicated(const DeviceSet& ds, const Graph& g,
                                        const GsiOptions& options,
                                        size_t replicas) {
  return ReplicatedGraph::Build(ds.ptrs, g, options, HashVertexPartitioner(),
                                /*partitions=*/ds.ptrs.size(), replicas);
}

/// The selection that serves every partition from replica j (a maximally
/// spread choice for j == 0: partition p on device p).
ReplicaSelection UniformSelection(const ReplicatedGraph& rg, uint32_t j) {
  ReplicaSelection sel;
  sel.choice.assign(rg.num_partitions(), j);
  return sel;
}

// ---------------------------------------------------------- placement ---

TEST(ReplicaPlacement, StaggeredCoversEveryPartitionOnDistinctDevices) {
  for (size_t n : {1, 2, 4, 6, 8}) {
    for (size_t r = 1; r <= n; ++r) {
      Result<ReplicaPlacement> pl = MakeStaggeredPlacement(n, n, r);
      ASSERT_TRUE(pl.ok()) << "n=" << n << " r=" << r;
      ASSERT_EQ(pl->device_of.size(), n);
      size_t shares = 0;
      for (PartitionId p = 0; p < n; ++p) {
        ASSERT_EQ(pl->device_of[p].size(), r);
        std::set<size_t> distinct(pl->device_of[p].begin(),
                                  pl->device_of[p].end());
        EXPECT_EQ(distinct.size(), r)
            << "n=" << n << " r=" << r << ": replicas of partition " << p
            << " share a device";
      }
      for (size_t d = 0; d < n; ++d) shares += pl->shares_of[d].size();
      EXPECT_EQ(shares, n * r);  // K*R shares over N devices
      // shares_of is the transpose of device_of.
      for (size_t d = 0; d < n; ++d) {
        for (PartitionId p : pl->shares_of[d]) {
          EXPECT_TRUE(pl->Hosts(d, p));
        }
      }
    }
  }
}

TEST(ReplicaPlacement, EvenSharesWhenReplicasDividePool) {
  // The serving configuration: N == K, R | N -> exactly R shares per
  // device, and the first K/R devices cover every partition (one lane).
  Result<ReplicaPlacement> pl = MakeStaggeredPlacement(8, 8, 2);
  ASSERT_TRUE(pl.ok());
  std::set<PartitionId> lane_parts;
  for (size_t d = 0; d < 8; ++d) {
    EXPECT_EQ(pl->shares_of[d].size(), 2u);
    if (d < 4) {
      lane_parts.insert(pl->shares_of[d].begin(), pl->shares_of[d].end());
    }
  }
  EXPECT_EQ(lane_parts.size(), 8u) << "first N/R devices must form a lane";
}

TEST(ReplicaPlacement, RejectsInvalidShapes) {
  EXPECT_EQ(MakeStaggeredPlacement(4, 4, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeStaggeredPlacement(4, 4, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeStaggeredPlacement(0, 4, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeStaggeredPlacement(4, 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- build ---

TEST(ReplicatedGraphBuild, ResidentBytesScaleWithReplicas) {
  Graph g = testing::RandomGraph(400, 4, 3, 3, 23);
  const GsiOptions options = GsiOptOptions();
  uint64_t replicated = 0;
  for (size_t r : {1, 2, 4}) {
    DeviceSet ds = MakeDevices(4, options.device);
    Result<ReplicatedGraph> rg = BuildReplicated(ds, g, options, r);
    ASSERT_TRUE(rg.ok()) << rg.status().ToString();
    const ReplicationBuildStats& bs = rg->build_stats();
    if (replicated == 0) replicated = bs.replicated_bytes;
    // One full copy of the graph costs the same regardless of R...
    EXPECT_EQ(bs.replicated_bytes, replicated);
    // ...and the pool stores exactly R copies.
    EXPECT_EQ(bs.total_bytes, r * replicated);
    // Per-device residency ~ R/K of the replica (hash-balanced 4 ways).
    EXPECT_LT(bs.max_resident_bytes(),
              r * replicated / 4 + replicated / 8);
    EXPECT_GT(bs.max_resident_bytes(), r * replicated / 8);
  }
}

TEST(ReplicatedGraphBuild, ShareContentIsIdenticalAcrossReplicas) {
  Graph g = testing::RandomGraph(200, 3, 3, 2, 29);
  DeviceSet ds = MakeDevices(4, gpusim::DeviceConfig());
  Result<ReplicatedGraph> rg = BuildReplicated(ds, g, GsiOptOptions(), 2);
  ASSERT_TRUE(rg.ok());
  for (PartitionId p = 0; p < rg->num_partitions(); ++p) {
    // Same bytes and same signature words on every replica.
    EXPECT_EQ(rg->store(p, 0).device_bytes(), rg->store(p, 1).device_bytes());
    const SignatureTable& a = rg->signatures(p, 0);
    const SignatureTable& b = rg->signatures(p, 1);
    ASSERT_EQ(a.num_vertices(), b.num_vertices());
    ASSERT_EQ(a.num_vertices(), rg->owned(p).size());
    for (size_t r = 0; r < a.num_vertices(); ++r) {
      ASSERT_EQ(a.VertexAt(r), b.VertexAt(r))
          << "partition " << p << " row " << r;
      EXPECT_EQ(rg->OwnerOf(a.VertexAt(r)), p);
      for (int w = 0; w < a.words_per_sig(); ++w) {
        ASSERT_EQ(a.WordAt(r, w), b.WordAt(r, w))
            << "partition " << p << " vertex " << a.VertexAt(r) << " word "
            << w;
      }
    }
    // StoreOn resolves each placement entry to its resident share.
    for (size_t j = 0; j < rg->num_replicas(); ++j) {
      EXPECT_EQ(rg->StoreOn(rg->placement().device_of[p][j], p),
                &rg->store(p, j));
    }
  }
}

TEST(ReplicatedGraphBuild, RejectsUnsupportedConfigurations) {
  Graph g = testing::RandomGraph(100, 2, 2, 2, 5);
  DeviceSet ds = MakeDevices(2, gpusim::DeviceConfig());
  GsiOptions csr = GsiOptOptions();
  csr.join.storage = StorageKind::kCsr;
  EXPECT_EQ(BuildReplicated(ds, g, csr, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildReplicated(ds, g, GsiOptOptions(), 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReplicatedGraph::Build({}, g, GsiOptOptions(),
                                   HashVertexPartitioner(), 2, 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------- selections ---

TEST(ReplicaSelectionTest, CompactSelectionPacksOntoFewestDevices) {
  Graph g = testing::RandomGraph(200, 3, 3, 2, 31);
  DeviceSet ds = MakeDevices(4, gpusim::DeviceConfig());
  Result<ReplicatedGraph> rg = BuildReplicated(ds, g, GsiOptOptions(), 2);
  ASSERT_TRUE(rg.ok());
  ReplicaSelection sel = CompactSelection(*rg);
  std::set<size_t> devices;
  for (PartitionId p = 0; p < rg->num_partitions(); ++p) {
    devices.insert(sel.DeviceOf(rg->placement(), p));
  }
  EXPECT_EQ(devices.size(), 2u) << "K/R devices cover all K partitions";
}

TEST(ReplicaSelectionTest, SelectionFromDevicesRoundTripsAndValidates) {
  Graph g = testing::RandomGraph(200, 3, 3, 2, 37);
  DeviceSet ds = MakeDevices(4, gpusim::DeviceConfig());
  Result<ReplicatedGraph> rg = BuildReplicated(ds, g, GsiOptOptions(), 2);
  ASSERT_TRUE(rg.ok());
  ReplicaSelection sel = CompactSelection(*rg);
  std::vector<size_t> devices;
  for (PartitionId p = 0; p < rg->num_partitions(); ++p) {
    devices.push_back(sel.DeviceOf(rg->placement(), p));
  }
  Result<ReplicaSelection> back = SelectionFromDevices(*rg, devices);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->choice, sel.choice);

  // A device that holds no replica of partition 0 is rejected.
  std::vector<size_t> bad = devices;
  const std::vector<size_t>& holders = rg->placement().device_of[0];
  for (size_t d = 0; d < 4; ++d) {
    if (std::find(holders.begin(), holders.end(), d) == holders.end()) {
      bad[0] = d;
      break;
    }
  }
  EXPECT_EQ(SelectionFromDevices(*rg, bad).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------- execution ---

TEST(ReplicatedExecution, BitIdenticalForEverySelection) {
  Graph g = testing::RandomGraph(300, 3, 3, 2, 41);
  GsiMatcher sequential(g, GsiOptOptions());
  DeviceSet ds = MakeDevices(4, GsiOptOptions().device);
  Result<ReplicatedGraph> rg = BuildReplicated(ds, g, GsiOptOptions(), 2);
  ASSERT_TRUE(rg.ok());

  for (uint64_t qseed = 0; qseed < 3; ++qseed) {
    Graph q = testing::RandomQuery(g, 5, 4300 + qseed);
    Result<QueryResult> single = sequential.Find(q);
    ASSERT_TRUE(single.ok());
    // Compact (2 lanes), spread (replica 0 of each: 4 devices), rotated
    // (replica 1 of each) — the table must not depend on the choice.
    std::vector<ReplicaSelection> selections = {
        CompactSelection(*rg), UniformSelection(*rg, 0),
        UniformSelection(*rg, 1)};
    for (size_t s = 0; s < selections.size(); ++s) {
      Result<QueryResult> got =
          testing::ExecuteReplicated(*rg, selections[s], q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitIdentical(*got, *single,
                         "query " + std::to_string(qseed) + " selection " +
                             std::to_string(s));
    }
  }
}

TEST(ReplicatedExecution, BitIdenticalOnIntegrationGraphs) {
  for (const char* name : {"enron", "gowalla"}) {
    Result<Dataset> d = MakeDataset(name, /*scale=*/0.01);
    ASSERT_TRUE(d.ok());
    const Graph& g = d->graph;
    QueryGenConfig qc;
    qc.num_vertices = 5;
    std::vector<Graph> queries = GenerateQuerySet(g, qc, 2, 77);
    ASSERT_FALSE(queries.empty());
    GsiMatcher sequential(g, GsiOptOptions());
    for (size_t r : {2, 4}) {
      DeviceSet ds = MakeDevices(4, GsiOptOptions().device);
      Result<ReplicatedGraph> rg = BuildReplicated(ds, g, GsiOptOptions(), r);
      ASSERT_TRUE(rg.ok());
      const ReplicaSelection sel = CompactSelection(*rg);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        Result<QueryResult> single = sequential.Find(queries[qi]);
        ASSERT_TRUE(single.ok());
        Result<QueryResult> got =
            testing::ExecuteReplicated(*rg, sel, queries[qi]);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectBitIdentical(*got, *single,
                           std::string(name) + " query " + std::to_string(qi) + " R=" +
                               std::to_string(r));
      }
    }
  }
}

TEST(ReplicatedExecution, FullReplicationHasNoRemoteTraffic) {
  Graph g = testing::RandomGraph(400, 4, 2, 2, 7);
  Graph q = testing::RandomQuery(g, 4, 8);
  QueryEngine engine(g, GsiOptOptions());
  Result<QueryResult> single = engine.Execute({.query = &q});
  ASSERT_TRUE(single.ok());

  DeviceSet ds = MakeDevices(4, engine.options().device);
  Result<ReplicatedGraph> rg = BuildReplicated(ds, g, engine.options(), 4);
  ASSERT_TRUE(rg.ok());
  // R == N: one device holds every partition, so the compact selection is
  // a single lane and nothing ever crosses the interconnect.
  ReplicaSelection sel = CompactSelection(*rg);
  Result<QueryResult> got =
      engine.Execute({.query = &q, .replicated = &*rg, .selection = &sel});
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*got, *single, "full replication");
  EXPECT_EQ(got->stats.replica_lanes, 1u);
  EXPECT_EQ(got->stats.remote_probes, 0u);
  EXPECT_EQ(got->stats.halo_bytes, 0u);
  EXPECT_GT(got->stats.co_located_probes, 0u)
      << "peer-partition probes must be served by co-resident replicas";
  // Replicated runs keep the replica fields at zero on other paths.
  EXPECT_EQ(single->stats.replica_lanes, 0u);
  EXPECT_EQ(single->stats.co_located_probes, 0u);
}

TEST(ReplicatedExecution, CoLocationShrinksRemoteTraffic) {
  Graph g = testing::RandomGraph(400, 4, 2, 2, 7);
  Graph q = testing::RandomQuery(g, 4, 8);
  const GsiOptions options = GsiOptOptions();

  uint64_t remote_r1 = 0;
  uint64_t remote_r2 = 0;
  for (size_t r : {1, 2}) {
    DeviceSet ds = MakeDevices(4, options.device);
    Result<ReplicatedGraph> rg = BuildReplicated(ds, g, options, r);
    ASSERT_TRUE(rg.ok());
    Result<QueryResult> got = testing::ExecuteReplicated(*rg, q);
    ASSERT_TRUE(got.ok());
    if (r == 1) {
      remote_r1 = got->stats.remote_probes;
      EXPECT_EQ(got->stats.co_located_probes, 0u);
      EXPECT_EQ(got->stats.replica_lanes, 4u);
    } else {
      remote_r2 = got->stats.remote_probes;
      EXPECT_GT(got->stats.co_located_probes, 0u);
      EXPECT_EQ(got->stats.replica_lanes, 2u);
    }
  }
  EXPECT_GT(remote_r1, 0u);
  EXPECT_LT(remote_r2, remote_r1)
      << "co-resident replicas must absorb some probes";
}

TEST(ReplicatedExecution, DeterministicAcrossRuns) {
  Graph g = testing::RandomGraph(300, 3, 3, 2, 11);
  Graph q = testing::RandomQuery(g, 5, 13);
  DeviceSet ds = MakeDevices(4, gpusim::DeviceConfig());
  Result<ReplicatedGraph> rg = BuildReplicated(ds, g, GsiOptOptions(), 2);
  ASSERT_TRUE(rg.ok());
  const ReplicaSelection sel = CompactSelection(*rg);
  Result<QueryResult> a = testing::ExecuteReplicated(*rg, sel, q);
  Result<QueryResult> b = testing::ExecuteReplicated(*rg, sel, q);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectBitIdentical(*a, *b, "repeat run");
  EXPECT_EQ(a->stats.remote_probes, b->stats.remote_probes);
  EXPECT_EQ(a->stats.co_located_probes, b->stats.co_located_probes);
  EXPECT_EQ(a->stats.halo_bytes, b->stats.halo_bytes);
  EXPECT_DOUBLE_EQ(a->stats.join_ms, b->stats.join_ms);
}

TEST(ReplicatedExecution, OneScanAndOneJoinPerLane) {
  // A lane is one device: it scans every selected share it holds in one
  // launch and joins all of its seeds in one run, whatever number of
  // partitions it serves. K = 8 at R = 1 puts two partitions on each of
  // the 4 devices; K = 4 at R = 2 packs two per lane or spreads one per
  // device.
  Graph g = testing::RandomGraph(300, 3, 3, 2, 41);
  const GsiOptions options = GsiOptOptions();
  const QueryEngine engine(g, options);
  GsiMatcher sequential(g, options);
  const std::vector<Graph> queries = testing::RandomQuerySet(g, 5, 3, 4500);
  for (const auto& [k, r] : {std::pair<size_t, size_t>{8, 1}, {4, 2}}) {
    DeviceSet ds = MakeDevices(4, options.device);
    Result<ReplicatedGraph> rg = ReplicatedGraph::Build(
        ds.ptrs, g, options, HashVertexPartitioner(), k, r);
    ASSERT_TRUE(rg.ok());
    for (const ReplicaSelection& sel :
         {CompactSelection(*rg), UniformSelection(*rg, 0)}) {
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const Graph& q = queries[qi];
        const std::string ctx = "K=" + std::to_string(k) + " R=" +
                                std::to_string(r) + " query " +
                                std::to_string(qi);
        Result<QueryResult> single = sequential.Find(q);
        ASSERT_TRUE(single.ok()) << ctx;
        Result<QueryResult> got = testing::ExecuteReplicated(*rg, sel, q);
        ASSERT_TRUE(got.ok()) << ctx << ": " << got.status().ToString();
        ExpectBitIdentical(*got, *single, ctx);

        // The seeds' lanes and partitions, from the plan's seed list.
        gpusim::Device dev(options.device);
        QueryStats fstats;
        Result<FilterResult> f = RunFilterStage(dev, engine.filter(), q,
                                                fstats);
        ASSERT_TRUE(f.ok()) << ctx;
        const JoinPlan plan = MakeJoinPlan(q, g, f->candidates);
        std::set<size_t> seed_lanes;
        std::set<PartitionId> seed_parts;
        const CandidateSet& seed = f->candidates[plan.order[0]];
        for (size_t i = 0; i < seed.size(); ++i) {
          const VertexId v = seed.list()[i];
          seed_parts.insert(rg->OwnerOf(v));
          seed_lanes.insert(sel.DeviceOf(rg->placement(), rg->OwnerOf(v)));
        }
        ASSERT_FALSE(seed_lanes.empty()) << ctx;

        const QueryStats& s = got->stats;
        EXPECT_EQ(s.filter.kernel_launches, s.replica_lanes + 1) << ctx;
        EXPECT_LE(s.join.kernel_launches,
                  seed_lanes.size() * (2 * q.num_vertices() - 1))
            << ctx;
        EXPECT_EQ(s.partitions_used, seed_parts.size()) << ctx;
        if (r == 1) {
          EXPECT_EQ(s.co_located_probes, 0u) << ctx;
        }
      }
    }
  }
}

TEST(ReplicatedExecution, LaneBudgetNeverRefusesWhatOneDeviceAnswers) {
  // A lane's table after each step is the seed subset of the one-device
  // table, so a row budget the one-device join fits also fits every lane.
  Graph g = testing::RandomGraph(300, 3, 3, 2, 43);
  for (uint64_t qseed = 0; qseed < 4; ++qseed) {
    const Graph q = testing::RandomQuery(g, 5, 4600 + qseed);
    Result<QueryResult> single = GsiMatcher(g, GsiOptOptions()).Find(q);
    ASSERT_TRUE(single.ok());
    GsiOptions options = GsiOptOptions();
    options.join.max_rows =
        std::max<size_t>(1, single->stats.join_detail.peak_rows);
    for (size_t k : {4, 8}) {
      for (size_t r : {1, 2}) {
        const std::string ctx = "query " + std::to_string(qseed) + " K=" +
                                std::to_string(k) + " R=" + std::to_string(r);
        DeviceSet ds = MakeDevices(4, options.device);
        Result<ReplicatedGraph> rg = ReplicatedGraph::Build(
            ds.ptrs, g, options, HashVertexPartitioner(), k, r);
        ASSERT_TRUE(rg.ok()) << ctx;
        for (const ReplicaSelection& sel :
             {CompactSelection(*rg), UniformSelection(*rg, 0)}) {
          Result<QueryResult> got = testing::ExecuteReplicated(*rg, sel, q);
          ASSERT_TRUE(got.ok()) << ctx << ": " << got.status().ToString();
          ExpectBitIdentical(*got, *single, ctx);
        }
      }
    }
  }
}

TEST(ReplicatedExecution, RejectsBadSelectionsAndMismatchedOptions) {
  Graph g = testing::RandomGraph(100, 3, 2, 2, 5);
  Graph q = testing::RandomQuery(g, 3, 6);
  DeviceSet ds = MakeDevices(4, gpusim::DeviceConfig());
  Result<ReplicatedGraph> rg = BuildReplicated(ds, g, GsiOptOptions(), 2);
  ASSERT_TRUE(rg.ok());
  ReplicaSelection wrong_size;
  wrong_size.choice = {0, 0};
  EXPECT_EQ(
      testing::ExecuteReplicated(*rg, wrong_size, q).status().code(),
      StatusCode::kInvalidArgument);
  ReplicaSelection out_of_range = CompactSelection(*rg);
  out_of_range.choice[0] = 7;
  EXPECT_EQ(
      testing::ExecuteReplicated(*rg, out_of_range, q).status().code(),
      StatusCode::kInvalidArgument);
  const ReplicaSelection sel = CompactSelection(*rg);
  QueryEngine other(g, DefaultGsiOptions());
  EXPECT_EQ(
      other.Execute({.query = &q, .replicated = &*rg, .selection = &sel})
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ phase pricing ---

/// One price per phase: the filter stage writes filter_ms, the join stage
/// adds join_ms, and total_ms is their sum (plus the service's backoff).
void ExpectPhasesSum(const QueryStats& s, const std::string& context) {
  EXPECT_EQ(s.total_ms, s.filter_ms + s.join_ms + s.backoff_ms) << context;
}

TEST(PhasePricing, OnePricePerPhaseOnEveryPath) {
  const Graph g = testing::RandomGraph(300, 3, 3, 2, 41);
  const GsiOptions options = GsiOptOptions();
  const gpusim::DeviceConfig& config = options.device;
  std::vector<Graph> queries = testing::RandomQuerySet(g, 5, 3, 4400);
  // The join stages' shortcuts: a one-vertex query, and a query whose
  // labels do not occur in g (labels are < 3), so a candidate set is empty.
  queries.push_back(*Graph::Create(1, {g.vertex_label(0)}, {}));
  queries.push_back(*Graph::Create(2, {Label{50}, Label{51}}, {{0, 1, 0}}));
  const QueryEngine engine(g, options);
  ASSERT_TRUE(engine.init_status().ok());
  ShardOptions shard;
  shard.min_rows_per_shard = 1;
  bool fanned_out = false;

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Graph& q = queries[qi];
    const std::string at = "query " + std::to_string(qi);

    // --- One device: both engine flows and the public stage pair.
    Result<QueryResult> one = engine.Execute({.query = &q});
    ASSERT_TRUE(one.ok()) << at << ": " << one.status().ToString();
    ExpectPhasesSum(one->stats, at + " one device");
    Result<PagedQueryResult> one_paged = engine.ExecutePaged({.query = &q});
    ASSERT_TRUE(one_paged.ok()) << at;
    ExpectPhasesSum(one_paged->stats, at + " one device, paged");
    EXPECT_EQ(one_paged->stats.filter_ms, one->stats.filter_ms) << at;
    {
      gpusim::Device dev(config);
      gpusim::Device* const devs[] = {&dev};
      QueryStats stats;
      Result<FilterResult> f = RunFilterStage(dev, engine.filter(), q, stats);
      ASSERT_TRUE(f.ok()) << at;
      EXPECT_EQ(stats.filter_ms, stats.filter.SimulatedMs(config)) << at;
      Result<PagedQueryResult> pair =
          RunJoinStageShardedPaged(devs, g, engine.store(), options,
                                   ShardOptions(), q, std::move(f.value()),
                                   stats);
      ASSERT_TRUE(pair.ok()) << at;
      ExpectPhasesSum(pair->stats, at + " one-device stage pair");
      EXPECT_EQ(pair->stats.filter_ms, one->stats.filter_ms) << at;
      EXPECT_EQ(pair->stats.total_ms, one->stats.total_ms) << at;
    }

    // --- Sharded over 2 devices: the filter is one device's.
    {
      DeviceSet ds = MakeDevices(2, config);
      const QueryEngine::ExecRequest req{
          .query = &q, .devices = ds.ptrs, .shard = shard};
      Result<QueryResult> flow = engine.Execute(req);
      ASSERT_TRUE(flow.ok()) << at;
      ExpectPhasesSum(flow->stats, at + " sharded");
      EXPECT_EQ(flow->stats.filter_ms, one->stats.filter_ms) << at;
      fanned_out = fanned_out || flow->stats.shards_used > 1;
      Result<PagedQueryResult> paged = engine.ExecutePaged(req);
      ASSERT_TRUE(paged.ok()) << at;
      ExpectPhasesSum(paged->stats, at + " sharded, paged");
      QueryStats stats;
      Result<FilterResult> f =
          RunFilterStage(*ds.ptrs[0], engine.filter(), q, stats);
      ASSERT_TRUE(f.ok()) << at;
      Result<PagedQueryResult> pair = RunJoinStageShardedPaged(
          ds.ptrs, g, engine.store(), options, shard, q,
          std::move(f.value()), stats);
      ASSERT_TRUE(pair.ok()) << at;
      ExpectPhasesSum(pair->stats, at + " sharded stage pair");
      EXPECT_EQ(pair->stats.filter_ms, flow->stats.filter_ms) << at;
      EXPECT_EQ(pair->stats.total_ms, flow->stats.total_ms) << at;
    }

    // --- Partitioned at R = 1 and R = 2: the stage pair reports what the
    // flow does under the same selection.
    for (size_t r : {1, 2}) {
      const std::string ctx = at + " R=" + std::to_string(r);
      DeviceSet ds = MakeDevices(4, config);
      Result<ReplicatedGraph> rg = BuildReplicated(ds, g, options, r);
      ASSERT_TRUE(rg.ok()) << ctx;
      const ReplicaSelection sel = CompactSelection(*rg);
      Result<PagedQueryResult> flow =
          ExecuteQueryReplicatedPaged(*rg, sel, q);
      ASSERT_TRUE(flow.ok()) << ctx;
      ExpectPhasesSum(flow->stats, ctx + " flow");
      const QueryEngine::ExecRequest req{
          .query = &q, .replicated = &*rg, .selection = &sel};
      Result<QueryResult> exec = engine.Execute(req);
      ASSERT_TRUE(exec.ok()) << ctx;
      ExpectPhasesSum(exec->stats, ctx + " Execute");
      EXPECT_EQ(exec->stats.filter_ms, flow->stats.filter_ms) << ctx;
      EXPECT_EQ(exec->stats.total_ms, flow->stats.total_ms) << ctx;
      Result<PagedQueryResult> exec_paged = engine.ExecutePaged(req);
      ASSERT_TRUE(exec_paged.ok()) << ctx;
      ExpectPhasesSum(exec_paged->stats, ctx + " ExecutePaged");

      QueryStats stats;
      double parallel_ms = -1;
      Result<FilterResult> f =
          RunFilterStageReplicated(*rg, sel, q, stats, &parallel_ms);
      ASSERT_TRUE(f.ok()) << ctx;
      EXPECT_EQ(parallel_ms, stats.filter_ms) << ctx;
      Result<PagedQueryResult> pair = RunJoinStageReplicatedPaged(
          *rg, sel, q, std::move(f.value()), stats);
      ASSERT_TRUE(pair.ok()) << ctx;
      ExpectPhasesSum(pair->stats, ctx + " stage pair");
      EXPECT_EQ(pair->stats.filter_ms, flow->stats.filter_ms) << ctx;
      EXPECT_EQ(pair->stats.total_ms, flow->stats.total_ms) << ctx;
    }
  }
  EXPECT_TRUE(fanned_out) << "no query distributed a sharded join step";

  // --- The partitioned service, cold (cache miss) then warm (cache hit).
  // One worker on an idle pool leases the compact selection.
  for (int r : {1, 2}) {
    const std::string ctx = "service R=" + std::to_string(r);
    ServiceOptions so;
    so.num_workers = 1;
    so.num_devices = 4;
    so.partition_data_graph = true;
    so.partition_replicas = r;
    QueryService service(g, options, so);
    ASSERT_TRUE(service.init_status().ok()) << ctx;
    DeviceSet ds = MakeDevices(4, config);
    Result<ReplicatedGraph> rg =
        BuildReplicated(ds, g, options, static_cast<size_t>(r));
    ASSERT_TRUE(rg.ok()) << ctx;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Graph& q = queries[qi];
      const std::string at = ctx + " query " + std::to_string(qi);
      Result<PagedQueryResult> flow =
          ExecuteQueryReplicatedPaged(*rg, CompactSelection(*rg), q);
      ASSERT_TRUE(flow.ok()) << at;
      Result<QueryTicket> cold_t = service.Submit(q);
      ASSERT_TRUE(cold_t.ok()) << at;
      Result<QueryResult> cold = service.Wait(*cold_t);
      ASSERT_TRUE(cold.ok()) << at << ": " << cold.status().ToString();
      ExpectPhasesSum(cold->stats, at + " cold");
      EXPECT_EQ(cold->stats.filter_ms, flow->stats.filter_ms) << at;
      EXPECT_EQ(cold->stats.total_ms, flow->stats.total_ms) << at;

      Result<QueryTicket> warm_t = service.Submit(q);
      ASSERT_TRUE(warm_t.ok()) << at;
      Result<QueryResult> warm = service.Wait(*warm_t);
      ASSERT_TRUE(warm.ok()) << at;
      ExpectPhasesSum(warm->stats, at + " warm");
      // A hit prices its materialization on the primary.
      EXPECT_EQ(warm->stats.filter_ms, warm->stats.filter.SimulatedMs(config))
          << at;
      EXPECT_TRUE(warm->TableEquals(*cold)) << at;
    }
    EXPECT_EQ(service.stats().cache.hits, queries.size()) << ctx;
  }
}

// ------------------------------------------------------------ service ---

TEST(ReplicatedService, StaysBitIdenticalUnderConcurrentLoad) {
  for (bool cache : {false, true}) {
    Graph data = testing::RandomGraph(300, 3, 4, 3, 700);
    std::vector<Graph> queries;
    for (uint64_t q = 0; q < 8; ++q) {
      queries.push_back(testing::RandomQuery(data, 5, 7000 + q));
    }
    GsiMatcher sequential(data, GsiOptOptions());

    ServiceOptions so;
    so.num_workers = 3;
    so.num_devices = 4;
    so.partition_data_graph = true;
    so.partition_replicas = 2;
    so.enable_filter_cache = cache;
    QueryService service(data, GsiOptOptions(), so);
    ASSERT_TRUE(service.init_status().ok())
        << service.init_status().ToString();

    std::vector<QueryTicket> tickets;
    for (const Graph& q : queries) {
      Result<QueryTicket> t = service.Submit(q);
      ASSERT_TRUE(t.ok());
      tickets.push_back(*t);
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      Result<QueryResult> expected = sequential.Find(queries[i]);
      Result<QueryResult> got = service.Wait(tickets[i]);
      ASSERT_EQ(expected.ok(), got.ok()) << "query " << i;
      if (!expected.ok()) continue;
      EXPECT_TRUE(got->TableEquals(*expected))
          << "query " << i << " cache=" << cache;
      EXPECT_GE(got->stats.replica_lanes, 1u);
      EXPECT_LE(got->stats.replica_lanes, 4u);
    }
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.partitioned_queries, stats.completed_ok);
    EXPECT_GE(stats.avg_replica_lanes, 1.0);
    EXPECT_GE(stats.pool.group_acquires, stats.completed_ok);
    EXPECT_GE(stats.replica_pick_skew, 1.0);
    EXPECT_EQ(stats.pool.in_use, 0u);
  }
}

TEST(ReplicatedService, ValidatesPartitionReplicas) {
  Graph data = testing::RandomGraph(100, 3, 2, 2, 900);
  {
    ServiceOptions so;
    so.partition_data_graph = true;
    so.partition_replicas = 0;
    QueryService service(data, GsiOptOptions(), so);
    EXPECT_EQ(service.init_status().code(), StatusCode::kInvalidArgument);
  }
  {
    ServiceOptions so;
    so.num_devices = 4;
    so.partition_data_graph = true;
    so.partition_replicas = 5;  // > pool size
    QueryService service(data, GsiOptOptions(), so);
    EXPECT_EQ(service.init_status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(service.init_status().ToString().find("pool"),
              std::string::npos);
  }
  {
    ServiceOptions so;
    so.num_devices = 4;
    so.partition_replicas = 2;  // without partition_data_graph
    QueryService service(data, GsiOptOptions(), so);
    EXPECT_EQ(service.init_status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(
        service.Submit(testing::RandomQuery(data, 3, 1)).status().code(),
        StatusCode::kInvalidArgument);
  }
  {
    // R == pool size is legal: full replication, single-device queries.
    ServiceOptions so;
    so.num_devices = 2;
    so.partition_data_graph = true;
    so.partition_replicas = 2;
    QueryService service(data, GsiOptOptions(), so);
    ASSERT_TRUE(service.init_status().ok())
        << service.init_status().ToString();
    Result<QueryTicket> t = service.Submit(testing::RandomQuery(data, 4, 2));
    ASSERT_TRUE(t.ok());
    Result<QueryResult> got = service.Wait(*t);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->stats.replica_lanes, 1u);
    EXPECT_EQ(got->stats.remote_probes, 0u);
  }
}

}  // namespace
}  // namespace gsi
