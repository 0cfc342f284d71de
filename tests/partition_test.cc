// Partitioned data-graph execution — a ReplicatedGraph with one replica per
// partition (R = 1): the partitioners, build invariants (every adjacency
// row stored exactly once, on its owner; signature shares match
// ownership), and halo-exchange correctness (bit-identical match tables
// against single-device GsiMatcher::Find), and determinism of the
// remote-probe accounting. replication_test.cc drives the same execution
// path with more replicas per partition.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/datasets.h"
#include "graph/query_generator.h"
#include "gsi/matcher.h"
#include "gsi/partition.h"
#include "gsi/query_engine.h"
#include "gsi/replication.h"
#include "storage/signature.h"
#include "test_util.h"

namespace gsi {
namespace {

/// Bit-identical: not just the same match set, the same table (mirrors
/// sharded_engine_test.cc so the two multi-device paths share a bar).
void ExpectBitIdentical(const QueryResult& partitioned,
                        const QueryResult& single,
                        const std::string& context) {
  ASSERT_EQ(partitioned.table.rows(), single.table.rows()) << context;
  ASSERT_EQ(partitioned.table.cols(), single.table.cols()) << context;
  EXPECT_EQ(partitioned.column_to_query, single.column_to_query) << context;
  for (size_t r = 0; r < single.table.rows(); ++r) {
    for (size_t c = 0; c < single.table.cols(); ++c) {
      ASSERT_EQ(partitioned.table.At(r, c), single.table.At(r, c))
          << context << " cell (" << r << ", " << c << ")";
    }
  }
  EXPECT_TRUE(partitioned.TableEquals(single)) << context;
}

struct DeviceSet {
  std::vector<std::unique_ptr<gpusim::Device>> owned;
  std::vector<gpusim::Device*> ptrs;
};

DeviceSet MakeDevices(size_t k, const gpusim::DeviceConfig& config) {
  DeviceSet ds;
  for (size_t i = 0; i < k; ++i) {
    ds.owned.push_back(std::make_unique<gpusim::Device>(config));
    ds.ptrs.push_back(ds.owned.back().get());
  }
  return ds;
}

/// One partition per device, one replica each: the 1/K-per-device layout.
Result<ReplicatedGraph> BuildPartitioned(
    const DeviceSet& ds, const Graph& g, const GsiOptions& options,
    const GraphPartitioner& partitioner = HashVertexPartitioner()) {
  return ReplicatedGraph::Build(ds.ptrs, g, options, partitioner,
                                /*partitions=*/ds.ptrs.size(), /*replicas=*/1);
}

// ------------------------------------------------------- partitioners ---

TEST(Partitioner, HashCoversAllVerticesDeterministically) {
  Graph g = testing::RandomGraph(500, 3, 3, 2, 17);
  HashVertexPartitioner hash;
  for (size_t k : {1, 2, 5, 8}) {
    std::vector<PartitionId> a = hash.Assign(g, k);
    std::vector<PartitionId> b = hash.Assign(g, k);
    ASSERT_EQ(a.size(), g.num_vertices());
    EXPECT_EQ(a, b) << "assignment must be deterministic";
    std::vector<size_t> counts(k, 0);
    for (PartitionId p : a) {
      ASSERT_LT(p, k);
      ++counts[p];
    }
    for (size_t c : counts) {
      EXPECT_GT(c, 0u) << "k=" << k << ": hash left a partition empty";
    }
  }
}

TEST(Partitioner, GreedyEdgeCutBeatsHashOnClusteredGraph) {
  // A ring of dense cliques: the natural 4-way cut severs only the ring
  // edges, which the greedy pass should find and hashing cannot.
  const size_t cliques = 8;
  const size_t size = 10;
  std::vector<EdgeRecord> edges;
  std::vector<Label> labels(cliques * size, 0);
  for (size_t c = 0; c < cliques; ++c) {
    const VertexId base = static_cast<VertexId>(c * size);
    for (VertexId i = 0; i < size; ++i) {
      for (VertexId j = i + 1; j < size; ++j) {
        edges.push_back({base + i, base + j, 0});
      }
    }
    const VertexId next = static_cast<VertexId>(((c + 1) % cliques) * size);
    edges.push_back({base, next, 0});
  }
  Result<Graph> g = Graph::Create(cliques * size, labels, edges);
  ASSERT_TRUE(g.ok());

  auto cut_of = [&](const std::vector<PartitionId>& owner) {
    size_t cut = 0;
    for (const EdgeRecord& e : g->UndirectedEdges()) {
      if (owner[e.src] != owner[e.dst]) ++cut;
    }
    return cut;
  };
  const size_t k = 4;
  const size_t hash_cut = cut_of(HashVertexPartitioner().Assign(*g, k));
  const size_t greedy_cut =
      cut_of(GreedyEdgeCutPartitioner().Assign(*g, k));
  EXPECT_LT(greedy_cut, hash_cut);

  // Balance: no partition exceeds the slack-padded capacity.
  std::vector<PartitionId> owner = GreedyEdgeCutPartitioner(0.10).Assign(*g, k);
  std::vector<size_t> counts(k, 0);
  for (PartitionId p : owner) ++counts[p];
  const size_t capacity =
      static_cast<size_t>(static_cast<double>(g->num_vertices()) / k * 1.10) +
      1;
  for (size_t c : counts) EXPECT_LE(c, capacity);
}

// ---------------------------------------------------- build invariants ---

TEST(PartitionedGraphBuild, EveryAdjacencyRowStoredExactlyOnce) {
  Graph g = testing::RandomGraph(400, 4, 3, 3, 23);
  DeviceSet ds = MakeDevices(4, gpusim::DeviceConfig());
  Result<ReplicatedGraph> pg = BuildPartitioned(ds, g, GsiOptOptions());
  ASSERT_TRUE(pg.ok()) << pg.status().ToString();

  // Each directed edge lands in exactly one share: the owner's PCSR has the
  // full row, every other share reports "not found".
  size_t directed_total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartitionId owner = pg->OwnerOf(v);
    for (Label l : g.edge_labels()) {
      const size_t expect = g.NeighborsWithLabel(v, l).size();
      for (PartitionId p = 0; p < pg->num_partitions(); ++p) {
        const PcsrPartition* part = pg->store(p).partition(l);
        ASSERT_NE(part, nullptr);
        PcsrPartition::LookupInfo info = part->HostLookup(v);
        if (p == owner && expect > 0) {
          EXPECT_TRUE(info.found) << "owner lost vertex " << v;
          EXPECT_EQ(info.count, expect);
        } else {
          EXPECT_FALSE(info.found)
              << "vertex " << v << " leaked into partition " << p;
        }
      }
    }
    directed_total += g.degree(v);
  }
  // Summed over the shares, the stored rows are every adjacency entry.
  size_t stored = 0;
  for (PartitionId p = 0; p < pg->num_partitions(); ++p) {
    for (VertexId v : pg->owned(p)) {
      for (Label l : g.edge_labels()) {
        PcsrPartition::LookupInfo info =
            pg->store(p).partition(l)->HostLookup(v);
        if (info.found) stored += info.count;
      }
    }
  }
  EXPECT_EQ(stored, directed_total);
  EXPECT_EQ(directed_total, 2 * g.num_edges());
}

TEST(PartitionedGraphBuild, SignatureOwnershipMatchesVertexOwnership) {
  Graph g = testing::RandomGraph(300, 3, 4, 2, 29);
  DeviceSet ds = MakeDevices(3, gpusim::DeviceConfig());
  Result<ReplicatedGraph> pg = BuildPartitioned(ds, g, GsiOptOptions());
  ASSERT_TRUE(pg.ok());

  size_t owned_total = 0;
  const int nbits = pg->options().filter.signature_bits;
  for (PartitionId p = 0; p < pg->num_partitions(); ++p) {
    std::span<const VertexId> owned = pg->owned(p);
    const SignatureTable& table = pg->signatures(p);
    ASSERT_EQ(table.num_vertices(), owned.size());
    // The row map reaches every owned vertex exactly once, and each row
    // holds its vertex's signature.
    std::vector<VertexId> rows_of;
    for (size_t r = 0; r < table.num_vertices(); ++r) {
      const VertexId v = table.VertexAt(r);
      rows_of.push_back(v);
      EXPECT_EQ(pg->OwnerOf(v), p);
      const Signature expect = Signature::Encode(g, v, nbits);
      for (int w = 0; w < table.words_per_sig(); ++w) {
        ASSERT_EQ(table.WordAt(r, w), expect.word(w))
            << "partition " << p << " vertex " << v << " word " << w;
      }
    }
    std::ranges::sort(rows_of);
    EXPECT_TRUE(std::ranges::equal(rows_of, owned)) << "partition " << p;
    owned_total += owned.size();
  }
  EXPECT_EQ(owned_total, g.num_vertices());
}

TEST(PartitionedGraphBuild, SharesSumToReplicatedFootprint) {
  Graph g = testing::RandomGraph(300, 4, 3, 3, 31);
  DeviceSet ds = MakeDevices(4, gpusim::DeviceConfig());
  Result<ReplicatedGraph> pg = BuildPartitioned(ds, g, GsiOptOptions());
  ASSERT_TRUE(pg.ok());
  const ReplicationBuildStats& bs = pg->build_stats();

  // The replicated footprint, built independently.
  gpusim::Device ref_dev;
  std::unique_ptr<NeighborStore> ref_store =
      BuildStore(ref_dev, g, StorageKind::kPcsr, pg->options().join.gpn);
  SignatureTable ref_sigs = SignatureTable::Build(
      ref_dev, g, pg->options().filter.signature_bits,
      pg->options().filter.layout);
  const uint64_t replicated =
      ref_store->device_bytes() + ref_sigs.device_bytes();

  uint64_t sum = 0;
  for (uint64_t b : bs.resident_bytes) sum += b;
  EXPECT_EQ(sum, replicated);
  EXPECT_EQ(bs.replicated_bytes, replicated);
  EXPECT_EQ(bs.total_bytes, replicated);
  // Per-device residency really shrinks: the worst share is well under the
  // replica (hash-balanced 4 ways).
  EXPECT_LT(bs.max_resident_bytes(), replicated / 2);
}

TEST(PartitionedGraphBuild, RejectsUnsupportedConfigurations) {
  Graph g = testing::RandomGraph(100, 2, 2, 2, 5);
  DeviceSet ds = MakeDevices(2, gpusim::DeviceConfig());
  GsiOptions csr = GsiOptOptions();
  csr.join.storage = StorageKind::kCsr;
  EXPECT_EQ(BuildPartitioned(ds, g, csr).status().code(),
            StatusCode::kInvalidArgument);
  GsiOptions label_degree = GsiOptOptions();
  label_degree.filter.strategy = FilterStrategy::kLabelDegree;
  EXPECT_EQ(BuildPartitioned(ds, g, label_degree).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReplicatedGraph::Build({}, g, GsiOptOptions(),
                                   HashVertexPartitioner(), /*partitions=*/2,
                                   /*replicas=*/1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------- halo-exchange paths ---

TEST(PartitionedExecution, BitIdenticalToFindOnIntegrationGraphs) {
  for (const char* name : {"enron", "gowalla", "watdiv"}) {
    Result<Dataset> d = MakeDataset(name, /*scale=*/0.01);
    ASSERT_TRUE(d.ok());
    const Graph& g = d->graph;
    QueryGenConfig qc;
    qc.num_vertices = 5;
    std::vector<Graph> queries = GenerateQuerySet(g, qc, 3, 77);
    ASSERT_FALSE(queries.empty());

    for (const GsiOptions& options : {DefaultGsiOptions(), GsiOptOptions()}) {
      GsiMatcher sequential(g, options);
      for (size_t k : {2, 3, 4}) {
        DeviceSet ds = MakeDevices(k, options.device);
        Result<ReplicatedGraph> pg = BuildPartitioned(ds, g, options);
        ASSERT_TRUE(pg.ok());
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          Result<QueryResult> single = sequential.Find(queries[qi]);
          ASSERT_TRUE(single.ok());
          Result<QueryResult> part =
              testing::ExecuteReplicated(*pg, queries[qi]);
          ASSERT_TRUE(part.ok()) << part.status().ToString();
          ExpectBitIdentical(*part, *single,
                             std::string(name) + " query " + std::to_string(qi) +
                                 " partitions " + std::to_string(k));
        }
      }
    }
  }
}

TEST(PartitionedExecution, EdgeCutPartitionerIsAlsoBitIdentical) {
  Graph g = testing::RandomGraph(300, 3, 3, 2, 41);
  Graph q = testing::RandomQuery(g, 5, 43);
  GsiMatcher sequential(g, GsiOptOptions());
  Result<QueryResult> single = sequential.Find(q);
  ASSERT_TRUE(single.ok());
  DeviceSet ds = MakeDevices(4, gpusim::DeviceConfig());
  Result<ReplicatedGraph> pg =
      BuildPartitioned(ds, g, GsiOptOptions(), GreedyEdgeCutPartitioner());
  ASSERT_TRUE(pg.ok());
  // cut_edges counts the undirected edges whose endpoints' owners differ.
  size_t cut = 0;
  for (const EdgeRecord& e : g.UndirectedEdges()) {
    if (pg->OwnerOf(e.src) != pg->OwnerOf(e.dst)) ++cut;
  }
  EXPECT_GT(cut, 0u);
  EXPECT_EQ(pg->build_stats().cut_edges, cut);
  Result<QueryResult> part = testing::ExecuteReplicated(*pg, q);
  ASSERT_TRUE(part.ok());
  ExpectBitIdentical(*part, *single, "greedy edge cut");
}

TEST(PartitionedExecution, ReportsRemoteTrafficAndSkew) {
  Graph g = testing::RandomGraph(400, 4, 2, 2, 7);
  Graph q = testing::RandomQuery(g, 4, 8);
  QueryEngine engine(g, GsiOptOptions());
  Result<QueryResult> single = engine.Execute({.query = &q});
  ASSERT_TRUE(single.ok());
  ASSERT_GE(single->stats.min_candidate_size, 2u) << "workload too selective";

  DeviceSet ds = MakeDevices(4, engine.options().device);
  Result<ReplicatedGraph> pg = BuildPartitioned(ds, g, engine.options());
  ASSERT_TRUE(pg.ok());
  const ReplicaSelection sel = CompactSelection(*pg);
  Result<QueryResult> part =
      engine.Execute({.query = &q, .replicated = &*pg, .selection = &sel});
  ASSERT_TRUE(part.ok());
  ExpectBitIdentical(*part, *single, "remote traffic run");

  // With hash ownership across 4 partitions, cross-partition probes are
  // unavoidable, and the filter gather alone moves candidate bytes.
  EXPECT_GE(part->stats.partitions_used, 2u);
  EXPECT_GT(part->stats.remote_probes, 0u);
  EXPECT_GT(part->stats.halo_bytes, 0u);
  EXPECT_GE(part->stats.partition_skew, 1.0);
  // One lane per partition, and no co-resident replica to absorb probes.
  EXPECT_EQ(part->stats.replica_lanes, 4u);
  EXPECT_EQ(part->stats.co_located_probes, 0u);
  // Counters appear in the device roll-up too.
  EXPECT_GT(part->stats.join.remote_transactions, 0u);
  // Runs on the engine's full replica keep the partition fields at zero.
  EXPECT_EQ(single->stats.partitions_used, 0u);
  EXPECT_EQ(single->stats.remote_probes, 0u);
}

TEST(PartitionedExecution, SinglePartitionHasNoRemoteTraffic) {
  Graph g = testing::RandomGraph(200, 3, 3, 2, 42);
  Graph q = testing::RandomQuery(g, 4, 43);
  GsiMatcher sequential(g, GsiOptOptions());
  Result<QueryResult> single = sequential.Find(q);
  ASSERT_TRUE(single.ok());
  DeviceSet ds = MakeDevices(1, gpusim::DeviceConfig());
  Result<ReplicatedGraph> pg = BuildPartitioned(ds, g, GsiOptOptions());
  ASSERT_TRUE(pg.ok());
  EXPECT_EQ(pg->build_stats().cut_edges, 0u);
  Result<QueryResult> part = testing::ExecuteReplicated(*pg, q);
  ASSERT_TRUE(part.ok());
  ExpectBitIdentical(*part, *single, "one partition");
  EXPECT_EQ(part->stats.remote_probes, 0u);
  EXPECT_EQ(part->stats.halo_bytes, 0u);
  EXPECT_EQ(part->stats.partitions_used, 1u);
}

TEST(PartitionedExecution, DeterministicAcrossRuns) {
  Graph g = testing::RandomGraph(300, 3, 3, 2, 11);
  Graph q = testing::RandomQuery(g, 5, 13);
  DeviceSet ds = MakeDevices(4, gpusim::DeviceConfig());
  Result<ReplicatedGraph> pg = BuildPartitioned(ds, g, GsiOptOptions());
  ASSERT_TRUE(pg.ok());
  Result<QueryResult> a = testing::ExecuteReplicated(*pg, q);
  Result<QueryResult> b = testing::ExecuteReplicated(*pg, q);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectBitIdentical(*a, *b, "repeat run");
  // The accounting is deterministic too — thread interleaving never leaks
  // into simulated numbers.
  EXPECT_EQ(a->stats.remote_probes, b->stats.remote_probes);
  EXPECT_EQ(a->stats.halo_bytes, b->stats.halo_bytes);
  EXPECT_DOUBLE_EQ(a->stats.join_ms, b->stats.join_ms);
  EXPECT_DOUBLE_EQ(a->stats.partition_skew, b->stats.partition_skew);
}

TEST(PartitionedExecution, HubGraphHaloCacheSavesRemotesBitIdentically) {
  // Planted super-hubs concentrate probes on a few remote rows — the shape
  // the halo cache exists for. Same table as the sequential matcher, fewer
  // interconnect transactions than the uncached partitioned run.
  Graph g = testing::RandomHubGraph(400, 3, 3, 2, 57, /*num_hubs=*/3,
                                    /*hub_fraction=*/0.15);
  Graph q = testing::RandomQuery(g, 4, 58);
  GsiOptions options = GsiOptOptions();
  GsiMatcher sequential(g, options);
  Result<QueryResult> single = sequential.Find(q);
  ASSERT_TRUE(single.ok());

  DeviceSet cold_ds = MakeDevices(4, options.device);
  Result<ReplicatedGraph> cold = BuildPartitioned(cold_ds, g, options);
  ASSERT_TRUE(cold.ok());
  Result<QueryResult> uncached = testing::ExecuteReplicated(*cold, q);
  ASSERT_TRUE(uncached.ok());
  ASSERT_GT(uncached->stats.remote_probes, 0u) << "workload never left home";

  GsiOptions budgeted = options;
  budgeted.halo_budget_bytes = 1 << 20;
  DeviceSet ds = MakeDevices(4, options.device);
  Result<ReplicatedGraph> pg = BuildPartitioned(ds, g, budgeted);
  ASSERT_TRUE(pg.ok());
  Result<QueryResult> cached = testing::ExecuteReplicated(*pg, q);
  ASSERT_TRUE(cached.ok());
  ExpectBitIdentical(*cached, *single, "halo cache on hub graph");
  ExpectBitIdentical(*uncached, *single, "uncached baseline");

  // Hubs repeat probes within a single query, so even a cold cache hits.
  EXPECT_GT(cached->stats.halo_cache_hits, 0u);
  EXPECT_LT(cached->stats.remote_probes, uncached->stats.remote_probes);
  EXPECT_LT(cached->stats.join.remote_transactions,
            uncached->stats.join.remote_transactions);
}

TEST(PartitionedExecution, NoMatchQueryYieldsFullWidthEmptyTable) {
  Graph g = testing::RandomGraph(200, 3, 2, 2, 3);
  // A query whose vertex labels cannot exist in g (labels are < 2).
  Result<Graph> q = Graph::Create(2, {Label{50}, Label{51}}, {{0, 1, 0}});
  ASSERT_TRUE(q.ok());
  DeviceSet ds = MakeDevices(2, gpusim::DeviceConfig());
  Result<ReplicatedGraph> pg = BuildPartitioned(ds, g, GsiOptOptions());
  ASSERT_TRUE(pg.ok());
  Result<QueryResult> part = testing::ExecuteReplicated(*pg, *q);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part->num_matches(), 0u);
  EXPECT_EQ(part->table.cols(), 2u);
}

TEST(PartitionedExecution, InvalidQueriesStillFail) {
  Graph g = testing::RandomGraph(100, 3, 2, 2, 5);
  DeviceSet ds = MakeDevices(2, gpusim::DeviceConfig());
  Result<ReplicatedGraph> pg = BuildPartitioned(ds, g, GsiOptOptions());
  ASSERT_TRUE(pg.ok());
  EXPECT_EQ(testing::ExecuteReplicated(*pg, Graph()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PartitionedExecution, RunPartitionedRejectsMismatchedOptions) {
  Graph g = testing::RandomGraph(100, 3, 2, 2, 5);
  Graph q = testing::RandomQuery(g, 3, 6);
  DeviceSet ds = MakeDevices(2, gpusim::DeviceConfig());
  // Built with GSI-opt tuning, offered to a default-tuned engine: the
  // plans would diverge, so the documented bit-identical parity with the
  // engine's own runs cannot hold — the engine must reject instead of
  // silently differing.
  Result<ReplicatedGraph> pg = BuildPartitioned(ds, g, GsiOptOptions());
  ASSERT_TRUE(pg.ok());
  const ReplicaSelection sel = CompactSelection(*pg);
  const QueryEngine::ExecRequest req{
      .query = &q, .replicated = &*pg, .selection = &sel};
  QueryEngine engine(g, DefaultGsiOptions());
  EXPECT_EQ(engine.Execute(req).status().code(),
            StatusCode::kInvalidArgument);
  // A different data graph is rejected too.
  Graph other = testing::RandomGraph(100, 3, 2, 2, 9);
  QueryEngine other_engine(other, GsiOptOptions());
  EXPECT_EQ(other_engine.Execute(req).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gsi
