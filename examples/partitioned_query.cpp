// Partitioned data-graph execution: the PCSR + signature table split
// across K simulated device memories (a ReplicatedGraph with one replica
// per partition) instead of replicated, queries answered with halo
// exchange / remote probes — and the match table still bit-identical to
// the single-device run at every K.
//
//   ./build/examples/partitioned_query
//
// Env knobs: GSI_PARTITION_EXAMPLE_SCALE (dataset scale, default 2),
// GSI_PARTITION_EXAMPLE_PARTITIONS (max partitions, default 8).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "graph/datasets.h"
#include "graph/query_generator.h"
#include "gsi/partition.h"
#include "gsi/query_engine.h"
#include "gsi/replication.h"
#include "util/check.h"
#include "util/table_printer.h"

using namespace gsi;

namespace {

double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : def;
}

constexpr double kMb = 1024.0 * 1024.0;

}  // namespace

int main() {
  const double scale = EnvDouble("GSI_PARTITION_EXAMPLE_SCALE", 2.0);
  const size_t max_partitions =
      static_cast<size_t>(EnvDouble("GSI_PARTITION_EXAMPLE_PARTITIONS", 8.0));

  Result<Dataset> dataset = MakeDataset("enron", scale);
  GSI_CHECK(dataset.ok());
  const Graph& g = dataset->graph;
  std::printf("data graph: %s\n", g.Summary().c_str());

  QueryGenConfig qc;
  qc.num_vertices = 8;
  std::vector<Graph> queries = GenerateQuerySet(g, qc, 5, 4242);
  GSI_CHECK(!queries.empty());

  QueryEngine engine(g, GsiOptOptions());
  GSI_CHECK(engine.init_status().ok());

  const Graph* heavy = nullptr;
  double single_ms = -1;
  for (const Graph& q : queries) {
    Result<QueryResult> r = engine.Execute({.query = &q});
    if (r.ok() && r->stats.total_ms > single_ms) {
      single_ms = r->stats.total_ms;
      heavy = &q;
    }
  }
  GSI_CHECK_MSG(heavy != nullptr, "no query executed successfully");
  Result<QueryResult> single = engine.Execute({.query = heavy});
  GSI_CHECK(single.ok());
  // The K=1 rows below are the like-for-like replicated baseline: the same
  // execution path with one share = the replica.
  std::printf("heavy query: %s -> %zu matches, %.2f ms single-device\n\n",
              heavy->Summary().c_str(), single->num_matches(), single_ms);

  // Hash ownership vs the greedy edge cut, side by side: the cut edges a
  // policy leaves decide how much of the join's probing goes remote.
  const HashVertexPartitioner hash;
  const GreedyEdgeCutPartitioner greedy;
  for (const GraphPartitioner* partitioner :
       {static_cast<const GraphPartitioner*>(&hash),
        static_cast<const GraphPartitioner*>(&greedy)}) {
    TablePrinter table({"Partitions", "Resident/dev MB", "Cut edges",
                        "Remote probes", "Halo MB", "Skew", "Total ms"});
    for (size_t k = 1; k <= max_partitions; k *= 2) {
      std::vector<std::unique_ptr<gpusim::Device>> devices;
      std::vector<gpusim::Device*> devs;
      for (size_t i = 0; i < k; ++i) {
        devices.push_back(
            std::make_unique<gpusim::Device>(engine.options().device));
        devs.push_back(devices.back().get());
      }
      Result<ReplicatedGraph> pg = ReplicatedGraph::Build(
          devs, g, engine.options(), *partitioner, /*partitions=*/k,
          /*replicas=*/1);
      GSI_CHECK_MSG(pg.ok(), pg.status().ToString().c_str());

      const ReplicaSelection sel = CompactSelection(*pg);
      Result<QueryResult> part = engine.Execute(
          {.query = heavy, .replicated = &*pg, .selection = &sel});
      GSI_CHECK(part.ok());
      GSI_CHECK_MSG(part->TableEquals(*single),
                    "partitioned result diverged from replicated run");

      const QueryStats& s = part->stats;
      const ReplicationBuildStats& bs = pg->build_stats();
      table.AddRow(
          {std::to_string(k),
           TablePrinter::FormatMs(
               static_cast<double>(bs.max_resident_bytes()) / kMb),
           TablePrinter::FormatCount(bs.cut_edges),
           TablePrinter::FormatCount(s.remote_probes),
           TablePrinter::FormatMs(static_cast<double>(s.halo_bytes) / kMb),
           TablePrinter::FormatSpeedup(s.partition_skew),
           TablePrinter::FormatMs(s.total_ms)});
    }
    table.Print("Partitioned execution, " + partitioner->name() +
                " ownership (bit-identical at every K)");
    std::printf("\n");
  }
  std::printf("Every row above reproduced the replicated match table bit "
              "for bit while holding ~1/K of it per device.\n");
  return 0;
}
