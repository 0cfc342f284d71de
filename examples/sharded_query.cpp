// Multi-device sharded query execution: one heavy query fanned out across
// a DevicePool, with the merged match table verified bit-identical to the
// single-device run at every pool size.
//
//   ./build/examples/sharded_query
//
// Env knobs: GSI_SHARD_EXAMPLE_SCALE (dataset scale, default 2),
// GSI_SHARD_EXAMPLE_DEVICES (max pool size, default 8).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "graph/datasets.h"
#include "graph/query_generator.h"
#include "gsi/query_engine.h"
#include "gsi/sharded_engine.h"
#include "service/device_pool.h"
#include "util/check.h"
#include "util/table_printer.h"

using namespace gsi;

namespace {

double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : def;
}

}  // namespace

int main() {
  const double scale = EnvDouble("GSI_SHARD_EXAMPLE_SCALE", 2.0);
  const size_t max_devices =
      static_cast<size_t>(EnvDouble("GSI_SHARD_EXAMPLE_DEVICES", 8.0));

  Result<Dataset> dataset = MakeDataset("enron", scale);
  GSI_CHECK(dataset.ok());
  const Graph& g = dataset->graph;
  std::printf("data graph: %s\n", g.Summary().c_str());

  QueryGenConfig qc;
  qc.num_vertices = 8;
  std::vector<Graph> queries = GenerateQuerySet(g, qc, 5, 4242);
  GSI_CHECK(!queries.empty());

  // Shared immutable PCSR + signature structures, built once.
  QueryEngine engine(g, GsiOptOptions());
  GSI_CHECK(engine.init_status().ok());

  // Pick the heaviest query of the workload — the shape intra-query
  // sharding exists for.
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
  std::printf("heavy query: %s -> %zu matches, %.2f ms on one device\n\n",
              heavy->Summary().c_str(), single->num_matches(), single_ms);

  TablePrinter table({"Devices", "Shards", "Filter ms", "Join ms",
                      "Total ms", "Speedup", "Skew"});
  for (size_t num_devices = 1; num_devices <= max_devices;
       num_devices *= 2) {
    DevicePool pool(num_devices, engine.options().device);
    std::vector<DevicePool::Lease> leases = pool.AcquireAll().value();
    std::vector<gpusim::Device*> devs;
    for (DevicePool::Lease& l : leases) devs.push_back(l.get());

    Result<QueryResult> sharded =
        engine.Execute({.query = heavy, .devices = devs});
    GSI_CHECK(sharded.ok());

    // The merged table must be bit-identical to the single-device table.
    GSI_CHECK_MSG(sharded->TableEquals(*single),
                  "sharded result diverged from single-device run");

    const QueryStats& s = sharded->stats;
    table.AddRow({std::to_string(num_devices),
                  std::to_string(s.shards_used),
                  TablePrinter::FormatMs(s.filter_ms),
                  TablePrinter::FormatMs(s.join_ms),
                  TablePrinter::FormatMs(s.total_ms),
                  TablePrinter::FormatSpeedup(
                      s.total_ms > 0 ? single_ms / s.total_ms : 0),
                  TablePrinter::FormatSpeedup(s.shard_skew)});
  }
  table.Print("Sharded execution (bit-identical at every pool size)");
  std::printf("\nEvery row above reproduced the single-device match table "
              "bit for bit.\n");
  return 0;
}
