// Partitioned data-graph execution: the PCSR + signature table split into
// K shares over K simulated device memories, each share stored on R of them
// (staggered placement), queries answered with remote probes. Three parts:
//
//  1. K sweep at R = 1, hash vs greedy ownership: resident memory per
//     device falls ~1/K, and the cut edges a policy leaves decide how much
//     of the join's probing goes remote.
//  2. R sweep at K = 4: a partitioned query leases one replica of each
//     partition — K/R devices, leaving R concurrent lanes — and probes of
//     peer partitions are served by co-resident replicas instead of the
//     interconnect.
//  3. A concurrent burst through QueryService shows the lanes working
//     (AcquireOneOfEach, least-loaded replica picks).
//
// Match tables stay bit-identical to the single-device run at every K and
// R and for every replica selection.
//
//   ./build/examples/replicated_query [--kill-device[=N]]
//
// --kill-device[=N] injects a deterministic fail_on_lease fault into pool
// device N (default 0) before the service burst: the first query to lease
// it fails mid-run, the pool quarantines the device, and the retry layer
// re-solves replica coverage onto the survivors — every result still
// bit-identical. Requires R >= 2 (with one replica the dead partition is
// simply gone).
//
// Env knobs: GSI_REPL_EXAMPLE_SCALE (dataset scale, default 2),
// GSI_REPL_EXAMPLE_REPLICAS (max replication factor, default 4),
// GSI_REPL_EXAMPLE_BURST (queries in the service burst, default 12).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "graph/datasets.h"
#include "graph/query_generator.h"
#include "gsi/partition.h"
#include "gsi/query_engine.h"
#include "gsi/replication.h"
#include "service/query_service.h"
#include "util/check.h"
#include "util/table_printer.h"

using namespace gsi;

namespace {

double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : def;
}

constexpr double kMb = 1024.0 * 1024.0;
constexpr size_t kPartitions = 4;

}  // namespace

int main(int argc, char** argv) {
  bool kill_device = false;
  size_t victim = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--kill-device") {
      kill_device = true;
    } else if (a.rfind("--kill-device=", 0) == 0) {
      kill_device = true;
      victim = static_cast<size_t>(std::atoi(a.substr(14).c_str()));
    } else {
      std::fprintf(stderr, "usage: %s [--kill-device[=N]]\n", argv[0]);
      return 2;
    }
  }
  GSI_CHECK_MSG(victim < kPartitions, "--kill-device index out of range");

  const double scale = EnvDouble("GSI_REPL_EXAMPLE_SCALE", 2.0);
  const size_t max_replicas = std::min<size_t>(
      kPartitions,
      static_cast<size_t>(EnvDouble("GSI_REPL_EXAMPLE_REPLICAS", 4.0)));
  const size_t burst =
      static_cast<size_t>(EnvDouble("GSI_REPL_EXAMPLE_BURST", 12.0));

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
  std::printf("heavy query: %s -> %zu matches, %.2f ms single-device\n\n",
              heavy->Summary().c_str(), single->num_matches(), single_ms);

  // Runs the heavy query against a fresh K-device ReplicatedGraph (K
  // partitions, R replicas each) under the packed selection, checks it
  // bit-identical and hands its stats to `add_row`.
  auto run = [&](const GraphPartitioner& partitioner, size_t k, size_t r,
                 auto&& add_row) {
    std::vector<std::unique_ptr<gpusim::Device>> devices;
    std::vector<gpusim::Device*> devs;
    for (size_t i = 0; i < k; ++i) {
      devices.push_back(
          std::make_unique<gpusim::Device>(engine.options().device));
      devs.push_back(devices.back().get());
    }
    Result<ReplicatedGraph> rg =
        ReplicatedGraph::Build(devs, g, engine.options(), partitioner, k, r);
    GSI_CHECK_MSG(rg.ok(), rg.status().ToString().c_str());
    const ReplicaSelection packed = CompactSelection(*rg);
    Result<QueryResult> res = engine.Execute(
        {.query = heavy, .replicated = &*rg, .selection = &packed});
    GSI_CHECK(res.ok());
    GSI_CHECK_MSG(res->TableEquals(*single),
                  "partitioned result diverged from single-device run");
    add_row(res->stats, rg->build_stats());
  };

  // --- K sweep at R = 1: hash ownership vs the greedy edge cut, side by
  // side. The K=1 rows are the like-for-like baseline: the same execution
  // path with one share = the whole graph.
  const HashVertexPartitioner hash;
  const GreedyEdgeCutPartitioner greedy;
  for (const GraphPartitioner* partitioner :
       {static_cast<const GraphPartitioner*>(&hash),
        static_cast<const GraphPartitioner*>(&greedy)}) {
    TablePrinter table({"Partitions", "Resident/dev MB", "Cut edges",
                        "Remote probes", "Halo MB", "Skew", "Total ms"});
    for (size_t k = 1; k <= kPartitions; k *= 2) {
      run(*partitioner, k, 1,
          [&](const QueryStats& s, const ReplicationBuildStats& bs) {
            table.AddRow(
                {std::to_string(k),
                 TablePrinter::FormatMs(
                     static_cast<double>(bs.max_resident_bytes()) / kMb),
                 TablePrinter::FormatCount(bs.cut_edges),
                 TablePrinter::FormatCount(s.remote_probes),
                 TablePrinter::FormatMs(static_cast<double>(s.halo_bytes) /
                                        kMb),
                 TablePrinter::FormatSpeedup(s.partition_skew),
                 TablePrinter::FormatMs(s.total_ms)});
          });
    }
    table.Print("Partitioned execution at R=1, " + partitioner->name() +
                " ownership (bit-identical at every K)");
    std::printf("\n");
  }

  // --- R sweep at K = 4: one packed-selection execution per R. Lanes =
  // concurrent queries the pool now admits; co-located probes =
  // interconnect traffic the replicas absorbed.
  TablePrinter table({"Replicas", "Lanes", "Resident/dev MB", "Remote probes",
                      "Co-located", "Halo MB", "Total ms"});
  for (size_t r = 1; r <= max_replicas; r *= 2) {
    run(hash, kPartitions, r,
        [&](const QueryStats& s, const ReplicationBuildStats& bs) {
          table.AddRow(
              {std::to_string(r),
               std::to_string(kPartitions /
                              std::max<size_t>(1, s.replica_lanes)),
               TablePrinter::FormatMs(
                   static_cast<double>(bs.max_resident_bytes()) / kMb),
               TablePrinter::FormatCount(s.remote_probes),
               TablePrinter::FormatCount(s.co_located_probes),
               TablePrinter::FormatMs(static_cast<double>(s.halo_bytes) /
                                      kMb),
               TablePrinter::FormatMs(s.total_ms)});
        });
  }
  table.Print("Replicated execution, packed selection (bit-identical at "
              "every R)");
  std::printf("\n");

  // --- Concurrent burst through the serving layer: R=2 means two queries
  // hold disjoint lanes at once (watch peak_in_use and the pick skew).
  const size_t service_replicas = std::min<size_t>(2, max_replicas);
  if (kill_device && service_replicas < 2) {
    std::printf("--kill-device ignored: R=%zu leaves no surviving replica "
                "of the dead device's partitions\n",
                service_replicas);
    kill_device = false;
  }
  ServiceOptions so;
  so.num_workers = static_cast<int>(kPartitions);
  so.num_devices = static_cast<int>(kPartitions);
  so.partition_data_graph = true;
  so.partition_replicas = static_cast<int>(service_replicas);
  so.overload = OverloadPolicy::kBlock;
  so.max_queue_depth = 2 * burst;
  // One retry is enough: the rerun re-solves coverage without the
  // quarantined device, and every other query never even sees it.
  if (kill_device) so.default_max_attempts = 2;
  QueryService service(g, GsiOptOptions(), so);
  GSI_CHECK_MSG(service.init_status().ok(),
                service.init_status().ToString().c_str());

  if (kill_device) {
    gpusim::FaultPlan plan;
    plan.fail_on_lease = true;
    plan.reason = "example --kill-device";
    GSI_CHECK(service.InjectDeviceFault(victim, plan).ok());
    std::printf("fault armed: device %zu dies on its next lease "
                "(fail-stop; the burst below must survive it)\n\n",
                victim);
  }

  std::vector<QueryTicket> tickets;
  for (size_t i = 0; i < burst; ++i) {
    Result<QueryTicket> t = service.Submit(*heavy);
    GSI_CHECK(t.ok());
    tickets.push_back(*t);
  }
  size_t ok = 0;
  for (const QueryTicket& t : tickets) {
    Result<QueryResult> r = service.Wait(t);
    GSI_CHECK(r.ok());
    GSI_CHECK_MSG(r->TableEquals(*single), "service result diverged");
    ++ok;
  }
  ServiceStats stats = service.stats();
  std::printf("service burst: %zu/%zu ok over a %zu-device pool, R=%zu\n", ok,
              burst, kPartitions, service_replicas);
  std::printf("  partitioned queries: %llu, avg devices held per query: "
              "%.1f (vs %zu at R=1)\n",
              static_cast<unsigned long long>(stats.partitioned_queries),
              stats.avg_replica_lanes, kPartitions);
  std::printf("  co-located probes:   %llu served without the interconnect\n",
              static_cast<unsigned long long>(stats.co_located_probes));
  std::printf("  replica pick skew:   %.2fx (1.0 = perfectly even)\n",
              stats.replica_pick_skew);
  std::printf("  pool peak in use:    %zu of %zu devices\n",
              stats.pool.peak_in_use, kPartitions);
  if (kill_device) {
    GSI_CHECK_MSG(stats.device_failures >= 1,
                  "armed fault never tripped during the burst");
    GSI_CHECK_MSG(stats.quarantined_devices == 1,
                  "dead device was not quarantined");
    std::printf("  fault tolerance:     device %zu died mid-burst; %llu "
                "failed attempt(s), %llu retr%s (%llu failover%s), "
                "%zu device quarantined — 0 queries lost\n",
                victim,
                static_cast<unsigned long long>(stats.device_failures),
                static_cast<unsigned long long>(stats.retries),
                stats.retries == 1 ? "y" : "ies",
                static_cast<unsigned long long>(stats.failovers),
                stats.failovers == 1 ? "" : "s",
                stats.quarantined_devices);
    GSI_CHECK(service.RepairDevice(victim));
    std::printf("  repair:              device %zu re-admitted (%zu "
                "quarantined now)\n",
                victim, service.stats().quarantined_devices);
  }
  std::printf("\nEvery result above is bit-identical to the single-device "
              "match table,\nwhichever replica served each partition.\n");
  return 0;
}
