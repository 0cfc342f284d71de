#ifndef GSI_GSI_PARTITION_H_
#define GSI_GSI_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace gsi {

using PartitionId = uint32_t;

/// Pluggable vertex-ownership policy for the partitioned data graph
/// (ReplicatedGraph, gsi/replication.h): maps every data vertex to the
/// partition that will store its adjacency rows and its signature.
/// Assignments must be deterministic functions of (g, k) — ownership decides
/// which probes are remote and in which order partial tables merge, so a
/// nondeterministic policy would break the bit-identical guarantee of
/// partitioned execution.
class GraphPartitioner {
 public:
  virtual ~GraphPartitioner() = default;

  /// Returns owner[v] in [0, k) for every vertex of g (k >= 1).
  virtual std::vector<PartitionId> Assign(const Graph& g, size_t k) const = 0;

  virtual std::string name() const = 0;
};

/// Default policy: owner(v) = splitmix64(v) mod k. Oblivious to structure —
/// expected |V|/k vertices and |E|/k adjacency entries per partition with no
/// build-time graph traversal, at the price of ~(1 - 1/k) of edges being
/// cut. The right first choice when queries touch the graph uniformly; see
/// docs/ARCHITECTURE.md for when an edge-cut policy pays for itself.
class HashVertexPartitioner final : public GraphPartitioner {
 public:
  std::vector<PartitionId> Assign(const Graph& g, size_t k) const override;
  std::string name() const override { return "hash"; }
};

/// Streaming greedy edge-cut policy (linear deterministic greedy): vertices
/// are visited in id order and placed on the partition holding most of
/// their already-placed neighbors, discounted by that partition's fill
/// (score = |N(v) cap P| * (1 - |P|/C) with capacity C = |V|/k * (1+slack)).
/// One pass, no refinement — a reference implementation of the edge-cut
/// interface that beats hashing on clustered graphs, not a METIS
/// replacement.
class GreedyEdgeCutPartitioner final : public GraphPartitioner {
 public:
  explicit GreedyEdgeCutPartitioner(double balance_slack = 0.05)
      : balance_slack_(balance_slack) {}

  std::vector<PartitionId> Assign(const Graph& g, size_t k) const override;
  std::string name() const override { return "greedy-edge-cut"; }

 private:
  double balance_slack_;
};

}  // namespace gsi

#endif  // GSI_GSI_PARTITION_H_
