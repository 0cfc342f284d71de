#ifndef GSI_GRAPH_GENERATORS_H_
#define GSI_GRAPH_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/common.h"
#include "util/rng.h"

namespace gsi {

/// Unlabeled undirected edge (generator output before label assignment).
struct RawEdge {
  VertexId src;
  VertexId dst;
};

/// Erdős–Rényi-style G(n, m): m distinct random edges.
std::vector<RawEdge> GenerateErdosRenyi(size_t n, size_t m, Rng& rng);

/// Scale-free graph via preferential attachment: vertices arrive one by one
/// and connect `edges_per_vertex` times to targets sampled proportionally to
/// degree. Produces the heavy-tailed degree distribution of the paper's
/// "rs"-type datasets (enron, gowalla, DBpedia, WatDiv).
///
/// `num_hubs` / `hub_fraction` optionally add super-hubs. Each hub draws
/// hub_fraction * n targets uniformly with replacement and drops repeats,
/// so it reaches about (1 - e^-hub_fraction) of all vertices: 18% at 0.2,
/// 59% at 0.9. The paper's real graphs have such hubs (gowalla max degree
/// is 15% of |V|, DBpedia 10%); they are what makes the load-balance
/// scheme matter.
///
/// `triad_probability` adds triangle closure (Holme-Kim triad formation):
/// after attaching to a target, the new vertex also connects to one of the
/// target's neighbours with this probability. Real social networks are
/// strongly clustered; plain preferential attachment is not.
std::vector<RawEdge> GenerateScaleFree(size_t n, size_t edges_per_vertex,
                                       Rng& rng, size_t num_hubs = 0,
                                       double hub_fraction = 0.0,
                                       double triad_probability = 0.0);

/// 2-D mesh (grid) of rows x cols vertices — the "rm" (mesh-like) shape of
/// the road_central dataset: tiny uniform degrees.
std::vector<RawEdge> GenerateMesh(size_t rows, size_t cols);

/// Plants `count` near-clique communities of `size` random vertices each,
/// appending their edges to `edges` (deduplicated against themselves, not
/// against `edges`; Graph::Create dedups globally). Returns one member
/// vertex per planted community. Real social networks have such dense
/// communities; they give query workloads with high edge counts
/// (Figure 15's |E(Q)| sweep).
std::vector<VertexId> PlantCommunities(size_t n, size_t count, size_t size,
                                       std::vector<RawEdge>& edges,
                                       Rng& rng);

/// Degree histogram helpers used by tests and dataset summaries.
std::vector<size_t> DegreesOf(size_t n, const std::vector<RawEdge>& edges);

}  // namespace gsi

#endif  // GSI_GRAPH_GENERATORS_H_
