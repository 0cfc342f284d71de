#ifndef GSI_STORAGE_PCSR_H_
#define GSI_STORAGE_PCSR_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "graph/graph.h"
#include "storage/neighbor_store.h"
#include "storage/partition.h"
#include "util/status.h"

namespace gsi {

/// One (vertex, offset) pair in a PCSR group (Definition 4). In the last
/// slot of a group, `v` is reinterpreted as GID (next group in the overflow
/// chain, kInvalidVertex for -1) and `ov` as END (end offset of the last
/// vertex listed in this group).
struct PcsrPair {
  VertexId v = kInvalidVertex;
  uint32_t ov = 0;
};
static_assert(sizeof(PcsrPair) == 8, "group layout requires 8B pairs");

/// PCSR for a single edge label l-partitioned graph (Definition 4):
/// a hashed row-offset layer of fixed-size groups plus the column index.
/// With GPN=16, one group is exactly one 128B transaction.
class PcsrPartition {
 public:
  /// Builds PCSR per Algorithm 1. `gpn` is the group size in pairs
  /// (2 <= gpn <= 16; the paper uses 16 to fill a transaction).
  static Result<PcsrPartition> Build(gpusim::Device& dev,
                                     const LabelPartition& part, int gpn = 16);

  /// |N(v, l)| (exact — found in the group pair, no column read needed).
  size_t NeighborCount(gpusim::Warp& w, VertexId v) const;

  /// Extracts positions [begin, end) of N(v, l) (`end` clamped to the
  /// count): hash to a group, stream groups along the overflow chain until
  /// v is found or the chain ends. Charges one 128B load per group visited
  /// plus the column-index range read.
  size_t ExtractSlice(gpusim::Warp& w, VertexId v, size_t begin, size_t end,
                      std::vector<VertexId>& out) const;

  /// Extracts the values of N(v, l) within [lo, hi] (binary search in ci).
  size_t ExtractValueRange(gpusim::Warp& w, VertexId v, VertexId lo,
                           VertexId hi, std::vector<VertexId>& out) const;

  /// Host-side lookup for tests: returns (found, begin, count, groups
  /// probed).
  struct LookupInfo {
    bool found = false;
    size_t begin = 0;
    size_t count = 0;
    size_t groups_probed = 0;
  };
  LookupInfo HostLookup(VertexId v) const;

  int gpn() const { return gpn_; }
  size_t num_groups() const { return num_groups_; }
  /// Longest overflow chain created at build time (paper: <= 3 groups in
  /// theory for GPN=16; <= 1 extra group observed in all experiments).
  size_t max_chain_length() const { return max_chain_length_; }

  uint64_t device_bytes() const;

 private:
  PcsrPartition() = default;

  size_t GroupOf(VertexId v) const;

  /// Charged group-chain probe; returns (found, begin, count).
  LookupInfo Locate(gpusim::Warp& w, VertexId v) const;

  gpusim::DeviceBuffer<PcsrPair> groups_;   // num_groups_ * gpn_
  gpusim::DeviceBuffer<VertexId> ci_;       // column index
  size_t num_groups_ = 0;
  int gpn_ = 16;
  size_t max_chain_length_ = 1;
};

/// PCSR store for a whole graph: one PcsrPartition per edge label
/// (Section IV; total space O(|E(G)|)).
class PcsrStore final : public NeighborStore {
 public:
  /// BuildSubset over every vertex of g.
  static std::unique_ptr<PcsrStore> Build(gpusim::Device& dev, const Graph& g,
                                          int gpn = 16);

  /// Builds the PCSR share of one *device partition*: only the adjacency
  /// rows of `vertices` (ascending) are stored (neighbor ids stay global).
  /// Hash-layer groups are sized to the share's key count, so the K shares
  /// of a graph sum to exactly the bytes of the replicated store:
  /// per-device residency really is ~1/K. Lookups of other vertices report
  /// "not found" (count 0) — the partitioned execution path never issues
  /// them locally; it routes them to the owner as remote probes
  /// (gsi/replication.h).
  static std::unique_ptr<PcsrStore> BuildSubset(
      gpusim::Device& dev, const Graph& g, std::span<const VertexId> vertices,
      int gpn = 16);

  size_t NeighborCountUpperBound(gpusim::Warp& w, VertexId v,
                                 Label l) const override;

  size_t ExtractSlice(gpusim::Warp& w, VertexId v, Label l, size_t begin,
                      size_t end, std::vector<VertexId>& out) const override;

  size_t ExtractValueRange(gpusim::Warp& w, VertexId v, Label l, VertexId lo,
                           VertexId hi,
                           std::vector<VertexId>& out) const override;

  uint64_t device_bytes() const override;
  std::string name() const override { return "PCSR"; }

  /// Max overflow-chain length across all partitions.
  size_t max_chain_length() const;

  const PcsrPartition* partition(Label l) const;

 private:
  PcsrStore() = default;

  std::unordered_map<Label, size_t> label_index_;
  std::vector<PcsrPartition> per_label_;
};

}  // namespace gsi

#endif  // GSI_STORAGE_PCSR_H_
