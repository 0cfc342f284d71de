#ifndef GSI_GSI_JOIN_H_
#define GSI_GSI_JOIN_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "gsi/candidates.h"
#include "gsi/load_balance.h"
#include "gsi/match_table.h"
#include "gsi/plan.h"
#include "obs/trace.h"
#include "storage/neighbor_store.h"
#include "util/status.h"

namespace gsi {

class BlockExtractionCache;

/// Graph storage used by the join (Table II / Table VI "+DS").
enum class StorageKind { kCsr, kPcsr, kBasicRep, kCompressedRep };

/// How join results reach global memory (Table VI "+PC"):
/// kTwoStep — the GpSM/GunrockSM scheme: run the join once to count, prefix
///            sum, run the identical join again to write (Example 1).
/// kPreallocCombine — GSI's scheme: pre-allocate one combined buffer (GBA)
///            sized by the first-edge upper bounds and join once
///            (Algorithms 3/4).
enum class OutputScheme { kTwoStep, kPreallocCombine };

/// Inner set-operation implementation (Table VI "+SO").
enum class SetOpKind { kNaive, kWarpFriendly };

/// Configuration of the joining phase; the ablation axes of Tables VI-XI.
struct JoinOptions {
  StorageKind storage = StorageKind::kPcsr;
  OutputScheme output_scheme = OutputScheme::kPreallocCombine;
  SetOpKind set_op = SetOpKind::kWarpFriendly;
  /// 128B per-warp write cache (Table VII). Only effective with
  /// kWarpFriendly set ops.
  bool write_cache = true;
  /// 4-layer load-balance scheme (Section VI-A, Tables VIII-X).
  bool load_balance = false;
  /// In-block duplicate removal (Section VI-B, Tables VIII/XI).
  bool duplicate_removal = false;
  /// Load-balance thresholds; W2 is fixed to the block size (1024).
  uint32_t w1 = 4096;
  uint32_t w3 = 256;
  /// PCSR group size in pairs.
  int gpn = 16;
  /// Intermediate-table row budget; exceeding it aborts the query with
  /// kResourceExhausted (exponential blowup guard).
  size_t max_rows = 4u * 1024 * 1024;

  friend bool operator==(const JoinOptions&, const JoinOptions&) = default;
};

/// Counters of one join execution.
struct JoinStats {
  size_t iterations = 0;
  size_t peak_rows = 0;
  size_t final_rows = 0;
  size_t total_chunks = 0;
  size_t dup_cache_hits = 0;
  size_t dup_cache_misses = 0;
  /// Pass A blocks that staged C(u)'s bitset in shared memory for their
  /// membership probes (see JoinEngine); summed over slices and lanes, as
  /// total_chunks is.
  size_t staged_blocks = 0;
};

/// The joining phase (Algorithm 2's loop body, Algorithms 3-5): joins the
/// intermediate table with one candidate set per iteration on the simulated
/// device.
///
/// A Prealloc-Combine step launches two kernels: Pass A (one launch for
/// Layers 2-4, plus one per Layer-1 row) and link. Under the GPU-friendly
/// set op, a Pass A block whose distinct first-edge slice elements reach
/// the 128B line count of C(u)'s bitset, and whose shared memory holds the
/// bitset beside its other buffers, loads the bitset into shared memory
/// once and probes it there (JoinStats::staged_blocks counts them). The
/// link kernel that writes M' also writes the next step's sizing
/// (Algorithm 4: every new row's first-edge bound and GBA offset), so no
/// step after the first launches a sizing kernel; step 0's sizing comes
/// from the seed kernel, which also writes the seed column (Seed). A query
/// of |V(Q)| vertices therefore launches 2|V(Q)| - 1 join kernels plus one
/// per Layer-1 row.
/// kTwoStep runs the GpSM scheme's count, scan and write kernels, after a
/// separate seed copy.
class JoinEngine {
 public:
  /// Algorithm 4's sizing of one Prealloc-Combine step.
  struct StepBounds {
    /// First-edge upper bound |N(v'_i, l0)| of every row.
    gpusim::DeviceBuffer<uint32_t> bounds;
    /// Exclusive prefix sum of the bounds, rows + 1 entries: row i's GBA
    /// offset, and the GBA's end last.
    gpusim::DeviceBuffer<uint64_t> offsets;
    /// offsets[0] of a row slice cut from a whole table's sizing. Pass A
    /// and link take it as a kernel argument and subtract it, so the
    /// slice addresses its own GBA without rewriting the offsets.
    uint64_t base = 0;
  };

  /// A match table and, under Prealloc-Combine when a step follows, that
  /// step's sizing, which the kernel that wrote the table computed on the
  /// way (the seed kernel for step 0, the previous step's link kernel
  /// after it).
  struct SizedTable {
    MatchTable table;
    std::optional<StepBounds> sizing;
  };

  JoinEngine(gpusim::Device* dev, const NeighborStore* store,
             const JoinOptions& options)
      : dev_(dev), store_(store), options_(options) {}

  /// Runs the whole join from `seed`, which is C(order[0]) or a partition's
  /// owned share of it; returns the final match table whose column j holds
  /// the binding of plan.order[j]. Equivalent to Seed + RunSteps over every
  /// step.
  Result<MatchTable> Run(const JoinPlan& plan,
                         const std::vector<CandidateSet>& candidates,
                         const gpusim::DeviceBuffer<VertexId>& seed);

  /// The join's one seed entry (Algorithm 2, Line 7): M = `seed`, and
  /// resets the engine's stats. Under Prealloc-Combine (with at least one
  /// step) this is step 0's bounds-and-offsets kernel, which also writes
  /// the seed column, and step 0's sizing comes back with the table.
  /// Otherwise it is one streaming copy kernel.
  SizedTable Seed(const JoinPlan& plan,
                  const gpusim::DeviceBuffer<VertexId>& seed);

  /// Runs join iterations [first_step, last_step) of the plan on `m`
  /// (whose table must bind plan.order[0 .. first_step]), accumulating
  /// into the engine's stats. Exposed so the sharded engine can run one
  /// step at a time, on one device or over row slices of the intermediate
  /// table: step output rows are emitted in input-row order, so running
  /// any contiguous row slice yields exactly that slice's portion of the
  /// whole run, in order.
  ///
  /// Under Prealloc-Combine `m.sizing` must be the sizing of m's table for
  /// plan.steps[first_step] (Seed's, a previous RunSteps', or a row slice
  /// of one); each step's link kernel writes the next step's, and the
  /// sizing for plan.steps[last_step] comes back with the table (none
  /// after the plan's last step, or once the table is empty). kTwoStep
  /// ignores and returns no sizing.
  Result<SizedTable> RunSteps(const JoinPlan& plan,
                              const std::vector<CandidateSet>& candidates,
                              SizedTable m, size_t first_step,
                              size_t last_step);

  const JoinStats& stats() const { return stats_; }

  /// Attaches a trace context: RunSteps then opens one span per join step
  /// (timed by this engine's device cycle clock, attributed to the
  /// context's device). Lives outside JoinOptions so option equality (the
  /// FilterCache key, config comparisons) never depends on telemetry.
  void set_trace(const obs::TraceContext& trace) { trace_ = trace; }

 private:
  /// Pass A and link of one step. When `next` is set the link kernel also
  /// writes the sizing of M' for `next`.
  Result<SizedTable> StepPrealloc(const MatchTable& m, const JoinStep& step,
                                  const JoinStep* next,
                                  const CandidateSet& cand,
                                  const StepBounds& sizing);
  Result<SizedTable> StepTwoStep(const MatchTable& m, const JoinStep& step,
                                 const CandidateSet& cand);

  /// Executes the set operations of Algorithm 3 (Lines 5-13) for one chunk
  /// of `row`, its row of M. Survivors land in `result` (and, when `gba` is
  /// non-null, in gba[chunk.gba_begin - gba_base ...]).
  void ProcessChunk(gpusim::Warp& w, Chunk& chunk,
                    std::span<const VertexId> row, const JoinStep& step,
                    const CandidateSet& cand,
                    gpusim::DeviceBuffer<VertexId>* gba, uint64_t gba_base,
                    BlockExtractionCache& cache,
                    std::vector<VertexId>& result);

  gpusim::Device* dev_;
  const NeighborStore* store_;
  JoinOptions options_;
  JoinStats stats_;
  obs::TraceContext trace_;
};

}  // namespace gsi

#endif  // GSI_GSI_JOIN_H_
