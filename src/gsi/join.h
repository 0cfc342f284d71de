#ifndef GSI_GSI_JOIN_H_
#define GSI_GSI_JOIN_H_

#include <cstdint>
#include <functional>
#include <optional>
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
};

/// The joining phase (Algorithm 2's loop body, Algorithms 3-5): joins the
/// intermediate table with one candidate set per iteration on the simulated
/// device.
///
/// A Prealloc-Combine step launches three kernels: bounds and offsets
/// (FirstEdgeBounds), Pass A (one launch for Layers 2-4, plus one per
/// Layer-1 row) and link. Step 0's bounds kernel also writes the seed
/// column (Seed). kTwoStep runs the GpSM scheme's count, scan and write
/// kernels, after a separate seed copy.
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

  /// A seeded table and, under Prealloc-Combine, step 0's sizing, which
  /// the seeding kernel computed on the way.
  struct Seeded {
    MatchTable table;
    std::optional<StepBounds> first_bounds;
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
  /// the seed column, and the sizing comes back in `first_bounds`.
  /// Otherwise it is one streaming copy kernel.
  Seeded Seed(const JoinPlan& plan,
              const gpusim::DeviceBuffer<VertexId>& seed);

  /// Runs join iterations [first_step, last_step) of the plan on `m`
  /// (which must bind plan.order[0 .. first_step]), accumulating into the
  /// engine's stats. Exposed so the sharded engine can run one step at a
  /// time, on one device or over row slices of the intermediate table:
  /// step output rows are emitted in input-row order, so running any
  /// contiguous row slice yields exactly that slice's portion of the whole
  /// run, in order. `first_bounds`, when set, is the sizing of `m` for
  /// plan.steps[first_step] (FirstEdgeBounds, or a row slice of it);
  /// Prealloc-Combine then launches only Pass A and link for that step
  /// (kTwoStep ignores it).
  Result<MatchTable> RunSteps(const JoinPlan& plan,
                              const std::vector<CandidateSet>& candidates,
                              MatchTable m, size_t first_step,
                              size_t last_step,
                              std::optional<StepBounds> first_bounds = {});

  /// Algorithm 4 in one kernel: the first-edge upper bound of every row of
  /// `m` for `step` (one warp gathers the e0 column of 32 rows) and their
  /// exclusive prefix sum, the GBA offsets. Each block scans its 1024
  /// bounds in shared memory and chains to the blocks before it by
  /// decoupled look-back (gpusim::LookbackScan). The sharded engine also
  /// decides and balances its fan-out by the bounds.
  StepBounds FirstEdgeBounds(const MatchTable& m, const JoinStep& step);

  const JoinStats& stats() const { return stats_; }

  /// Attaches a trace context: RunSteps then opens one span per join step
  /// (timed by this engine's device cycle clock, attributed to the
  /// context's device). Lives outside JoinOptions so option equality (the
  /// FilterCache key, config comparisons) never depends on telemetry.
  void set_trace(const obs::TraceContext& trace) { trace_ = trace; }

 private:
  /// Reads the e0 bindings of rows [r0, r0 + lanes) into `vs`.
  using RowFetch =
      std::function<void(gpusim::Warp&, size_t r0, size_t lanes,
                         VertexId* vs)>;

  /// The bounds-and-offsets kernel over `rows` rows whose e0 bindings
  /// `fetch` reads.
  StepBounds SizeStep(size_t rows, const JoinStep& step,
                      const RowFetch& fetch);

  Result<MatchTable> StepPrealloc(const MatchTable& m, const JoinStep& step,
                                  const CandidateSet& cand,
                                  const StepBounds& sizing);
  Result<MatchTable> StepTwoStep(const MatchTable& m, const JoinStep& step,
                                 const CandidateSet& cand);

  /// Executes the set operations of Algorithm 3 (Lines 5-13) for one chunk.
  /// Survivors land in `result` (and, when `gba` is non-null, in
  /// gba[chunk.gba_begin - gba_base ...]).
  void ProcessChunk(gpusim::Warp& w, Chunk& chunk, const MatchTable& m,
                    const JoinStep& step, const CandidateSet& cand,
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
