#ifndef GSI_GSI_JOIN_LANES_H_
#define GSI_GSI_JOIN_LANES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "gsi/candidates.h"
#include "gsi/join.h"
#include "gsi/match_table.h"
#include "gsi/plan.h"
#include "obs/trace.h"
#include "storage/neighbor_store.h"
#include "util/status.h"

// The one fan-out of a join over devices, shared by the full-replica join
// (sharded_engine.h) and the partitioned join (replication.h).
// Implementation detail — include only from gsi/*.cc.

namespace gsi::internal {

/// One lane of a fanned-out join: `dev` joins `seeds`, a subsequence of
/// C(order[0]), over `store`, from step 0 to the plan's last step in one
/// JoinEngine.
struct JoinLane {
  gpusim::Device* dev = nullptr;
  const NeighborStore* store = nullptr;
  /// Device track of the lane's spans.
  int32_t track = 0;
  /// The lane's seed column, on `dev`. With step 0's sizing (the seed
  /// kernel that wrote it ran before the split) the lane starts at step 0;
  /// a lane handed no sizing seeds itself (JoinEngine::Seed).
  JoinEngine::SizedTable seeds;
  /// The lane span's `partitions` attr; empty (no attr) off the
  /// partitioned path.
  std::string partitions;
};

/// The lanes' tables and their roll-up.
struct LaneResults {
  /// Lane i's final table, on lanes[i].dev (full-width and empty when the
  /// lane had no seeds).
  std::vector<MatchTable> tables;
  /// Counters summed over the lanes with seeds: the lanes' total work.
  gpusim::MemStats counters;
  /// Summed over the lanes with seeds, except iterations (the longest
  /// lane's, which is the one-device join's) and peak_rows (the sum of the
  /// lanes' peaks: their tables are resident at once). final_rows is the
  /// tables' total.
  JoinStats detail;
  /// The lanes run concurrently: the slowest lane's join time.
  double makespan_ms = 0;
  /// Max / mean join time over the lanes with seeds (0 when none has).
  double skew = 0;
};

/// Called on lane i's thread after its join, inside its `lane` span (whose
/// context it gets, for spans nested under it), with the device clock at
/// the join's start. Not called for a lane without seeds.
using LaneDone = std::function<void(size_t lane, const obs::TraceContext& span,
                                    uint64_t start_ns)>;

/// Runs every lane concurrently, one host thread and one JoinEngine per
/// lane, each under one `lane` span (attrs `partitions` when set, and
/// `seed_rows`) below `trace`. A lane's table and counters are a function
/// of its seeds and its device's store view, never of thread scheduling.
/// Fails with the first failing lane's status, in lane order.
Result<LaneResults> RunJoinLanes(std::vector<JoinLane> lanes,
                                 const JoinPlan& plan,
                                 const std::vector<CandidateSet>& candidates,
                                 const JoinOptions& options,
                                 const obs::TraceContext& trace,
                                 const LaneDone& done = {});

}  // namespace gsi::internal

#endif  // GSI_GSI_JOIN_LANES_H_
