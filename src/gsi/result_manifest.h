#ifndef GSI_GSI_RESULT_MANIFEST_H_
#define GSI_GSI_RESULT_MANIFEST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "gsi/match_table.h"
#include "gsi/matcher.h"
#include "util/common.h"

namespace gsi {

/// One contiguous run of rows inside a manifest part: `count` rows of
/// partial table `part` starting at row `begin`.
struct ManifestSegment {
  size_t part = 0;
  size_t begin = 0;
  size_t count = 0;
};

/// An ordered description of a final match table that has NOT been
/// concatenated yet: the partial tables stay where the join produced them
/// (on their owning devices), and the segment list says which runs of which
/// part, in which order, reproduce the merged table row for row.
///
/// The segment orders are the deterministic merge orders of the
/// multi-device engines: lane order for the sharded engine (its lanes
/// join contiguous seed runs, and every step emits output rows in
/// input-row order), ascending
/// column-0 seed runs for the partitioned engine (see
/// internal::PlanSeedRunMerge). So `Materialize` — and any page-at-a-time
/// walk by `Slice` — is bit-identical to single-device execution.
///
/// Each part remembers the ordinal and fault epoch of the device that
/// produced it. A consumer that charges reads against that device (the
/// serving layer's FetchPage) compares the recorded epoch against the
/// device's current one and discards the part on mismatch — the fail-stop
/// rule that nothing produced before a trip survives quarantine + repair.
class ResultManifest {
 public:
  struct Part {
    MatchTable table;
    /// ordinal() of the device that produced the table (its pool index
    /// when the device was leased from a DevicePool).
    int device_ordinal = 0;
    /// Owner's trip count when the table was produced.
    uint64_t fault_epoch = 0;
  };

  ResultManifest() = default;

  /// The degenerate manifest: one part, owned by `owner`, one segment
  /// spanning every row.
  static ResultManifest FromWholeTable(MatchTable table,
                                       const gpusim::Device& owner);

  /// Adds a partial table produced on `owner` (returns its part index).
  /// Non-empty parts must agree on width; the manifest's column count is
  /// taken from the first non-empty part (or set explicitly via set_cols
  /// for all-empty results).
  size_t AddPart(MatchTable table, const gpusim::Device& owner);

  /// Appends `count` rows of part `part` starting at `begin` to the logical
  /// row order (no-op when count == 0).
  void AddSegment(size_t part, size_t begin, size_t count);

  /// Width of an empty result (a join that died with zero matches still has
  /// a full-width table); ignored once a non-empty part fixed the width.
  void set_cols(size_t cols);

  size_t rows() const { return total_rows_; }
  size_t cols() const { return cols_; }
  size_t num_parts() const { return parts_.size(); }
  const Part& part(size_t i) const { return parts_[i]; }

  /// Bytes of partial match tables this manifest keeps resident on their
  /// owning devices (what an open cursor pins; exported as the
  /// gsi_result_resident_bytes gauge).
  uint64_t resident_bytes() const;

  /// The chunks of logical rows [row_begin, row_begin + count) in manifest
  /// order — the per-page walk. Each returned segment lies entirely inside
  /// one part.
  std::vector<ManifestSegment> Slice(size_t row_begin, size_t count) const;

  /// Host-side copy of one chunk (as returned by Slice) into `dst`
  /// (row-major, cols() values per row). Uncharged, like every
  /// host-mediated read in gpusim; the caller charges the owning device
  /// when the cost model should see the movement.
  void CopyChunk(const ManifestSegment& chunk, VertexId* dst) const;

  /// Concatenates every segment into one table allocated on `dev`
  /// (host-mediated bulk row copies, uncharged — the interconnect cost of
  /// the merge was charged when the manifest was planned). A manifest whose
  /// single segment spans its single whole part moves the table out without
  /// copying. Consumes the manifest.
  MatchTable Materialize(gpusim::Device& dev) &&;

 private:
  std::vector<Part> parts_;
  std::vector<ManifestSegment> segments_;
  size_t cols_ = 0;
  size_t total_rows_ = 0;
};

/// Result of one query in manifest form: what every execution path
/// returns. `stats` is final (the merge's interconnect cost is charged
/// at join time), so one-shot (ToQueryResult) and paged consumers observe
/// identical counters.
struct PagedQueryResult {
  ResultManifest manifest;
  std::vector<VertexId> column_to_query;
  QueryStats stats;

  size_t num_matches() const { return manifest.rows(); }
};

/// Wraps an already-materialized result, produced on `owner`, as a
/// one-part manifest (the joins' one-vertex and empty-candidate answers;
/// no copies).
PagedQueryResult ToPagedResult(QueryResult result,
                               const gpusim::Device& owner);

/// Materializes a paged result into the one-shot form on `dev` — the single
/// materializer of every execution path (uncharged host-mediated row
/// movement; see ResultManifest::Materialize).
QueryResult ToQueryResult(PagedQueryResult result, gpusim::Device& dev);

}  // namespace gsi

#endif  // GSI_GSI_RESULT_MANIFEST_H_
