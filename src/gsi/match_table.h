#ifndef GSI_GSI_MATCH_TABLE_H_
#define GSI_GSI_MATCH_TABLE_H_

#include <vector>

#include "gpusim/device.h"
#include "util/common.h"

namespace gsi {

/// The intermediate result table M: each row is a partial match, column j
/// holds the data vertex matched to the j-th plan vertex (Table I).
/// Row-major in device memory so one warp streams one row.
class MatchTable {
 public:
  MatchTable() = default;

  /// Allocates rows x cols on the device.
  static MatchTable Alloc(gpusim::Device& dev, size_t rows, size_t cols);

  /// Seeds a one-column table from a candidate list (Algorithm 2 Line 7).
  static MatchTable FromColumn(gpusim::Device& dev,
                               const std::vector<VertexId>& column);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  gpusim::DeviceBuffer<VertexId>& data() { return data_; }
  const gpusim::DeviceBuffer<VertexId>& data() const { return data_; }

  /// Host access to cell (r, c).
  VertexId At(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  void Set(size_t r, size_t c, VertexId v) { data_[r * cols_ + c] = v; }

  /// Keeps the first `rows` rows (at most rows()), for a table allocated
  /// at an upper bound of its rows (DeviceBuffer::Truncate).
  void Truncate(size_t rows);

  /// Copies row r to a host vector.
  std::vector<VertexId> Row(size_t r) const;

  /// Bulk host-side copy of `count` rows of `src` (starting at `src_begin`)
  /// into this table at `dst_begin`. Both tables must have the same column
  /// count; rows are stored contiguously, so this is one memcpy instead of
  /// count * cols At/Set round trips. Host-mediated, hence uncharged (the
  /// gpusim convention for host <-> device movement).
  void CopyRowsFrom(const MatchTable& src, size_t src_begin, size_t dst_begin,
                    size_t count);

 private:
  gpusim::DeviceBuffer<VertexId> data_;
  size_t rows_ = 0;
  size_t cols_ = 0;
};

}  // namespace gsi

#endif  // GSI_GSI_MATCH_TABLE_H_
