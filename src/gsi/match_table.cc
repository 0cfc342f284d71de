#include "gsi/match_table.h"

#include <algorithm>

#include "gpusim/launch.h"
#include "util/check.h"

namespace gsi {

MatchTable MatchTable::Alloc(gpusim::Device& dev, size_t rows, size_t cols) {
  MatchTable t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_ = dev.Alloc<VertexId>(rows * cols);
  return t;
}

MatchTable MatchTable::FromColumn(gpusim::Device& dev,
                                  const std::vector<VertexId>& column) {
  MatchTable t;
  t.rows_ = column.size();
  t.cols_ = 1;
  t.data_ = dev.Upload(std::vector<VertexId>(column));
  return t;
}

void MatchTable::Truncate(size_t rows) {
  GSI_CHECK(rows <= rows_);
  rows_ = rows;
  data_.Truncate(rows * cols_);
}

std::vector<VertexId> MatchTable::Row(size_t r) const {
  std::vector<VertexId> out(cols_);
  for (size_t c = 0; c < cols_; ++c) out[c] = At(r, c);
  return out;
}

void MatchTable::CopyRowsFrom(const MatchTable& src, size_t src_begin,
                              size_t dst_begin, size_t count) {
  if (count == 0) return;
  GSI_CHECK_MSG(src.cols_ == cols_, "row copy between different widths");
  GSI_CHECK(src_begin + count <= src.rows_);
  GSI_CHECK(dst_begin + count <= rows_);
  std::copy_n(src.data_.data() + src_begin * cols_, count * cols_,
              data_.data() + dst_begin * cols_);
}

}  // namespace gsi
