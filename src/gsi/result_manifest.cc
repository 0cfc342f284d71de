#include "gsi/result_manifest.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace gsi {

ResultManifest ResultManifest::FromWholeTable(MatchTable table,
                                              const gpusim::Device& owner) {
  ResultManifest m;
  m.set_cols(table.cols());
  const size_t rows = table.rows();
  const size_t part = m.AddPart(std::move(table), owner);
  m.AddSegment(part, 0, rows);
  return m;
}

size_t ResultManifest::AddPart(MatchTable table,
                               const gpusim::Device& owner) {
  if (table.rows() > 0) {
    GSI_CHECK_MSG(cols_ == 0 || table.cols() == cols_,
                  "manifest parts of different widths");
    cols_ = table.cols();
  } else if (cols_ == 0) {
    cols_ = table.cols();
  }
  parts_.push_back(Part{std::move(table), owner.ordinal(),
                        owner.fault_epoch()});
  return parts_.size() - 1;
}

void ResultManifest::AddSegment(size_t part, size_t begin, size_t count) {
  if (count == 0) return;
  GSI_CHECK(part < parts_.size());
  GSI_CHECK(begin + count <= parts_[part].table.rows());
  segments_.push_back(ManifestSegment{part, begin, count});
  total_rows_ += count;
}

void ResultManifest::set_cols(size_t cols) {
  if (cols_ == 0) cols_ = cols;
}

uint64_t ResultManifest::resident_bytes() const {
  uint64_t bytes = 0;
  for (const Part& p : parts_) {
    bytes += uint64_t{p.table.rows()} * p.table.cols() * sizeof(VertexId);
  }
  return bytes;
}

std::vector<ManifestSegment> ResultManifest::Slice(size_t row_begin,
                                                   size_t count) const {
  std::vector<ManifestSegment> out;
  size_t pos = 0;  // logical row at the head of the current segment
  for (const ManifestSegment& s : segments_) {
    if (count == 0) break;
    if (row_begin >= pos + s.count) {
      pos += s.count;
      continue;
    }
    const size_t skip = row_begin - pos;
    const size_t take = std::min(count, s.count - skip);
    out.push_back(ManifestSegment{s.part, s.begin + skip, take});
    row_begin += take;
    count -= take;
    pos += s.count;
  }
  return out;
}

void ResultManifest::CopyChunk(const ManifestSegment& chunk,
                               VertexId* dst) const {
  GSI_CHECK(chunk.part < parts_.size());
  const MatchTable& t = parts_[chunk.part].table;
  GSI_CHECK(chunk.begin + chunk.count <= t.rows());
  const size_t cols = t.cols();
  for (size_t r = 0; r < chunk.count; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      dst[r * cols + c] = t.At(chunk.begin + r, c);
    }
  }
}

MatchTable ResultManifest::Materialize(gpusim::Device& dev) && {
  // Fast path: one segment spanning one whole part — the table is already
  // the merged result; hand it over without copying (and without moving it
  // to `dev`: host consumers only read cells, never device identity).
  if (parts_.size() == 1 && segments_.size() == 1 &&
      segments_[0].begin == 0 && segments_[0].count == parts_[0].table.rows()) {
    return std::move(parts_[0].table);
  }
  MatchTable out = MatchTable::Alloc(dev, total_rows_, cols_);
  size_t at = 0;
  for (const ManifestSegment& s : segments_) {
    out.CopyRowsFrom(parts_[s.part].table, s.begin, at, s.count);
    at += s.count;
  }
  return out;
}

PagedQueryResult ToPagedResult(QueryResult result,
                               const gpusim::Device& owner) {
  PagedQueryResult paged;
  paged.manifest =
      ResultManifest::FromWholeTable(std::move(result.table), owner);
  paged.column_to_query = std::move(result.column_to_query);
  paged.stats = result.stats;
  return paged;
}

QueryResult ToQueryResult(PagedQueryResult result, gpusim::Device& dev) {
  QueryResult out;
  out.table = std::move(result.manifest).Materialize(dev);
  out.column_to_query = std::move(result.column_to_query);
  out.stats = result.stats;
  return out;
}

}  // namespace gsi
