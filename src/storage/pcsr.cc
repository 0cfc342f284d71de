#include "storage/pcsr.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "storage/list_search.h"
#include "util/check.h"

namespace gsi {
namespace {

/// One-to-one multiplicative hash onto [0, num_groups).
size_t HashVertex(VertexId v, size_t num_groups) {
  return (static_cast<uint64_t>(v) * 0x9E3779B1ull) % num_groups;
}

}  // namespace

size_t PcsrPartition::GroupOf(VertexId v) const {
  return HashVertex(v, num_groups_);
}

Result<PcsrPartition> PcsrPartition::Build(gpusim::Device& dev,
                                           const LabelPartition& part,
                                           int gpn) {
  if (gpn < 2 || gpn > 16) {
    return Status::InvalidArgument("GPN must be in [2, 16]");
  }
  PcsrPartition p;
  p.gpn_ = gpn;
  const size_t num_keys = part.vertices.size();
  p.num_groups_ = num_keys;
  if (num_keys == 0) {
    p.groups_ = dev.Alloc<PcsrPair>(0);
    p.ci_ = dev.Alloc<VertexId>(0);
    return p;
  }

  const size_t keys_per_group = static_cast<size_t>(gpn) - 1;

  // --- Algorithm 1, Lines 3-4: hash every key to its group. Buckets hold
  // indices into part.vertices so degrees stay accessible.
  std::vector<std::vector<uint32_t>> bucket(num_keys);
  for (uint32_t i = 0; i < num_keys; ++i) {
    bucket[HashVertex(part.vertices[i], num_keys)].push_back(i);
  }

  // --- Lines 5-8: resolve overflow via chains of empty groups (Claim 1
  // guarantees enough of them).
  std::deque<size_t> empties;
  for (size_t g = 0; g < num_keys; ++g) {
    if (bucket[g].empty()) empties.push_back(g);
  }
  // keys_of[g]: keys finally stored in group g; next_gid[g]: chain link.
  std::vector<std::vector<uint32_t>> keys_of(num_keys);
  std::vector<VertexId> next_gid(num_keys, kInvalidVertex);
  size_t max_chain = 1;
  for (size_t g = 0; g < num_keys; ++g) {
    if (bucket[g].empty()) continue;
    size_t chain_len = 1;
    size_t cur = g;
    for (size_t taken = 0; taken < bucket[g].size();
         taken += keys_per_group) {
      if (taken > 0) {
        // Need one more group for this chunk.
        GSI_CHECK_MSG(!empties.empty(), "Claim 1 violated: no empty group");
        size_t next = empties.front();
        empties.pop_front();
        next_gid[cur] = static_cast<VertexId>(next);
        cur = next;
        ++chain_len;
      }
      size_t end = std::min(bucket[g].size(), taken + keys_per_group);
      keys_of[cur].assign(bucket[g].begin() + taken, bucket[g].begin() + end);
    }
    max_chain = std::max(max_chain, chain_len);
  }
  p.max_chain_length_ = max_chain;

  // --- Lines 9-13: lay out offsets and the column index in group-scan
  // order; each group's END is the end offset of its last vertex.
  std::vector<PcsrPair> groups(num_keys * gpn);
  std::vector<VertexId> ci(part.neighbors.size());
  size_t pos = 0;
  for (size_t g = 0; g < num_keys; ++g) {
    PcsrPair* slot = &groups[g * gpn];
    GSI_CHECK(keys_of[g].size() <= keys_per_group);
    for (size_t j = 0; j < keys_of[g].size(); ++j) {
      uint32_t key_index = keys_of[g][j];
      VertexId v = part.vertices[key_index];
      size_t deg = part.offsets[key_index + 1] - part.offsets[key_index];
      slot[j] = PcsrPair{v, static_cast<uint32_t>(pos)};
      std::copy(part.neighbors.begin() +
                    static_cast<ptrdiff_t>(part.offsets[key_index]),
                part.neighbors.begin() +
                    static_cast<ptrdiff_t>(part.offsets[key_index + 1]),
                ci.begin() + static_cast<ptrdiff_t>(pos));
      pos += deg;
    }
    // Unused middle slots stay {kInvalidVertex, 0}; the last slot is the
    // (GID, END) overflow flag.
    slot[gpn - 1] = PcsrPair{next_gid[g], static_cast<uint32_t>(pos)};
  }
  GSI_CHECK(pos == ci.size());

  p.groups_ = dev.Upload(std::move(groups));
  p.ci_ = dev.Upload(std::move(ci));
  return p;
}

PcsrPartition::LookupInfo PcsrPartition::HostLookup(VertexId v) const {
  LookupInfo info;
  if (num_groups_ == 0) return info;
  size_t g = GroupOf(v);
  while (true) {
    ++info.groups_probed;
    const PcsrPair* slot = groups_.data() + g * gpn_;
    for (int j = 0; j + 1 < gpn_; ++j) {
      if (slot[j].v == v) {
        info.found = true;
        info.begin = slot[j].ov;
        uint32_t end = (j + 2 < gpn_ && slot[j + 1].v != kInvalidVertex)
                           ? slot[j + 1].ov
                           : slot[gpn_ - 1].ov;  // END
        info.count = end - slot[j].ov;
        return info;
      }
    }
    VertexId gid = slot[gpn_ - 1].v;
    if (gid == kInvalidVertex) return info;  // chain exhausted
    g = gid;
  }
}

PcsrPartition::LookupInfo PcsrPartition::Locate(gpusim::Warp& w,
                                                VertexId v) const {
  LookupInfo info;
  if (num_groups_ == 0) return info;
  size_t g = GroupOf(v);
  w.Alu(1);  // hash
  while (true) {
    // Read the whole group with one transaction and probe all pairs with
    // the warp's lanes (steps 2-3 of the lookup procedure, Section IV).
    ++info.groups_probed;
    std::span<const PcsrPair> slot =
        w.LoadRange(groups_, g * gpn_, static_cast<size_t>(gpn_));
    w.Alu(static_cast<uint64_t>(gpn_));
    for (int j = 0; j + 1 < gpn_; ++j) {
      if (slot[j].v == v) {
        uint32_t end = (j + 2 < gpn_ && slot[j + 1].v != kInvalidVertex)
                           ? slot[j + 1].ov
                           : slot[gpn_ - 1].ov;  // END
        info.found = true;
        info.begin = slot[j].ov;
        info.count = end - slot[j].ov;
        return info;
      }
    }
    VertexId gid = slot[gpn_ - 1].v;
    if (gid == kInvalidVertex) return info;
    g = gid;
  }
}

size_t PcsrPartition::NeighborCount(gpusim::Warp& w, VertexId v) const {
  LookupInfo info = Locate(w, v);
  return info.found ? info.count : 0;
}

size_t PcsrPartition::ExtractSlice(gpusim::Warp& w, VertexId v, size_t begin,
                                   size_t end,
                                   std::vector<VertexId>& out) const {
  LookupInfo info = Locate(w, v);
  if (!info.found) return 0;
  end = std::min(end, info.count);
  if (begin >= end) return 0;
  std::span<const VertexId> nbrs =
      w.LoadRange(ci_, info.begin + begin, end - begin);
  out.insert(out.end(), nbrs.begin(), nbrs.end());
  return end - begin;
}

size_t PcsrPartition::ExtractValueRange(gpusim::Warp& w, VertexId v,
                                        VertexId lo, VertexId hi,
                                        std::vector<VertexId>& out) const {
  LookupInfo info = Locate(w, v);
  if (!info.found || info.count == 0) return 0;
  size_t b = LowerBoundCharged(w, ci_, info.begin, info.begin + info.count,
                               lo);
  size_t e = UpperBoundCharged(w, ci_, b, info.begin + info.count, hi);
  if (b >= e) return 0;
  std::span<const VertexId> nbrs = w.LoadRange(ci_, b, e - b);
  out.insert(out.end(), nbrs.begin(), nbrs.end());
  return e - b;
}

uint64_t PcsrPartition::device_bytes() const {
  return groups_.size() * sizeof(PcsrPair) + ci_.size() * sizeof(VertexId);
}

std::unique_ptr<PcsrStore> PcsrStore::Build(gpusim::Device& dev,
                                            const Graph& g, int gpn) {
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  return BuildSubset(dev, g, all, gpn);
}

std::unique_ptr<PcsrStore> PcsrStore::BuildSubset(
    gpusim::Device& dev, const Graph& g, std::span<const VertexId> vertices,
    int gpn) {
  auto store = std::unique_ptr<PcsrStore>(new PcsrStore());
  for (LabelPartition& built : PartitionByEdgeLabel(g, vertices)) {
    // Moved out so each label's host copy is released once it is built.
    const LabelPartition part = std::move(built);
    Result<PcsrPartition> p = PcsrPartition::Build(dev, part, gpn);
    GSI_CHECK_MSG(p.ok(), "PCSR build failed");
    store->label_index_[part.label] = store->per_label_.size();
    store->per_label_.push_back(std::move(p.value()));
  }
  return store;
}

const PcsrPartition* PcsrStore::partition(Label l) const {
  auto it = label_index_.find(l);
  if (it == label_index_.end()) return nullptr;
  return &per_label_[it->second];
}

size_t PcsrStore::NeighborCountUpperBound(gpusim::Warp& w, VertexId v,
                                          Label l) const {
  const PcsrPartition* p = partition(l);
  if (p == nullptr) return 0;
  return p->NeighborCount(w, v);
}

size_t PcsrStore::ExtractSlice(gpusim::Warp& w, VertexId v, Label l,
                               size_t begin, size_t end,
                               std::vector<VertexId>& out) const {
  const PcsrPartition* p = partition(l);
  if (p == nullptr) return 0;
  return p->ExtractSlice(w, v, begin, end, out);
}

size_t PcsrStore::ExtractValueRange(gpusim::Warp& w, VertexId v, Label l,
                                    VertexId lo, VertexId hi,
                                    std::vector<VertexId>& out) const {
  const PcsrPartition* p = partition(l);
  if (p == nullptr) return 0;
  return p->ExtractValueRange(w, v, lo, hi, out);
}

uint64_t PcsrStore::device_bytes() const {
  uint64_t total = 0;
  for (const PcsrPartition& p : per_label_) total += p.device_bytes();
  return total;
}

size_t PcsrStore::max_chain_length() const {
  size_t m = 0;
  for (const PcsrPartition& p : per_label_) {
    m = std::max(m, p.max_chain_length());
  }
  return m;
}

}  // namespace gsi
