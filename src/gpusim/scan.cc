#include "gpusim/scan.h"

#include "util/check.h"

namespace gsi::gpusim {

namespace {
// Elements each warp streams during the scan kernel.
constexpr size_t kScanTile = 1024;

// Look-back descriptor: a status flag in the top bits, the sum below.
constexpr uint64_t kAggregateFlag = uint64_t{1} << 62;
constexpr uint64_t kPrefixFlag = uint64_t{1} << 63;
constexpr uint64_t kSumMask = kAggregateFlag - 1;
}  // namespace

uint64_t ExclusiveScan(Device& dev, const DeviceBuffer<uint32_t>& values,
                       DeviceBuffer<uint64_t>& out) {
  size_t n = values.size();
  GSI_CHECK(out.size() >= n + 1);

  // Compute the scan host-side (the result is what matters for downstream
  // logic), then charge the cost as a tiled device kernel: each warp reads
  // its input tile, does ~2 ALU ops per element (up-sweep + down-sweep) and
  // writes its output tile.
  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    out[i] = acc;
    acc += values[i];
  }
  out[n] = acc;

  size_t num_warps = (n + kScanTile - 1) / kScanTile;
  if (num_warps == 0) num_warps = 1;
  Launch(dev, num_warps, [&](Warp& w) {
    size_t begin = w.global_id() * kScanTile;
    if (begin >= n) return;
    size_t count = std::min(kScanTile, n - begin);
    w.LoadRange(values, begin, count);
    w.Alu(2 * count);
    // Output elements are u64: charge the store range explicitly.
    w.StoreRange(out, begin, std::span<const uint64_t>(out.data() + begin,
                                                       count));
  });
  return acc;
}

LookbackScan::LookbackScan(Device& dev, size_t num_blocks)
    : descriptors_(dev.Alloc<uint64_t>(num_blocks)) {}

void LookbackScan::ScanBlock(Block& block, std::span<const uint32_t> vals,
                             std::span<uint64_t> prefix) {
  Scan(block, vals, prefix);
}

void LookbackScan::ScanBlock(Block& block, std::span<const uint64_t> vals,
                             std::span<uint64_t> prefix) {
  Scan(block, vals, prefix);
}

template <typename T>
void LookbackScan::Scan(Block& block, std::span<const T> vals,
                        std::span<uint64_t> prefix) {
  const size_t b = block.id();
  GSI_CHECK_MSG(b == next_block_ && b < descriptors_.size(),
                "LookbackScan blocks must scan once each, in block order");
  GSI_CHECK(prefix.size() >= vals.size());
  const size_t n = vals.size();
  const size_t tiles = (n + kWarpSize - 1) / kWarpSize;
  GSI_CHECK(tiles <= block.num_warps());
  ++next_block_;

  // Block-local scan: warp t scans tile t, warp 0 chains the tiles.
  uint64_t aggregate = 0;
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = aggregate;
    aggregate += vals[i];
  }
  for (size_t t = 0; t < tiles; ++t) {
    const uint64_t len = std::min<size_t>(kWarpSize, n - t * kWarpSize);
    block.warp(t).SharedAccess(2 * len);
    block.warp(t).Alu(2 * len);
  }
  Warp& w = block.warp(0);
  if (tiles > 1) {
    w.SharedAccess(2 * tiles);
    w.Alu(2 * tiles);
  }

  // Decoupled look-back (warp 0).
  uint64_t exclusive = 0;
  if (b > 0) {
    w.Store(descriptors_, b, kAggregateFlag | aggregate);
    const uint64_t pred = w.Load(descriptors_, b - 1);
    GSI_CHECK((pred & kPrefixFlag) != 0);
    exclusive = pred & kSumMask;
  }
  GSI_CHECK(exclusive + aggregate <= kSumMask);
  w.Store(descriptors_, b, kPrefixFlag | (exclusive + aggregate));
  for (size_t i = 0; i < n; ++i) prefix[i] += exclusive;
  total_ = exclusive + aggregate;
}

}  // namespace gsi::gpusim
