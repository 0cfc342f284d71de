#ifndef GSI_GPUSIM_SCAN_H_
#define GSI_GPUSIM_SCAN_H_

#include <cstdint>
#include <span>

#include "gpusim/device.h"
#include "gpusim/launch.h"

namespace gsi::gpusim {

/// Device-side exclusive prefix sum over `values[0..n)`, written to
/// `out[0..n]` (out has n+1 entries; out[n] is the total). This is the
/// primitive the two-step output scheme relies on (Figure 3). Charged as
/// one kernel whose warps stream the input and output.
///
/// Returns the total (out[n]).
uint64_t ExclusiveScan(Device& dev, const DeviceBuffer<uint32_t>& values,
                       DeviceBuffer<uint64_t>& out);

/// Single-pass exclusive scan across the blocks of one block-cooperative
/// kernel (decoupled look-back; Merrill & Garland, "Single-pass Parallel
/// Prefix Scan with Decoupled Look-back", 2016). A kernel that produces
/// values also prefix-sums them, so it needs no scan launch of its own.
///
/// Each block stages its values in shared memory and calls ScanBlock once,
/// in block order. The scan keeps one 8-byte descriptor per block in
/// device memory: a status flag and a running sum. Values are 32-bit
/// counts or 64-bit sums (a block's sum of first-edge bounds can pass
/// 2^32); both are charged alike.
///
/// Charges, per block (and no kernel launch):
///  - block-local scan: the warp owning values [32t, 32t + 32) (warp t)
///    pays 2 shared accesses (stage, read back) and 2 ALU ops (up-sweep,
///    down-sweep) per value; with more than one such tile, warp 0 pays the
///    same per tile to chain the tiles;
///  - look-back, on warp 0: block 0 stores its inclusive prefix, one store
///    transaction. Every later block stores its aggregate, loads its
///    predecessor's descriptor and stores its inclusive prefix: one load
///    and two store transactions. Blocks run in launch order here, so the
///    predecessor has always published its inclusive prefix and the
///    look-back stops at the first descriptor.
class LookbackScan {
 public:
  /// Descriptors for a kernel of `num_blocks` blocks, allocated on `dev`.
  LookbackScan(Device& dev, size_t num_blocks);

  /// Scans block `block.id()`'s values (at most 32 per warp of the block):
  /// prefix[i] = every value of the earlier blocks plus vals[0..i).
  void ScanBlock(Block& block, std::span<const uint32_t> vals,
                 std::span<uint64_t> prefix);
  void ScanBlock(Block& block, std::span<const uint64_t> vals,
                 std::span<uint64_t> prefix);

  /// Sum of every value scanned so far; the kernel's total once the last
  /// block has scanned.
  uint64_t total() const { return total_; }

 private:
  template <typename T>
  void Scan(Block& block, std::span<const T> vals, std::span<uint64_t> prefix);

  DeviceBuffer<uint64_t> descriptors_;
  size_t next_block_ = 0;
  uint64_t total_ = 0;
};

}  // namespace gsi::gpusim

#endif  // GSI_GPUSIM_SCAN_H_
