#ifndef GSI_GPUSIM_LAUNCH_H_
#define GSI_GPUSIM_LAUNCH_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/device_buffer.h"
#include "gpusim/gpusim.h"
#include "gpusim/shared_memory.h"
#include "util/check.h"

namespace gsi::gpusim {

/// Execution context of one warp inside a kernel. All global-memory traffic
/// of kernel code must go through this class so that the transaction
/// counters (GLD/GST) and the per-warp cycle cost are maintained.
///
/// The data itself is accessed directly (the "device" is host memory); only
/// the *accounting* is simulated. This keeps algorithms bit-exact while
/// producing the architectural metrics the paper reports.
class Warp {
 public:
  Warp(Device* dev, SharedMemory* shared, size_t global_id, size_t block_id,
       size_t id_in_block)
      : dev_(dev),
        shared_(shared),
        global_id_(global_id),
        block_id_(block_id),
        id_in_block_(id_in_block) {}

  size_t global_id() const { return global_id_; }
  size_t block_id() const { return block_id_; }
  size_t id_in_block() const { return id_in_block_; }

  Device& device() { return *dev_; }
  SharedMemory& shared() { return *shared_; }

  /// Single-lane load of one element: one full transaction.
  template <typename T>
  T Load(const DeviceBuffer<T>& b, size_t i) {
    ChargeLoad(Device::RangeTransactions(b.AddressOf(i), sizeof(T)));
    return b[i];
  }

  /// Warp-cooperative read of a contiguous range; the 32 lanes stream the
  /// range so transactions = distinct 128B lines covered. Zero-copy.
  template <typename T>
  std::span<const T> LoadRange(const DeviceBuffer<T>& b, size_t begin,
                               size_t count) {
    GSI_CHECK(begin + count <= b.size());
    ChargeLoad(Device::RangeTransactions(b.AddressOf(begin),
                                         count * sizeof(T)));
    return std::span<const T>(b.data() + begin, count);
  }

  /// Warp gather: lane k loads b[idx[k]]. Transactions follow the hardware
  /// coalescing rule (distinct 128B lines over all lanes).
  template <typename T>
  void Gather(const DeviceBuffer<T>& b, std::span<const uint64_t> idx,
              std::span<T> out) {
    GSI_CHECK(idx.size() <= static_cast<size_t>(kWarpSize));
    GSI_CHECK(out.size() >= idx.size());
    uint64_t addrs[kWarpSize];
    for (size_t k = 0; k < idx.size(); ++k) addrs[k] = b.AddressOf(idx[k]);
    ChargeLoad(Device::CoalescedTransactions({addrs, idx.size()}, sizeof(T)));
    for (size_t k = 0; k < idx.size(); ++k) out[k] = b[idx[k]];
  }

  /// Single-lane store.
  template <typename T>
  void Store(DeviceBuffer<T>& b, size_t i, T v) {
    ChargeStore(Device::RangeTransactions(b.AddressOf(i), sizeof(T)));
    b[i] = v;
  }

  /// Warp-cooperative contiguous store.
  template <typename T>
  void StoreRange(DeviceBuffer<T>& b, size_t begin,
                  std::span<const T> vals) {
    GSI_CHECK(begin + vals.size() <= b.size());
    ChargeStore(Device::RangeTransactions(b.AddressOf(begin),
                                          vals.size() * sizeof(T)));
    for (size_t k = 0; k < vals.size(); ++k) b[begin + k] = vals[k];
  }

  /// Warp scatter: lane k stores vals[k] to b[idx[k]].
  template <typename T>
  void Scatter(DeviceBuffer<T>& b, std::span<const uint64_t> idx,
               std::span<const T> vals) {
    GSI_CHECK(idx.size() <= static_cast<size_t>(kWarpSize));
    uint64_t addrs[kWarpSize];
    for (size_t k = 0; k < idx.size(); ++k) addrs[k] = b.AddressOf(idx[k]);
    ChargeStore(Device::CoalescedTransactions({addrs, idx.size()}, sizeof(T)));
    for (size_t k = 0; k < idx.size(); ++k) b[idx[k]] = vals[k];
  }

  /// Charges n global-load transactions without data movement (for access
  /// patterns modelled analytically, e.g. scattered baseline scans).
  void ChargeLoadTransactions(uint64_t n) { ChargeLoad(n); }
  /// Charges n global-store transactions without data movement.
  void ChargeStoreTransactions(uint64_t n) { ChargeStore(n); }

  /// Charges the interconnect premium for n 128B lines that were read from
  /// a *peer* device's memory (the partitioned data graph's remote probes).
  /// The reads themselves are charged as ordinary gld by whoever issued
  /// them; this adds remote_transaction_extra_cycles per line on top and
  /// counts the lines in stats().remote_transactions.
  void ChargeRemoteTransactions(uint64_t n) {
    dev_->stats().remote_transactions += n;
    cycles_ += n * dev_->config().remote_transaction_extra_cycles;
  }

  /// Charges n ALU operations (comparisons, hashing, flag tests...).
  void Alu(uint64_t n) {
    dev_->stats().alu_ops += n;
    cycles_ += n * dev_->config().alu_cycles;
  }

  /// Charges n shared-memory accesses.
  void SharedAccess(uint64_t n) {
    dev_->stats().shared_accesses += n;
    cycles_ += n * dev_->config().shared_access_cycles;
  }

  uint64_t cycles() const { return cycles_; }

 private:
  void ChargeLoad(uint64_t tx) {
    dev_->stats().gld += tx;
    cycles_ += tx * dev_->config().global_transaction_cycles;
  }
  void ChargeStore(uint64_t tx) {
    dev_->stats().gst += tx;
    cycles_ += tx * dev_->config().global_transaction_cycles;
  }

  Device* dev_;
  SharedMemory* shared_;
  size_t global_id_;
  size_t block_id_;
  size_t id_in_block_;
  uint64_t cycles_ = 0;
};

/// A cooperative thread block: a group of warps sharing one SharedMemory
/// arena. Block-granular kernels (duplicate removal, Algorithm 5) receive a
/// Block and orchestrate its warps explicitly; block-wide synchronization is
/// implicit in the sequential simulation (phases are just loop boundaries).
class Block {
 public:
  Block(Device* dev, size_t block_id, size_t num_warps,
        size_t first_warp_global_id);

  size_t id() const { return id_; }
  size_t num_warps() const { return warps_.size(); }
  Warp& warp(size_t i) { return warps_[i]; }
  SharedMemory& shared() { return shared_; }
  Device& device() { return *dev_; }

  /// Max warp cycles in this block (the SIMT critical path).
  uint64_t MaxWarpCycles() const;
  /// Sum of warp cycles (total work).
  uint64_t TotalWarpCycles() const;

 private:
  Device* dev_;
  size_t id_;
  SharedMemory shared_;
  std::vector<Warp> warps_;
};

/// Launches a per-warp kernel: `num_warps` logical warps with consecutive
/// global ids; `body` runs once per warp and must not rely on which warps
/// share a block. Blocks are sized to the grid: they dispatch in rounds of
/// config.num_sms, the grid takes the fewest rounds whose blocks stay
/// within config.warps_per_block warps, and the warps split evenly over
/// those rounds' blocks. So a grid of fewer warps than SMs gets one block
/// per warp, and up to num_sms × warp_slots_per_sm equal warps finish in
/// one warp's time, where 32-warp blocks would queue a small grid 4 warps
/// at a time on a few SMs. Kernels whose warps cooperate through shared
/// memory use LaunchBlocks, which runs full blocks.
///
/// After execution, blocks are scheduled greedily (in launch order, each to
/// the least-loaded SM); a block occupies its SM for
///   max(longest warp, total work / warp_slots_per_sm)
/// cycles, modelling the SIMT property that a block is done only when its
/// slowest warp is. The kernel's makespan is added to stats().simulated_cycles.
void Launch(Device& dev, size_t num_warps,
            const std::function<void(Warp&)>& body);

/// Launches a block-cooperative kernel: `body` runs once per block and is
/// responsible for driving the block's warps.
void LaunchBlocks(Device& dev, size_t num_blocks,
                  const std::function<void(Block&)>& body);

/// Scheduling result of a kernel (exposed for tests and ablation benches).
struct ScheduleResult {
  uint64_t makespan_cycles = 0;
  uint64_t total_block_cycles = 0;
};

/// Computes the kernel makespan for a list of per-block costs (greedy
/// least-loaded assignment over config.num_sms SMs).
ScheduleResult ScheduleBlocks(const DeviceConfig& config,
                              std::span<const uint64_t> block_costs);

}  // namespace gsi::gpusim

#endif  // GSI_GPUSIM_LAUNCH_H_
