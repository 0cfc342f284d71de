#ifndef GSI_GPUSIM_DEVICE_H_
#define GSI_GPUSIM_DEVICE_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/device_buffer.h"
#include "gpusim/gpusim.h"

namespace gsi::gpusim {

/// A deterministic fault to arm on a Device (InjectFault). Triggers are
/// *deltas from arming time* — counted against the device's counters, which
/// are a deterministic function of the work it runs — so a given plan trips
/// at the same simulated point on every run. A tripped device keeps
/// executing correctly (data stays bit-exact; the simulation is host
/// memory), it merely reports healthy() == false: the fail-stop model where
/// failure is *detected* at the next phase or step boundary and partial
/// results are discarded. All trigger fields at 0/false means the plan only
/// trips via Device::Trip.
struct FaultPlan {
  /// Trip once this many kernels have completed since arming (0 = off).
  uint64_t fail_at_kernel_launch = 0;
  /// Trip once this many memory transactions (gld + gst + remote lines)
  /// have been charged since arming (0 = off).
  uint64_t fail_after_transactions = 0;
  /// Trip on the next lease acquisition (DevicePool calls OnLeaseAcquired).
  bool fail_on_lease = false;
  /// Carried into the device's fault_message() when the plan trips.
  std::string reason = "injected fault";
};

/// The simulated GPU: owns the virtual address space, the architectural
/// configuration and the accumulated counters.
///
/// Usage:
///   Device dev;
///   auto buf = dev.Alloc<uint32_t>(n);
///   Launch(dev, {...}, [&](Warp& w) { ... });   // see launch.h
///   dev.stats().gld;                            // transactions observed
class Device {
 public:
  explicit Device(DeviceConfig config = DeviceConfig());

  const DeviceConfig& config() const { return config_; }

  /// Stable identity of this device within its pool (DevicePool assigns
  /// pool indices at construction; standalone devices keep 0). Trace spans
  /// and per-device metrics label work with this ordinal so that exported
  /// telemetry matches the pool's numbering.
  int ordinal() const { return ordinal_; }
  void set_ordinal(int ordinal) { ordinal_ = ordinal; }

  /// Allocates a zero-initialized buffer of n elements at a fresh,
  /// 128B-aligned virtual address.
  template <typename T>
  DeviceBuffer<T> Alloc(size_t n) {
    return DeviceBuffer<T>(std::vector<T>(n),
                           BufferAddress(TakeAddressRange(n * sizeof(T))));
  }

  /// Allocates a buffer initialized from host data.
  template <typename T>
  DeviceBuffer<T> Upload(std::vector<T> host) {
    uint64_t bytes = host.size() * sizeof(T);
    return DeviceBuffer<T>(std::move(host),
                           BufferAddress(TakeAddressRange(bytes)));
  }

  MemStats& stats() { return stats_; }
  const MemStats& stats() const { return stats_; }
  void ResetStats() { stats_ = MemStats(); }

  /// Charges the fixed overhead of one kernel launch without running one.
  /// Models the naive set-operation baseline that spawns a kernel per
  /// operation (Section V, "GPU-friendly Set Operation").
  void ChargeKernelLaunch() {
    stats_.kernel_launches += 1;
    stats_.simulated_cycles += config_.kernel_launch_cycles;
    CheckFaultTriggers();
  }

  /// Charges a bulk transfer of `bytes` over the interconnect at the full
  /// per-line cost, one line after another: there is no kernel to account
  /// it, so the cycles land here directly. Three call sites use it:
  ///  - the partitioned candidate gather (survivor lists of peer lanes
  ///    streamed to the primary, RunFilterStageReplicated);
  ///  - the partitioned seed-run merge (peer lanes' partial match tables
  ///    read by the primary, RunJoinStageReplicatedPaged);
  ///  - QueryService's page-out: every result chunk a FetchPage copies to
  ///    the host, charged on the device that holds it (CopyPageChunks).
  /// Host uploads (Upload) stay uncharged. ROADMAP.md's open item "One
  /// interconnect model: charge every byte that changes device once" is
  /// to reprice these three as a copy kernel.
  /// Returns the number of 128B lines moved.
  uint64_t ChargeRemoteTransfer(uint64_t bytes) {
    const uint64_t lines = (bytes + kTransactionBytes - 1) / kTransactionBytes;
    stats_.remote_transactions += lines;
    stats_.simulated_cycles +=
        lines * (config_.global_transaction_cycles +
                 config_.remote_transaction_extra_cycles);
    CheckFaultTriggers();
    return lines;
  }

  // --- Fault injection (fail-stop model; see FaultPlan). A device is
  // accessed by one thread at a time (the lease holder, or the pool under
  // its mutex while the device is idle), so none of this needs atomics —
  // the same discipline as the counters above.

  /// Arms `plan` against this device: trigger thresholds count from the
  /// counters' current values. Re-arming replaces any previous plan.
  void InjectFault(FaultPlan plan) {
    plan_ = std::move(plan);
    armed_ = true;
    armed_stats_ = stats_;
  }

  /// False once a fault tripped; the device still executes correctly, but
  /// callers must treat its results as lost (discard and fail over).
  bool healthy() const { return healthy_; }
  /// Why the device tripped (empty while healthy).
  const std::string& fault_message() const { return fault_message_; }

  /// Marks the device failed immediately (the first trip's reason wins).
  void Trip(std::string reason) {
    if (!healthy_) return;
    healthy_ = false;
    ++fault_epoch_;
    fault_message_ = std::move(reason);
  }

  /// Counts trips over the device's lifetime. A result manifest stamps each
  /// device-resident partial with it (ResultManifest::Part::fault_epoch).
  /// QueryService::CopyPageChunks compares the stamp before each page-out;
  /// on a mismatch the partial was lost to a trip, and FetchPage rebuilds
  /// the cursor's result.
  uint64_t fault_epoch() const { return fault_epoch_; }

  /// Repair hook: clears the fault and disarms any remaining plan. The
  /// device's counters and memory are untouched — a repaired device is the
  /// same simulated hardware, back in service.
  void Repair() {
    healthy_ = true;
    armed_ = false;
    fault_message_.clear();
  }

  /// Evaluates the armed plan's counter triggers; called after every charge
  /// (kernel completion, remote transfer). Cheap when nothing is armed.
  void CheckFaultTriggers() {
    if (!armed_ || !healthy_) return;
    if (plan_.fail_at_kernel_launch > 0 &&
        stats_.kernel_launches - armed_stats_.kernel_launches >=
            plan_.fail_at_kernel_launch) {
      Trip(plan_.reason);
      return;
    }
    if (plan_.fail_after_transactions > 0) {
      const uint64_t charged =
          (stats_.gld - armed_stats_.gld) + (stats_.gst - armed_stats_.gst) +
          (stats_.remote_transactions - armed_stats_.remote_transactions);
      if (charged >= plan_.fail_after_transactions) Trip(plan_.reason);
    }
  }

  /// Lease-acquisition hook (DevicePool::TakeDeviceLocked): trips a plan
  /// armed with fail_on_lease.
  void OnLeaseAcquired() {
    if (armed_ && healthy_ && plan_.fail_on_lease) Trip(plan_.reason);
  }

  /// Number of distinct 128B lines touched by one warp-wide access where
  /// each lane reads/writes `bytes_per_lane` bytes starting at addrs[lane].
  /// This is the hardware coalescing rule (Figures 5/6 of the paper).
  static uint64_t CoalescedTransactions(std::span<const uint64_t> addrs,
                                        uint64_t bytes_per_lane);

  /// Transactions for one warp reading a contiguous byte range.
  static uint64_t RangeTransactions(uint64_t base_addr, uint64_t bytes);

 private:
  uint64_t TakeAddressRange(uint64_t bytes);

  DeviceConfig config_;
  MemStats stats_;
  uint64_t next_addr_;
  int ordinal_ = 0;
  // Fault-injection state (single-writer, like stats_).
  bool healthy_ = true;
  bool armed_ = false;
  FaultPlan plan_;
  MemStats armed_stats_;
  std::string fault_message_;
  uint64_t fault_epoch_ = 0;
};

}  // namespace gsi::gpusim

#endif  // GSI_GPUSIM_DEVICE_H_
