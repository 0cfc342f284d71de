#ifndef GSI_GPUSIM_GPUSIM_H_
#define GSI_GPUSIM_GPUSIM_H_

#include <cstdint>

namespace gsi::gpusim {

/// Number of lanes in a warp (fixed by the CUDA architecture the paper
/// targets; Section II-B).
inline constexpr int kWarpSize = 32;

/// Width of a global-memory transaction in bytes. "Access to global memory
/// is done through 128B-size transactions" (Section II-B). PCSR group size
/// and the write cache are both built around this constant.
inline constexpr uint64_t kTransactionBytes = 128;

/// Architectural parameters of the simulated device. Defaults model the
/// paper's Titan XP: 30 SMs, 48KB shared memory per SM, 1024-thread blocks.
struct DeviceConfig {
  /// Number of streaming multiprocessors.
  int num_sms = 30;
  /// Warp slots that make progress concurrently per SM. Controls how much a
  /// block's total work can be overlapped; the paper's load-balance findings
  /// only need "several warps run concurrently per SM".
  int warp_slots_per_sm = 4;
  /// Shared-memory capacity per block (bytes).
  uint64_t shared_memory_bytes = 48 * 1024;
  /// Warps per block: 32 warps = 1024 threads, the block size used in the
  /// paper's load-balance tuning (W2 = 1024). LaunchBlocks runs blocks of
  /// this many warps; Launch treats it as an upper bound (launch.h).
  int warps_per_block = 32;

  // --- Cost model (cycles). Only ratios matter for reproduced shapes. ---
  /// Latency charged per 128B global-memory transaction ("hundreds of times
  /// longer than access to shared memory", Section II-B).
  uint64_t global_transaction_cycles = 300;
  /// Cost per shared-memory access.
  uint64_t shared_access_cycles = 2;
  /// Cost per ALU operation (comparison, hash step, ...).
  uint64_t alu_cycles = 1;
  /// Fixed overhead per kernel launch (~2us at 1 GHz); makes the naive
  /// one-kernel-per-set-op baseline (Section V, "GPU-friendly Set
  /// Operation") measurably bad.
  uint64_t kernel_launch_cycles = 2000;
  /// Extra latency per 128B line read from a *peer* device's memory over
  /// the interconnect (the remote-probe cost of the partitioned data
  /// graph; Section VIII's memory-capacity discussion). Charged on top of
  /// global_transaction_cycles, so the default models a peer read at 3x a
  /// local one — the HBM-vs-NVLink bandwidth ratio of the paper's era.
  uint64_t remote_transaction_extra_cycles = 600;
  /// Simulated clock in GHz used to convert cycles to milliseconds.
  double clock_ghz = 1.0;

  friend bool operator==(const DeviceConfig&, const DeviceConfig&) = default;
};

/// Counters accumulated by a Device across kernel launches.
///
/// `gld` / `gst` are exactly the paper's "Global Memory Load/Store
/// Transactions" metrics (Tables VI, VII, XI). `simulated_cycles` is the
/// makespan of the block schedule over SMs, converted to ms for the
/// query-response-time columns.
struct MemStats {
  uint64_t gld = 0;              ///< global-memory load transactions
  uint64_t gst = 0;              ///< global-memory store transactions
  uint64_t shared_accesses = 0;  ///< shared-memory accesses
  uint64_t alu_ops = 0;          ///< ALU operations
  uint64_t kernel_launches = 0;  ///< number of kernels launched
  /// 128B lines that crossed the device interconnect (remote probes into a
  /// peer partition's PCSR/signature share, halo gathers). Disjoint from
  /// gld/gst accounting-wise: a remote probe charges its reads as gld AND
  /// records the same lines here with the interconnect premium.
  uint64_t remote_transactions = 0;
  uint64_t simulated_cycles = 0; ///< sum of per-kernel makespans

  /// Simulated wall time in milliseconds under `clock_ghz`.
  double SimulatedMs(const DeviceConfig& config) const {
    return static_cast<double>(simulated_cycles) /
           (config.clock_ghz * 1e6);
  }

  MemStats& operator+=(const MemStats& o) {
    gld += o.gld;
    gst += o.gst;
    shared_accesses += o.shared_accesses;
    alu_ops += o.alu_ops;
    kernel_launches += o.kernel_launches;
    remote_transactions += o.remote_transactions;
    simulated_cycles += o.simulated_cycles;
    return *this;
  }
};

inline MemStats operator-(const MemStats& a, const MemStats& b) {
  MemStats r;
  r.gld = a.gld - b.gld;
  r.gst = a.gst - b.gst;
  r.shared_accesses = a.shared_accesses - b.shared_accesses;
  r.alu_ops = a.alu_ops - b.alu_ops;
  r.kernel_launches = a.kernel_launches - b.kernel_launches;
  r.remote_transactions = a.remote_transactions - b.remote_transactions;
  r.simulated_cycles = a.simulated_cycles - b.simulated_cycles;
  return r;
}

}  // namespace gsi::gpusim

#endif  // GSI_GPUSIM_GPUSIM_H_
