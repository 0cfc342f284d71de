#ifndef GSI_SERVICE_DEVICE_POOL_H_
#define GSI_SERVICE_DEVICE_POOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "obs/metrics.h"
#include "util/annotations.h"
#include "util/status.h"
#include "util/sync.h"

namespace gsi {

/// A fixed set of long-lived simulated devices shared by every worker of a
/// serving process (the multi-GPU pool of Section VIII). Instead of pinning
/// one device per worker thread, workers lease devices per query — so a
/// heavy query can fan its join shards out across however many devices are
/// idle, and light queries never hold more than one.
///
/// A device is held by at most one lease at a time; leases are RAII and
/// return the device on destruction. Devices are never reset between
/// leases — callers measure per-query work as counter deltas, exactly as
/// QueryEngine's per-worker devices do. All methods are thread-safe.
///
/// Fault tolerance: a lease returned with its device unhealthy (a tripped
/// gpusim::FaultPlan — the "poisoned lease") quarantines the device instead
/// of freeing it. Quarantined devices are never handed out by any Acquire
/// variant; an acquisition that can no longer be satisfied fails with
/// kUnavailable (unsatisfiable at call time) or kAborted (became
/// unsatisfiable mid-wait). Repair() re-admits a device. See
/// docs/ARCHITECTURE.md, "Fault tolerance".
class DevicePool {
 public:
  /// Pool health counters (a snapshot; see stats()).
  struct Stats {
    uint64_t acquired = 0;      ///< leases handed out, by every variant
    uint64_t try_failed = 0;    ///< TryAcquire calls that found no idle device
    uint64_t blocked = 0;       ///< Acquire calls that had to wait
    size_t in_use = 0;          ///< currently leased devices
    size_t peak_in_use = 0;     ///< high-water mark of in_use
    uint64_t group_acquires = 0;  ///< AcquireOneOfEach calls completed
    uint64_t group_blocked = 0;   ///< AcquireOneOfEach calls that had to wait
    uint64_t quarantined = 0;   ///< poisoned leases that quarantined a device
    uint64_t repaired = 0;      ///< Repair calls that re-admitted a device
    size_t quarantined_now = 0; ///< currently quarantined devices
    /// Times device i was picked to serve a group in AcquireOneOfEach (a
    /// device covering several groups of one call counts once per group) —
    /// the replica-pick distribution the serving layer reports as skew.
    std::vector<uint64_t> replica_picks;
    /// [i] = device i's simulated-hardware counters as of its most recent
    /// lease release (zeros before its first): the pool never reads a
    /// device another thread is charging. One entry per pool device.
    std::vector<gpusim::MemStats> device_stats;

    /// max / mean of replica_picks over devices (1.0 = perfectly even;
    /// 0 when no group acquisition has happened yet).
    double replica_pick_skew() const;

    /// Adds the gsi_pool_* families and the per-device gsi_device_* and
    /// gsi_pool_replica_picks_total samples, labeled `device="k"` (k = pool
    /// ordinal), to `sink`.
    void AddSamples(obs::MetricsSink& sink) const;
  };

  /// Move-only handle to one leased device; releases it on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept { *this = std::move(o); }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        Release();
        pool_ = o.pool_;
        index_ = o.index_;
        o.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    bool valid() const { return pool_ != nullptr; }
    gpusim::Device* get() const;
    gpusim::Device& operator*() const { return *get(); }

    /// Returns the device to the pool early (idempotent).
    void Release();

   private:
    friend class DevicePool;
    Lease(DevicePool* pool, size_t index) : pool_(pool), index_(index) {}

    DevicePool* pool_ = nullptr;
    size_t index_ = 0;
  };

  /// Builds `num_devices` devices (at least 1) with identical `config`.
  explicit DevicePool(size_t num_devices,
                      gpusim::DeviceConfig config = gpusim::DeviceConfig());

  size_t size() const { return devices_.size(); }
  size_t idle() const GSI_EXCLUDES(mu_);

  /// Blocks until a device is idle, then leases it. Fails with kUnavailable
  /// when every device is quarantined at call time, kAborted when the last
  /// live device was quarantined while this call waited.
  Result<Lease> Acquire() GSI_EXCLUDES(mu_);

  /// Leases an idle device or returns nullopt without blocking (quarantined
  /// devices are never idle, so they are naturally skipped).
  std::optional<Lease> TryAcquire() GSI_EXCLUDES(mu_);

  /// Blocks until device `index` specifically is idle, then leases it — the
  /// primitive of paged result fetching, where a cursor must reacquire
  /// exactly the device that holds a partial table (see
  /// gsi::ResultManifest). Fails with kInvalidArgument for a bad index,
  /// kUnavailable when the device is quarantined at call time, kAborted
  /// when it was quarantined while this call waited. Safe against
  /// AcquireAll holders for the same reason Acquire is: a waiting caller
  /// holds nothing, so no cycle can form.
  Result<Lease> AcquireDevice(size_t index) GSI_EXCLUDES(mu_);

  /// Blocks until every device has been leased, acquiring them in index
  /// order (devices_[0] first) — what the serving layer uses to build the
  /// partitioned data graph's shares on every pool device (queries then
  /// lease per execution via AcquireOneOfEach). Acquiring in a fixed order
  /// keeps concurrent AcquireAll callers deadlock-free (they all contend on
  /// index 0 first), and Acquire/TryAcquire holders never wait on anyone,
  /// so no cycle can form. Returned leases are in index
  /// order: leases[p] is device p. Needs *every* device, so any quarantined
  /// device fails it: kUnavailable at call time, kAborted mid-wait
  /// (partially acquired leases are released).
  Result<std::vector<Lease>> AcquireAll() GSI_EXCLUDES(mu_);

  /// Result of AcquireOneOfEach: exclusive leases over the *distinct*
  /// devices picked (ascending device index) plus, per group, which device
  /// serves it. One device may serve several groups of the same call (it
  /// holds replicas of several partitions) — it is still leased exactly
  /// once, so `leases.size() <= groups.size()`.
  struct GroupLeases {
    std::vector<Lease> leases;            ///< distinct devices, index order
    std::vector<size_t> device_of_group;  ///< [g] -> pool device index
  };

  /// Blocks until one device of *every* group can be leased, then takes
  /// them atomically — the lease primitive of the partitioned data graph
  /// (gsi/replication.h), where group g lists the devices holding a replica
  /// of partition g and a query needs one of each.
  ///
  /// Deadlock-free by construction: the whole selection is taken in one
  /// critical section once every group has an idle member, so a waiting
  /// caller never holds anything (no hold-and-wait; AcquireAll holders
  /// eventually release and Release's notify_all re-evaluates the
  /// predicate). Picks pack groups onto already-picked devices first —
  /// maximizing the devices left idle for concurrent queries (the R-lane
  /// effect) and the probes a co-resident replica can serve locally — and
  /// break ties toward the least historically picked replica, then the
  /// lowest index, so load spreads evenly across replicas over time.
  ///
  /// Every group must be non-empty with indices < size(); the vector of a
  /// group lists the candidate devices (duplicates allowed, ignored).
  ///
  /// Quarantined members are skipped — the selection is re-solved from the
  /// surviving replicas. A group whose members are ALL quarantined can
  /// never be covered: kUnavailable at call time (the message names the
  /// group and its devices — repair one to restore coverage), kAborted when
  /// a poisoned release killed the last live member mid-wait.
  Result<GroupLeases> AcquireOneOfEach(
      std::span<const std::vector<size_t>> groups) GSI_EXCLUDES(mu_);

  /// Arms `plan` on device `index` (see gpusim::FaultPlan). An idle device
  /// is armed immediately; a leased one is armed when its current lease
  /// releases — the pool never touches a device another thread is charging.
  /// Fails with InvalidArgument for a bad index or a quarantined device
  /// (repair it first).
  Status InjectFault(size_t index, gpusim::FaultPlan plan) GSI_EXCLUDES(mu_);

  /// Re-admits a quarantined device: repairs it (gpusim::Device::Repair)
  /// and returns it to the idle set, waking blocked waiters. Returns false
  /// when the device is not quarantined (in-flight leases are never
  /// touched). Safe because a quarantined device is owned by the pool
  /// alone.
  bool Repair(size_t index) GSI_EXCLUDES(mu_);

  /// True while device `index` is quarantined.
  bool quarantined(size_t index) const GSI_EXCLUDES(mu_);

  Stats stats() const GSI_EXCLUDES(mu_);

 private:
  /// Returns the leased device to the pool and wakes waiters; called by
  /// Lease, which must not hold the pool lock (self-deadlock otherwise).
  void Release(size_t index) GSI_EXCLUDES(mu_);

  /// The AcquireOneOfEach wait predicate: every group has an idle member.
  bool EveryGroupHasIdleLocked(
      std::span<const std::vector<size_t>> groups) const GSI_REQUIRES(mu_);

  /// First group with every member quarantined (can never be covered), or
  /// groups.size() when all groups still have a live member.
  size_t DeadGroupLocked(std::span<const std::vector<size_t>> groups) const
      GSI_REQUIRES(mu_);

  /// Devices not quarantined (leased or idle).
  size_t LiveLocked() const GSI_REQUIRES(mu_);

  /// Bookkeeping shared by every lease-granting path: removes `index` from
  /// the free set and maintains the acquisition counters.
  void TakeDeviceLocked(size_t index) GSI_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar idle_cv_;
  /// Immutable after construction (the pointers; device state is owned by
  /// whoever holds the lease) — safe to read without mu_.
  std::vector<std::unique_ptr<gpusim::Device>> devices_;
  /// Indices of idle devices (LIFO).
  std::vector<size_t> free_ GSI_GUARDED_BY(mu_);
  /// [i] mirrors membership of i in free_.
  std::vector<uint8_t> is_free_ GSI_GUARDED_BY(mu_);
  /// [i] set while device i is quarantined (neither free nor leased; the
  /// pool owns it exclusively until Repair).
  std::vector<uint8_t> is_quarantined_ GSI_GUARDED_BY(mu_);
  /// [i] holds a fault armed while device i was leased; applied at Release
  /// (the pool must not touch a device its lease holder is charging).
  std::vector<std::optional<gpusim::FaultPlan>> pending_fault_
      GSI_GUARDED_BY(mu_);
  /// Per-device AcquireOneOfEach picks.
  std::vector<uint64_t> replica_picks_ GSI_GUARDED_BY(mu_);
  /// [i] = devices_[i]->stats() as of its most recent Release, copied into
  /// Stats::device_stats: a snapshot that never races a lease holder's
  /// charging.
  std::vector<gpusim::MemStats> released_stats_ GSI_GUARDED_BY(mu_);
  Stats stats_ GSI_GUARDED_BY(mu_);
};

}  // namespace gsi

#endif  // GSI_SERVICE_DEVICE_POOL_H_
