#include "service/device_pool.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "util/check.h"

namespace gsi {

gpusim::Device* DevicePool::Lease::get() const {
  GSI_CHECK_MSG(pool_ != nullptr, "dereferencing a released device lease");
  return pool_->devices_[index_].get();
}

void DevicePool::Lease::Release() {
  if (pool_ == nullptr) return;
  DevicePool* pool = pool_;
  pool_ = nullptr;
  pool->Release(index_);
}

double DevicePool::Stats::replica_pick_skew() const {
  uint64_t max = 0;
  uint64_t sum = 0;
  for (uint64_t p : replica_picks) {
    max = std::max(max, p);
    sum += p;
  }
  if (sum == 0 || replica_picks.empty()) return 0;
  return static_cast<double>(max) /
         (static_cast<double>(sum) / static_cast<double>(replica_picks.size()));
}

DevicePool::DevicePool(size_t num_devices, gpusim::DeviceConfig config) {
  num_devices = std::max<size_t>(1, num_devices);
  devices_.reserve(num_devices);
  free_.reserve(num_devices);
  for (size_t i = 0; i < num_devices; ++i) {
    devices_.push_back(std::make_unique<gpusim::Device>(config));
    devices_.back()->set_ordinal(static_cast<int>(i));
    free_.push_back(num_devices - 1 - i);  // lease low indices first
  }
  is_free_.assign(num_devices, 1);
  is_quarantined_.assign(num_devices, 0);
  pending_fault_.resize(num_devices);
  replica_picks_.assign(num_devices, 0);
  released_stats_.resize(num_devices);
}

size_t DevicePool::idle() const {
  MutexLock lock(mu_);
  return free_.size();
}

size_t DevicePool::LiveLocked() const {
  size_t live = 0;
  for (uint8_t q : is_quarantined_) live += q == 0 ? 1 : 0;
  return live;
}

void DevicePool::TakeDeviceLocked(size_t index) {
  free_.erase(std::find(free_.begin(), free_.end(), index));
  is_free_[index] = 0;
  ++stats_.acquired;
  // in_use counts leased devices only; quarantined ones are out of service.
  stats_.in_use = devices_.size() - free_.size() - stats_.quarantined_now;
  stats_.peak_in_use = std::max(stats_.peak_in_use, stats_.in_use);
  // Lease-acquisition fault trigger (safe here: the device is idle and the
  // new holder's first access is ordered after this critical section).
  devices_[index]->OnLeaseAcquired();
}

Result<DevicePool::Lease> DevicePool::Acquire() {
  MutexLock lock(mu_);
  if (LiveLocked() == 0) {
    return Status::Unavailable(
        "all " + std::to_string(devices_.size()) +
        " pool devices are quarantined; repair one before acquiring");
  }
  if (free_.empty()) ++stats_.blocked;
  while (free_.empty()) {
    idle_cv_.Wait(mu_);
    if (free_.empty() && LiveLocked() == 0) {
      // The wait was satisfiable when it started; poisoned releases then
      // quarantined the last live device underneath it.
      return Status::Aborted(
          "pool drained while waiting: every device was quarantined by a "
          "poisoned lease; repair one before acquiring");
    }
  }
  const size_t index = free_.back();
  TakeDeviceLocked(index);
  return Lease(this, index);
}

std::optional<DevicePool::Lease> DevicePool::TryAcquire() {
  MutexLock lock(mu_);
  if (free_.empty()) {
    ++stats_.try_failed;
    return std::nullopt;
  }
  const size_t index = free_.back();
  TakeDeviceLocked(index);
  return Lease(this, index);
}

Result<DevicePool::Lease> DevicePool::AcquireDevice(size_t index) {
  MutexLock lock(mu_);
  if (index >= devices_.size()) {
    return Status::InvalidArgument(
        "AcquireDevice: device index " + std::to_string(index) +
        " out of range (pool has " + std::to_string(devices_.size()) +
        " devices)");
  }
  if (is_quarantined_[index] != 0) {
    return Status::Unavailable(
        "AcquireDevice needs device " + std::to_string(index) +
        ", which is quarantined (" + devices_[index]->fault_message() +
        "); repair it or rebuild the result elsewhere");
  }
  if (is_free_[index] == 0) ++stats_.blocked;
  while (is_free_[index] == 0 && is_quarantined_[index] == 0) {
    idle_cv_.Wait(mu_);
  }
  if (is_quarantined_[index] != 0) {
    return Status::Aborted(
        "device " + std::to_string(index) +
        " was quarantined while AcquireDevice waited for it (" +
        devices_[index]->fault_message() +
        "); repair it or rebuild the result elsewhere");
  }
  TakeDeviceLocked(index);
  return Lease(this, index);
}

Result<std::vector<DevicePool::Lease>> DevicePool::AcquireAll() {
  std::vector<Lease> leases;
  leases.reserve(devices_.size());
  bool counted_blocked = false;  // blocked counts calls, not busy indices
  for (size_t i = 0; i < devices_.size(); ++i) {
    MutexLock lock(mu_);
    // AcquireAll needs this exact device; quarantine makes that impossible
    // until a repair. Partial leases release via their destructors.
    if (is_quarantined_[i] != 0) {
      const std::string msg =
          "AcquireAll needs device " + std::to_string(i) +
          ", which is quarantined (" + devices_[i]->fault_message() +
          "); repair it before leasing the whole pool";
      return counted_blocked ? Status::Aborted(msg) : Status::Unavailable(msg);
    }
    if (is_free_[i] == 0 && !counted_blocked) {
      ++stats_.blocked;
      counted_blocked = true;
    }
    while (is_free_[i] == 0 && is_quarantined_[i] == 0) idle_cv_.Wait(mu_);
    if (is_quarantined_[i] != 0) {
      return Status::Aborted(
          "device " + std::to_string(i) +
          " was quarantined while AcquireAll waited for it (" +
          devices_[i]->fault_message() +
          "); repair it before leasing the whole pool");
    }
    TakeDeviceLocked(i);
    leases.push_back(Lease(this, i));
  }
  return leases;
}

namespace {

std::string GroupMembers(const std::vector<size_t>& group) {
  std::string out;
  for (size_t d : group) {
    if (!out.empty()) out += ", ";
    out += std::to_string(d);
  }
  return out;
}

}  // namespace

Result<DevicePool::GroupLeases> DevicePool::AcquireOneOfEach(
    std::span<const std::vector<size_t>> groups) {
  for (const std::vector<size_t>& group : groups) {
    GSI_CHECK_MSG(!group.empty(), "AcquireOneOfEach given an empty group");
    for (size_t d : group) GSI_CHECK(d < devices_.size());
  }

  GroupLeases out;
  out.device_of_group.resize(groups.size());
  if (groups.empty()) {
    MutexLock lock(mu_);
    ++stats_.group_acquires;
    return out;
  }

  MutexLock lock(mu_);
  if (size_t dead = DeadGroupLocked(groups); dead < groups.size()) {
    return Status::Unavailable(
        "replica group " + std::to_string(dead) + " has no live device (all "
        "of {" + GroupMembers(groups[dead]) + "} are quarantined); repair "
        "one of them to restore coverage of partition " +
        std::to_string(dead));
  }
  if (!EveryGroupHasIdleLocked(groups)) ++stats_.group_blocked;
  while (!EveryGroupHasIdleLocked(groups)) {
    idle_cv_.Wait(mu_);
    if (size_t dead = DeadGroupLocked(groups); dead < groups.size()) {
      return Status::Aborted(
          "replica group " + std::to_string(dead) + " lost its last live "
          "device while this acquisition waited (all of {" +
          GroupMembers(groups[dead]) + "} are quarantined); repair one of "
          "them to restore coverage of partition " + std::to_string(dead));
    }
  }

  // Pick one free device per group, packing onto devices already picked
  // for earlier groups (see the header for why packing wins), then by
  // fewest historical picks, then lowest index.
  std::vector<uint8_t> picked(devices_.size(), 0);
  std::vector<size_t> distinct;
  for (size_t g = 0; g < groups.size(); ++g) {
    size_t best = devices_.size();
    bool best_picked = false;
    for (size_t d : groups[g]) {
      if (!is_free_[d]) continue;
      const bool reuse = picked[d] != 0;
      if (best == devices_.size() ||
          std::make_tuple(!reuse, replica_picks_[d], d) <
              std::make_tuple(!best_picked, replica_picks_[best], best)) {
        best = d;
        best_picked = reuse;
      }
    }
    GSI_CHECK(best < devices_.size());  // the wait predicate held the lock
    out.device_of_group[g] = best;
    if (!picked[best]) {
      picked[best] = 1;
      distinct.push_back(best);
    }
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    ++replica_picks_[out.device_of_group[g]];
  }

  std::sort(distinct.begin(), distinct.end());
  for (size_t d : distinct) {
    TakeDeviceLocked(d);
    out.leases.push_back(Lease(this, d));
  }
  ++stats_.group_acquires;
  return out;
}

bool DevicePool::EveryGroupHasIdleLocked(
    std::span<const std::vector<size_t>> groups) const {
  for (const std::vector<size_t>& group : groups) {
    bool any = false;
    for (size_t d : group) any = any || is_free_[d] != 0;
    if (!any) return false;
  }
  return true;
}

size_t DevicePool::DeadGroupLocked(
    std::span<const std::vector<size_t>> groups) const {
  for (size_t g = 0; g < groups.size(); ++g) {
    bool live = false;
    for (size_t d : groups[g]) live = live || is_quarantined_[d] == 0;
    if (!live) return g;
  }
  return groups.size();
}

Status DevicePool::InjectFault(size_t index, gpusim::FaultPlan plan) {
  MutexLock lock(mu_);
  if (index >= devices_.size()) {
    return Status::InvalidArgument(
        "InjectFault: device index " + std::to_string(index) +
        " out of range (pool has " + std::to_string(devices_.size()) +
        " devices)");
  }
  if (is_quarantined_[index] != 0) {
    return Status::InvalidArgument(
        "InjectFault: device " + std::to_string(index) +
        " is already quarantined; Repair it before arming a new fault");
  }
  if (is_free_[index] != 0) {
    // Idle: the pool owns the device exclusively, arm it right now.
    devices_[index]->InjectFault(std::move(plan));
  } else {
    // Leased: its holder is charging it on another thread — defer arming
    // until Release, when the pool owns the device again.
    pending_fault_[index] = std::move(plan);
  }
  return Status::Ok();
}

bool DevicePool::Repair(size_t index) {
  {
    MutexLock lock(mu_);
    if (index >= devices_.size() || is_quarantined_[index] == 0) return false;
    devices_[index]->Repair();
    is_quarantined_[index] = 0;
    is_free_[index] = 1;
    free_.push_back(index);
    ++stats_.repaired;
    --stats_.quarantined_now;
    stats_.in_use = devices_.size() - free_.size() - stats_.quarantined_now;
  }
  idle_cv_.NotifyAll();
  return true;
}

bool DevicePool::quarantined(size_t index) const {
  MutexLock lock(mu_);
  GSI_CHECK(index < devices_.size());
  return is_quarantined_[index] != 0;
}

DevicePool::Stats DevicePool::stats() const {
  MutexLock lock(mu_);
  Stats out = stats_;
  out.in_use = devices_.size() - free_.size() - stats_.quarantined_now;
  out.replica_picks = replica_picks_;
  out.device_stats = released_stats_;
  return out;
}

void DevicePool::Stats::AddSamples(obs::MetricsSink& sink) const {
  sink.AddCounter("gsi_pool_leases_total",
                  "Device leases handed out by the pool",
                  static_cast<double>(acquired));
  sink.AddCounter("gsi_pool_try_failed_total",
                  "TryAcquire calls that found no idle device",
                  static_cast<double>(try_failed));
  sink.AddCounter("gsi_pool_blocked_total",
                  "Acquire/AcquireAll calls that had to wait",
                  static_cast<double>(blocked));
  sink.AddCounter("gsi_pool_group_acquires_total",
                  "AcquireOneOfEach calls completed",
                  static_cast<double>(group_acquires));
  sink.AddGauge("gsi_pool_devices", "Devices in the pool",
                static_cast<double>(device_stats.size()));
  sink.AddGauge("gsi_pool_in_use", "Currently leased devices",
                static_cast<double>(in_use));
  sink.AddGauge("gsi_pool_peak_in_use", "High-water mark of leased devices",
                static_cast<double>(peak_in_use));
  sink.AddGauge("gsi_pool_quarantined_devices",
                "Currently quarantined devices",
                static_cast<double>(quarantined_now));
  sink.AddCounter("gsi_pool_quarantined_total",
                  "Poisoned leases that quarantined a device",
                  static_cast<double>(quarantined));
  sink.AddCounter("gsi_pool_repaired_total",
                  "Repair calls that re-admitted a quarantined device",
                  static_cast<double>(repaired));
  for (size_t d = 0; d < device_stats.size(); ++d) {
    const gpusim::MemStats& mem = device_stats[d];
    const std::string label = "device=\"" + std::to_string(d) + "\"";
    sink.AddCounter("gsi_device_simulated_cycles_total",
                    "Simulated cycles charged to the device (as of its "
                    "last lease release)",
                    static_cast<double>(mem.simulated_cycles), label);
    sink.AddCounter("gsi_device_global_load_transactions_total",
                    "Global-memory load transactions",
                    static_cast<double>(mem.gld), label);
    sink.AddCounter("gsi_device_global_store_transactions_total",
                    "Global-memory store transactions",
                    static_cast<double>(mem.gst), label);
    sink.AddCounter("gsi_device_remote_transactions_total",
                    "Interconnect lines moved to/from the device",
                    static_cast<double>(mem.remote_transactions), label);
    sink.AddCounter("gsi_device_kernel_launches_total",
                    "Kernels launched on the device",
                    static_cast<double>(mem.kernel_launches), label);
    sink.AddCounter("gsi_pool_replica_picks_total",
                    "Times the device was picked to serve a replica group",
                    static_cast<double>(replica_picks[d]), label);
  }
}

void DevicePool::Release(size_t index) {
  {
    MutexLock lock(mu_);
    GSI_CHECK(index < devices_.size());
    GSI_CHECK_MSG(std::find(free_.begin(), free_.end(), index) == free_.end(),
                  "double release of a pooled device");
    // The holder is done charging this device, so reading its counters here
    // cannot race; stats() hands out this snapshot instead of the device's.
    released_stats_[index] = devices_[index]->stats();
    // A fault injected while the device was leased arms now, when the pool
    // owns the device again (it may trip immediately via fail_on_lease on
    // the next TakeDeviceLocked, or on later charged work).
    if (pending_fault_[index].has_value()) {
      devices_[index]->InjectFault(std::move(*pending_fault_[index]));
      pending_fault_[index].reset();
    }
    if (!devices_[index]->healthy()) {
      // Poisoned lease: quarantine instead of freeing. The device stays
      // neither free nor leased until Repair re-admits it.
      is_quarantined_[index] = 1;
      ++stats_.quarantined;
      ++stats_.quarantined_now;
    } else {
      free_.push_back(index);
      is_free_[index] = 1;
    }
    stats_.in_use = devices_.size() - free_.size() - stats_.quarantined_now;
  }
  // NotifyAll, not NotifyOne: AcquireAll waiters need *specific* indices,
  // so waking one arbitrary waiter could park a freed device next to an
  // Acquire waiter that would take anything. Notify even on quarantine —
  // waiters whose request just became unsatisfiable must wake to fail.
  idle_cv_.NotifyAll();
}

}  // namespace gsi
