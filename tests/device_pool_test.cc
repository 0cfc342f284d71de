// DevicePool: RAII leasing over a fixed device set. The core property is
// exclusivity — a device is never held by two leases at once, even under
// heavy cross-thread contention.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "service/device_pool.h"
#include "util/thread_pool.h"

namespace gsi {
namespace {

TEST(DevicePool, SizeAndIdle) {
  DevicePool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.idle(), 3u);
  {
    DevicePool::Lease a = pool.Acquire().value();
    EXPECT_TRUE(a.valid());
    EXPECT_NE(a.get(), nullptr);
    EXPECT_EQ(pool.idle(), 2u);
  }
  EXPECT_EQ(pool.idle(), 3u);  // RAII returned it
}

TEST(DevicePool, AtLeastOneDevice) {
  DevicePool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(DevicePool, TryAcquireFailsWhenExhausted) {
  DevicePool pool(2);
  std::optional<DevicePool::Lease> a = pool.TryAcquire();
  std::optional<DevicePool::Lease> b = pool.TryAcquire();
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->get(), b->get());
  EXPECT_FALSE(pool.TryAcquire().has_value());
  EXPECT_EQ(pool.stats().try_failed, 1u);
  a->Release();
  EXPECT_TRUE(pool.TryAcquire().has_value());
}

TEST(DevicePool, ExplicitReleaseIsIdempotent) {
  DevicePool pool(1);
  DevicePool::Lease a = pool.Acquire().value();
  a.Release();
  a.Release();  // no-op
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(DevicePool, LeaseMoveTransfersOwnership) {
  DevicePool pool(1);
  DevicePool::Lease a = pool.Acquire().value();
  gpusim::Device* dev = a.get();
  DevicePool::Lease b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): asserted empty
  EXPECT_EQ(b.get(), dev);
  EXPECT_EQ(pool.idle(), 0u);
  b.Release();
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(DevicePool, StatsTrackUsage) {
  DevicePool pool(2);
  {
    DevicePool::Lease a = pool.Acquire().value();
    DevicePool::Lease b = pool.Acquire().value();
    DevicePool::Stats s = pool.stats();
    EXPECT_EQ(s.acquired, 2u);
    EXPECT_EQ(s.in_use, 2u);
    EXPECT_EQ(s.peak_in_use, 2u);
  }
  DevicePool::Stats s = pool.stats();
  EXPECT_EQ(s.in_use, 0u);
  EXPECT_EQ(s.peak_in_use, 2u);
}

TEST(DevicePool, ContentionNeverDoubleLeases) {
  constexpr size_t kDevices = 3;
  constexpr size_t kThreads = 8;
  constexpr size_t kItersPerThread = 200;
  DevicePool pool(kDevices);

  std::mutex mu;
  std::set<gpusim::Device*> held;  // devices currently leased somewhere
  size_t max_held = 0;
  bool double_lease = false;

  {
    ThreadPool workers(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      workers.Submit([&, t] {
        for (size_t i = 0; i < kItersPerThread; ++i) {
          // Alternate single leases and fan-out batches (one blocking
          // lease plus an idle extra when there is one).
          std::vector<DevicePool::Lease> leases;
          leases.push_back(pool.Acquire().value());
          if ((t + i) % 2 == 0) {
            if (std::optional<DevicePool::Lease> extra = pool.TryAcquire()) {
              leases.push_back(std::move(*extra));
            }
          }
          {
            std::lock_guard<std::mutex> lock(mu);
            for (DevicePool::Lease& l : leases) {
              if (!held.insert(l.get()).second) double_lease = true;
            }
            max_held = std::max(max_held, held.size());
          }
          std::this_thread::yield();
          {
            std::lock_guard<std::mutex> lock(mu);
            for (DevicePool::Lease& l : leases) held.erase(l.get());
          }
          // leases release on scope exit, after being marked free above —
          // the pool may hand them out again only once Release runs, so
          // the tracking set never sees a stale holder.
        }
      });
    }
    workers.Wait();
  }

  EXPECT_FALSE(double_lease);
  EXPECT_LE(max_held, kDevices);
  EXPECT_EQ(pool.idle(), kDevices);
  DevicePool::Stats s = pool.stats();
  EXPECT_EQ(s.in_use, 0u);
  EXPECT_GE(s.acquired, kThreads * kItersPerThread);
  EXPECT_LE(s.peak_in_use, kDevices);
}

TEST(DevicePool, AcquireAllReturnsEveryDeviceInIndexOrder) {
  DevicePool pool(4);
  std::vector<DevicePool::Lease> leases = pool.AcquireAll().value();
  ASSERT_EQ(leases.size(), 4u);
  EXPECT_EQ(pool.idle(), 0u);
  std::vector<gpusim::Device*> first;
  for (DevicePool::Lease& l : leases) first.push_back(l.get());
  for (size_t i = 0; i < first.size(); ++i) {
    for (size_t j = i + 1; j < first.size(); ++j) {
      EXPECT_NE(first[i], first[j]);
    }
  }
  leases.clear();  // release all
  // Index order is stable: lease p is the pool's p-th device on every full
  // acquisition — the contract the partitioned data graph relies on
  // (partition p lives on device p).
  std::vector<DevicePool::Lease> again = pool.AcquireAll().value();
  ASSERT_EQ(again.size(), 4u);
  for (size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].get(), first[i]);
  }
}

TEST(DevicePool, AcquireAllWaitsForOutstandingLeases) {
  DevicePool pool(3);
  std::optional<DevicePool::Lease> held = pool.TryAcquire();
  ASSERT_TRUE(held.has_value());

  std::atomic<bool> acquired_all{false};
  std::thread waiter([&] {
    std::vector<DevicePool::Lease> all = pool.AcquireAll().value();
    EXPECT_EQ(all.size(), 3u);
    acquired_all = true;
  });
  // The waiter cannot finish while one device is leased out.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired_all.load());
  held.reset();  // release; AcquireAll can now complete
  waiter.join();
  EXPECT_TRUE(acquired_all.load());
  EXPECT_EQ(pool.idle(), 3u);
}

/// Staggered replica groups over 4 devices, R=2 (what the replicated
/// placement hands the pool): group p lists devices {p, (p+2) % 4}.
std::vector<std::vector<size_t>> StaggeredGroups() {
  return {{0, 2}, {1, 3}, {2, 0}, {3, 1}};
}

TEST(DevicePool, OneOfEachLeasesOneDevicePerGroupPacked) {
  DevicePool pool(4);
  std::vector<std::vector<size_t>> groups = StaggeredGroups();
  DevicePool::GroupLeases gl = pool.AcquireOneOfEach(groups).value();
  ASSERT_EQ(gl.device_of_group.size(), 4u);
  // Every group got a device that actually belongs to it, and holds a
  // lease on it...
  for (size_t g = 0; g < groups.size(); ++g) {
    EXPECT_TRUE(std::find(groups[g].begin(), groups[g].end(),
                          gl.device_of_group[g]) != groups[g].end());
    EXPECT_TRUE(std::any_of(
        gl.leases.begin(), gl.leases.end(), [&](const DevicePool::Lease& l) {
          return static_cast<size_t>(l.get()->ordinal()) ==
                 gl.device_of_group[g];
        }))
        << "group " << g;
  }
  // ...and the picks packed onto the fewest devices (2 cover all 4
  // groups), leaving the other lane idle for a concurrent caller.
  EXPECT_EQ(gl.leases.size(), 2u);
  EXPECT_EQ(pool.idle(), 2u);
  DevicePool::Stats s = pool.stats();
  EXPECT_EQ(s.group_acquires, 1u);
  EXPECT_EQ(s.group_blocked, 0u);
  uint64_t total_picks = 0;
  for (uint64_t p : s.replica_picks) total_picks += p;
  EXPECT_EQ(total_picks, 4u);  // one pick per group
}

TEST(DevicePool, ConcurrentOneOfEachCallsGetDisjointLanes) {
  DevicePool pool(4);
  std::vector<std::vector<size_t>> groups = StaggeredGroups();
  DevicePool::GroupLeases a = pool.AcquireOneOfEach(groups).value();
  DevicePool::GroupLeases b = pool.AcquireOneOfEach(groups).value();
  std::set<gpusim::Device*> distinct;
  for (DevicePool::Lease& l : a.leases) distinct.insert(l.get());
  for (DevicePool::Lease& l : b.leases) distinct.insert(l.get());
  EXPECT_EQ(distinct.size(), a.leases.size() + b.leases.size())
      << "two lanes must never share a device";
  EXPECT_EQ(pool.idle(), 0u);

  // A third caller blocks until a lane frees, then completes.
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    DevicePool::GroupLeases c = pool.AcquireOneOfEach(groups).value();
    EXPECT_EQ(c.device_of_group.size(), 4u);
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  a.leases.clear();  // release lane A; notify_all wakes the group waiter
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_GE(pool.stats().group_blocked, 1u);
}

TEST(DevicePool, OneOfEachPrefersLeastPickedReplica) {
  DevicePool pool(2);
  std::vector<std::vector<size_t>> one_group = {{0, 1}};
  // Repeated acquire/release alternates devices: historical pick counts
  // balance the replicas instead of hammering device 0.
  std::vector<size_t> picked;
  for (int i = 0; i < 4; ++i) {
    DevicePool::GroupLeases gl = pool.AcquireOneOfEach(one_group).value();
    picked.push_back(gl.device_of_group[0]);
  }
  EXPECT_EQ(picked, (std::vector<size_t>{0, 1, 0, 1}));
  DevicePool::Stats s = pool.stats();
  ASSERT_EQ(s.replica_picks.size(), 2u);
  EXPECT_EQ(s.replica_picks[0], 2u);
  EXPECT_EQ(s.replica_picks[1], 2u);
  EXPECT_DOUBLE_EQ(s.replica_pick_skew(), 1.0);
}

TEST(DevicePool, OneOfEachNeverDeadlocksAgainstAcquireAllAndAcquire) {
  // The three lease shapes hammer one pool concurrently: AcquireAll holds
  // partial prefixes while waiting, OneOfEach waits holding nothing, and
  // plain Acquire churns single devices. Nothing here can cycle (see the
  // header's deadlock argument); the test asserts everyone finishes and
  // exclusivity never breaks.
  constexpr size_t kDevices = 4;
  constexpr int kIters = 60;
  DevicePool pool(kDevices);
  std::vector<std::vector<size_t>> groups = StaggeredGroups();

  std::mutex mu;
  std::set<gpusim::Device*> held;
  bool double_lease = false;
  auto track = [&](std::vector<DevicePool::Lease>& leases) {
    {
      std::lock_guard<std::mutex> lock(mu);
      for (DevicePool::Lease& l : leases) {
        if (!held.insert(l.get()).second) double_lease = true;
      }
    }
    std::this_thread::yield();
    {
      std::lock_guard<std::mutex> lock(mu);
      for (DevicePool::Lease& l : leases) held.erase(l.get());
    }
  };

  std::atomic<int> completed{0};
  {
    ThreadPool workers(6);
    for (int t = 0; t < 2; ++t) {
      workers.Submit([&] {
        for (int i = 0; i < kIters; ++i) {
          std::vector<DevicePool::Lease> all = pool.AcquireAll().value();
          track(all);
          ++completed;
        }
      });
      workers.Submit([&] {
        for (int i = 0; i < kIters; ++i) {
          DevicePool::GroupLeases gl = pool.AcquireOneOfEach(groups).value();
          track(gl.leases);
          ++completed;
        }
      });
      workers.Submit([&] {
        for (int i = 0; i < kIters; ++i) {
          std::vector<DevicePool::Lease> one;
          one.push_back(pool.Acquire().value());
          track(one);
          ++completed;
        }
      });
    }
    workers.Wait();
  }
  EXPECT_FALSE(double_lease);
  EXPECT_EQ(completed.load(), 6 * kIters);
  EXPECT_EQ(pool.idle(), kDevices);
  EXPECT_EQ(pool.stats().in_use, 0u);
}

// Lock contract: the read-only observers (size / idle / stats) take mu_
// but never wait on a condition — they must return promptly even when
// every device is leased out and blocked acquirers are parked on the
// CondVar. A regression that makes an observer wait for idle devices
// turns every stats scrape into a hang under load.
TEST(DevicePool, ObserversNeverBlockWhileAllDevicesAreLeased) {
  DevicePool pool(3);
  std::vector<DevicePool::Lease> all = pool.AcquireAll().value();
  ASSERT_EQ(all.size(), 3u);

  std::atomic<bool> done{false};
  std::thread observer([&] {
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_EQ(pool.idle(), 0u);
    DevicePool::Stats s = pool.stats();
    EXPECT_EQ(s.in_use, 3u);
    EXPECT_EQ(s.acquired, 3u);
    done = true;
  });
  // Poll instead of join so a deadlocked observer fails the expectation
  // (and is then unblocked by the releases below) rather than hanging.
  for (int i = 0; i < 500 && !done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(done) << "observer blocked while leases were held";
  all.clear();
  observer.join();
}

// Lock contract: Release must wake a parked AcquireOneOfEach (NotifyAll on
// the shared CondVar), and the woken caller re-evaluates the every-group-
// has-an-idle-member predicate under the lock before taking anything.
TEST(DevicePool, ReleaseWakesBlockedAcquireOneOfEach) {
  DevicePool pool(3);
  std::vector<DevicePool::Lease> all = pool.AcquireAll().value();

  const std::vector<std::vector<size_t>> groups = {{0}, {1, 2}};
  std::atomic<bool> done{false};
  std::thread lane([&] {
    DevicePool::GroupLeases g = pool.AcquireOneOfEach(groups).value();
    ASSERT_EQ(g.device_of_group.size(), 2u);
    EXPECT_EQ(g.device_of_group[0], 0u);
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done) << "AcquireOneOfEach took devices that were leased";

  all.clear();  // RAII releases -> NotifyAll -> the lane may proceed
  lane.join();
  EXPECT_TRUE(done);
  DevicePool::Stats s = pool.stats();
  EXPECT_EQ(s.in_use, 0u);
  EXPECT_GE(s.group_blocked, 1u);
}

// Lock contract: stats() snapshots under mu_ — concurrent lease churn must
// never produce a torn snapshot (in_use above the device count, counters
// moving backwards, replica_picks resized mid-copy).
TEST(DevicePool, StatsSnapshotsStayCoherentUnderChurn) {
  DevicePool pool(4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> churn;
  for (int t = 0; t < 4; ++t) {
    churn.emplace_back([&] {
      const std::vector<std::vector<size_t>> groups = {{0, 1}, {2, 3}};
      while (!stop) {
        { DevicePool::Lease l = pool.Acquire().value(); }
        { DevicePool::GroupLeases g = pool.AcquireOneOfEach(groups).value(); }
      }
    });
  }
  uint64_t last_acquired = 0;
  for (int i = 0; i < 200; ++i) {
    DevicePool::Stats s = pool.stats();
    EXPECT_LE(s.in_use, pool.size());
    EXPECT_LE(s.peak_in_use, pool.size());
    EXPECT_GE(s.acquired, last_acquired) << "counter moved backwards";
    last_acquired = s.acquired;
    EXPECT_EQ(s.replica_picks.size(), pool.size());
  }
  stop = true;
  for (std::thread& t : churn) t.join();
  EXPECT_EQ(pool.stats().in_use, 0u);
}

// --- Fault tolerance: poisoned leases quarantine devices, Acquire
// variants never hand a quarantined device out, and Repair re-admits.

TEST(DevicePool, PoisonedLeaseQuarantinesOnRelease) {
  DevicePool pool(2);
  gpusim::FaultPlan plan;
  plan.fail_on_lease = true;
  plan.reason = "test trip";
  ASSERT_TRUE(pool.InjectFault(0, plan).ok());

  // free_ leases low indices first, so this takes device 0 and trips the
  // armed fail_on_lease plan at acquisition.
  DevicePool::Lease l = pool.Acquire().value();
  EXPECT_FALSE(l.get()->healthy());
  EXPECT_EQ(l.get()->fault_message(), "test trip");
  EXPECT_FALSE(pool.quarantined(0));  // not until the lease returns
  l.Release();

  EXPECT_TRUE(pool.quarantined(0));
  DevicePool::Stats s = pool.stats();
  EXPECT_EQ(s.quarantined, 1u);
  EXPECT_EQ(s.quarantined_now, 1u);
  EXPECT_EQ(s.in_use, 0u);
  EXPECT_EQ(pool.idle(), 1u);  // quarantined devices are not idle
}

TEST(DevicePool, NoAcquireVariantHandsOutQuarantinedDevices) {
  DevicePool pool(2);
  gpusim::FaultPlan plan;
  plan.fail_on_lease = true;
  ASSERT_TRUE(pool.InjectFault(0, plan).ok());
  pool.Acquire().value().Release();  // trips device 0, quarantines it
  ASSERT_TRUE(pool.quarantined(0));

  // Acquire and TryAcquire skip to the surviving device.
  {
    DevicePool::Lease l = pool.Acquire().value();
    EXPECT_EQ(l.get()->ordinal(), 1);
  }
  {
    std::optional<DevicePool::Lease> l = pool.TryAcquire();
    ASSERT_TRUE(l.has_value());
    EXPECT_EQ(l->get()->ordinal(), 1);
    EXPECT_FALSE(pool.TryAcquire().has_value());
  }
  // AcquireAll needs every device: unsatisfiable until a repair.
  Result<std::vector<DevicePool::Lease>> all = pool.AcquireAll();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kUnavailable);
  // A group whose only member is quarantined can never be covered...
  const std::vector<std::vector<size_t>> dead_group = {{0}};
  Result<DevicePool::GroupLeases> g = pool.AcquireOneOfEach(dead_group);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kUnavailable);
  // ...but a group with a live replica re-solves onto it.
  const std::vector<std::vector<size_t>> replicated = {{0, 1}};
  Result<DevicePool::GroupLeases> ok = pool.AcquireOneOfEach(replicated);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().device_of_group[0], 1u);
}

TEST(DevicePool, AcquireFailsWhenEveryDeviceIsQuarantined) {
  DevicePool pool(1);
  gpusim::FaultPlan plan;
  plan.fail_on_lease = true;
  ASSERT_TRUE(pool.InjectFault(0, plan).ok());
  pool.Acquire().value().Release();
  ASSERT_TRUE(pool.quarantined(0));

  Result<DevicePool::Lease> l = pool.Acquire();
  ASSERT_FALSE(l.ok());
  EXPECT_EQ(l.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(pool.TryAcquire().has_value());

  // Repair re-admits the same simulated hardware.
  EXPECT_TRUE(pool.Repair(0));
  EXPECT_FALSE(pool.quarantined(0));
  EXPECT_EQ(pool.idle(), 1u);
  DevicePool::Lease again = pool.Acquire().value();
  EXPECT_TRUE(again.get()->healthy());
  EXPECT_EQ(pool.stats().repaired, 1u);
}

TEST(DevicePool, InjectFaultWhileLeasedArmsAtRelease) {
  DevicePool pool(1);
  DevicePool::Lease l = pool.Acquire().value();
  gpusim::FaultPlan plan;
  plan.fail_on_lease = true;
  // The device is leased: the pool must not touch it now, so the plan is
  // deferred and the current holder keeps a healthy device.
  ASSERT_TRUE(pool.InjectFault(0, plan).ok());
  EXPECT_TRUE(l.get()->healthy());
  l.Release();
  EXPECT_FALSE(pool.quarantined(0));  // armed, not yet tripped
  EXPECT_EQ(pool.idle(), 1u);
  // The next lease trips it.
  DevicePool::Lease next = pool.Acquire().value();
  EXPECT_FALSE(next.get()->healthy());
  next.Release();
  EXPECT_TRUE(pool.quarantined(0));
}

TEST(DevicePool, InjectFaultRejectsBadIndexAndQuarantinedDevice) {
  DevicePool pool(1);
  EXPECT_EQ(pool.InjectFault(7, gpusim::FaultPlan{}).code(),
            StatusCode::kInvalidArgument);
  gpusim::FaultPlan plan;
  plan.fail_on_lease = true;
  ASSERT_TRUE(pool.InjectFault(0, plan).ok());
  pool.Acquire().value().Release();
  ASSERT_TRUE(pool.quarantined(0));
  EXPECT_EQ(pool.InjectFault(0, plan).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(pool.Repair(7));   // bad index: false, not a crash
  EXPECT_TRUE(pool.Repair(0));
  EXPECT_FALSE(pool.Repair(0));   // already live
}

// Lock contract: releasing a poisoned lease must still NotifyAll, so a
// parked group waiter wakes, re-evaluates coverage, and fails with
// kAborted instead of sleeping forever on a dead group.
TEST(DevicePool, PoisonedReleaseWakesGroupWaitersWithAborted) {
  DevicePool pool(2);
  DevicePool::Lease a = pool.Acquire().value();  // device 0
  DevicePool::Lease b = pool.Acquire().value();  // device 1
  ASSERT_EQ(a.get()->ordinal(), 0);

  const std::vector<std::vector<size_t>> groups = {{0}, {1}};
  std::atomic<bool> done{false};
  StatusCode observed = StatusCode::kOk;
  std::thread waiter([&] {
    Result<DevicePool::GroupLeases> g = pool.AcquireOneOfEach(groups);
    observed = g.ok() ? StatusCode::kOk : g.status().code();
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done) << "group waiter proceeded while devices were leased";

  // Trip device 0 in the holder's hands (the lease owns the device), then
  // release: quarantine makes group {0} dead and must wake the waiter.
  a.get()->Trip("poisoned");
  a.Release();
  waiter.join();
  EXPECT_TRUE(done);
  EXPECT_EQ(observed, StatusCode::kAborted);
  EXPECT_TRUE(pool.quarantined(0));

  // Repair restores coverage without disturbing the in-flight lease on 1.
  EXPECT_TRUE(b.get()->healthy());
  EXPECT_TRUE(pool.Repair(0));
  b.Release();
  Result<DevicePool::GroupLeases> g = pool.AcquireOneOfEach(groups);
  EXPECT_TRUE(g.ok());
}

TEST(DevicePool, ConcurrentAcquireAllCallersDoNotDeadlock) {
  DevicePool pool(4);
  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::atomic<int> completed{0};
  {
    ThreadPool workers(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.Submit([&] {
        for (int i = 0; i < kIters; ++i) {
          std::vector<DevicePool::Lease> all = pool.AcquireAll().value();
          EXPECT_EQ(all.size(), 4u);
          ++completed;
        }
      });
    }
    workers.Wait();
  }
  EXPECT_EQ(completed.load(), kThreads * kIters);
  EXPECT_EQ(pool.idle(), 4u);
}

}  // namespace
}  // namespace gsi
