// Tests of the GPU execution model: transaction coalescing, cost
// attribution, shared-memory limits, scheduling and the scan primitive.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "gpusim/scan.h"
#include "gpusim/shared_memory.h"

namespace gsi::gpusim {
namespace {

TEST(Coalescing, ConsecutiveWordsAreOneTransaction) {
  // Figure 5: 32 lanes reading 32 consecutive 4B words = 128B = 1 line.
  std::vector<uint64_t> addrs(32);
  for (int i = 0; i < 32; ++i) addrs[i] = 4096 + 4 * i;
  EXPECT_EQ(Device::CoalescedTransactions(addrs, 4), 1u);
}

TEST(Coalescing, OffsetAccessSpansTwoLines) {
  // Figure 6: the same stream shifted by 64B straddles two 128B lines.
  std::vector<uint64_t> addrs(32);
  for (int i = 0; i < 32; ++i) addrs[i] = 4096 + 64 + 4 * i;
  EXPECT_EQ(Device::CoalescedTransactions(addrs, 4), 2u);
}

TEST(Coalescing, StridedAccessIsUncoalesced) {
  // 64B stride: every other lane hits a new line -> 16 transactions.
  std::vector<uint64_t> addrs(32);
  for (int i = 0; i < 32; ++i) addrs[i] = 4096 + 64 * i;
  EXPECT_EQ(Device::CoalescedTransactions(addrs, 4), 16u);
}

TEST(Coalescing, ScatteredAccessWorstCase) {
  std::vector<uint64_t> addrs(32);
  for (int i = 0; i < 32; ++i) addrs[i] = 4096 + 1024 * i;
  EXPECT_EQ(Device::CoalescedTransactions(addrs, 4), 32u);
}

TEST(Coalescing, DuplicateAddressesCollapse) {
  std::vector<uint64_t> addrs(32, 4096);
  EXPECT_EQ(Device::CoalescedTransactions(addrs, 4), 1u);
}

TEST(Coalescing, RangeTransactionsRoundsToLines) {
  EXPECT_EQ(Device::RangeTransactions(0, 1), 1u);
  EXPECT_EQ(Device::RangeTransactions(0, 128), 1u);
  EXPECT_EQ(Device::RangeTransactions(0, 129), 2u);
  EXPECT_EQ(Device::RangeTransactions(127, 2), 2u);  // straddles
  EXPECT_EQ(Device::RangeTransactions(100, 0), 0u);
}

TEST(DeviceAlloc, BuffersAre128BAlignedAndDisjoint) {
  Device dev;
  auto a = dev.Alloc<uint32_t>(3);
  auto b = dev.Alloc<uint32_t>(5);
  EXPECT_EQ(a.base_address() % kTransactionBytes, 0u);
  EXPECT_EQ(b.base_address() % kTransactionBytes, 0u);
  // Guard line between allocations: no shared 128B line.
  EXPECT_GE(b.base_address() / kTransactionBytes,
            a.AddressOf(3) / kTransactionBytes + 1);
}

TEST(WarpOps, LoadRangeChargesLinesAndReturnsData) {
  Device dev;
  std::vector<uint32_t> host(100);
  std::iota(host.begin(), host.end(), 0);
  auto buf = dev.Upload(std::move(host));
  Launch(dev, 1, [&](Warp& w) {
    std::span<const uint32_t> s = w.LoadRange(buf, 10, 50);
    EXPECT_EQ(s[0], 10u);
    EXPECT_EQ(s[49], 59u);
  });
  // 50 x 4B starting at byte 40: bytes [40, 240) -> lines 0 and 1.
  EXPECT_EQ(dev.stats().gld, 2u);
}

TEST(WarpOps, GatherCoalescesByAddress) {
  Device dev;
  auto buf = dev.Upload(std::vector<uint32_t>(1024, 7));
  uint64_t idx[32];
  uint32_t out[32];
  // Consecutive gather: 1 transaction.
  Launch(dev, 1, [&](Warp& w) {
    for (int i = 0; i < 32; ++i) idx[i] = i;
    w.Gather(buf, std::span<const uint64_t>(idx, 32),
             std::span<uint32_t>(out, 32));
  });
  EXPECT_EQ(dev.stats().gld, 1u);
  dev.ResetStats();
  // Stride-32 gather: 32 distinct lines.
  Launch(dev, 1, [&](Warp& w) {
    for (int i = 0; i < 32; ++i) idx[i] = 32 * i;
    w.Gather(buf, std::span<const uint64_t>(idx, 32),
             std::span<uint32_t>(out, 32));
  });
  EXPECT_EQ(dev.stats().gld, 32u);
}

TEST(WarpOps, StoresCountSeparately) {
  Device dev;
  auto buf = dev.Alloc<uint32_t>(64);
  Launch(dev, 1, [&](Warp& w) {
    uint32_t vals[32] = {};
    w.StoreRange(buf, 0, std::span<const uint32_t>(vals, 32));
  });
  EXPECT_EQ(dev.stats().gst, 1u);
  EXPECT_EQ(dev.stats().gld, 0u);
}

TEST(SharedMemoryTest, EnforcesCapacity) {
  SharedMemory shm(1024);
  auto a = shm.Alloc<uint32_t>(128);  // 512B
  EXPECT_EQ(a.size(), 128u);
  EXPECT_EQ(shm.used_bytes(), 512u);
  auto b = shm.Alloc<uint32_t>(128);  // another 512B: exactly full
  EXPECT_EQ(b.size(), 128u);
  EXPECT_DEATH(shm.Alloc<uint32_t>(1), "shared memory");
  shm.Reset();
  EXPECT_EQ(shm.used_bytes(), 0u);
}

TEST(Scheduler, BalancedBlocksScaleAcrossSms) {
  DeviceConfig cfg;
  cfg.num_sms = 4;
  // 8 equal blocks on 4 SMs: makespan = 2 blocks.
  std::vector<uint64_t> costs(8, 100);
  ScheduleResult r = ScheduleBlocks(cfg, costs);
  EXPECT_EQ(r.makespan_cycles, 200u);
}

TEST(Scheduler, OneGiantBlockDominatesMakespan) {
  DeviceConfig cfg;
  cfg.num_sms = 4;
  std::vector<uint64_t> costs(7, 100);
  costs.push_back(10000);
  ScheduleResult r = ScheduleBlocks(cfg, costs);
  EXPECT_GE(r.makespan_cycles, 10000u);
  EXPECT_LE(r.makespan_cycles, 10300u);
}

TEST(Scheduler, BlockCostIsMaxOfCriticalPathAndOccupancy) {
  // A block with one heavy warp costs at least that warp; a block of many
  // equal warps costs total / slots.
  DeviceConfig one_sm;  // one SM: Launch keeps the 32 warps in one block
  one_sm.num_sms = 1;
  Device dev(one_sm);  // 32 warps/block, 4 slots
  auto buf = dev.Upload(std::vector<uint32_t>(100000, 1));
  dev.ResetStats();
  // One warp does 320 transactions, the other 31 idle: block cost ~ 320tx.
  Launch(dev, 32, [&](Warp& w) {
    if (w.global_id() == 0) w.LoadRange(buf, 0, 320 * 32);
  });
  uint64_t imbalanced = dev.stats().simulated_cycles;
  dev.ResetStats();
  // The same 320x32 elements spread over 32 warps: 10tx each; with 4 warp
  // slots the block needs ~ total/4.
  Launch(dev, 32, [&](Warp& w) {
    w.LoadRange(buf, w.global_id() * 320, 320);
  });
  uint64_t balanced = dev.stats().simulated_cycles;
  EXPECT_LT(balanced, imbalanced);
}

TEST(Scheduler, LaunchRunsEachWarpOnceInTheFewestRounds) {
  // Every grid up to three full rounds, on the default device and a
  // 4-SM, 8-warp one. Each warp charges a function of its global id, so
  // the counters are the sum over the warps whatever the cut into blocks.
  DeviceConfig small;
  small.num_sms = 4;
  small.warps_per_block = 8;
  for (const DeviceConfig& cfg : {DeviceConfig(), small}) {
    const size_t sms = static_cast<size_t>(cfg.num_sms);
    const size_t wpb = static_cast<size_t>(cfg.warps_per_block);
    Device dev(cfg);
    for (size_t n = 0; n <= 3 * sms * wpb; ++n) {
      std::vector<int> runs(n, 0);
      std::vector<size_t> block_warps;
      MemStats want;
      dev.ResetStats();
      Launch(dev, n, [&](Warp& w) {
        const size_t id = w.global_id();
        ++runs[id];
        if (w.block_id() >= block_warps.size()) {
          block_warps.resize(w.block_id() + 1, 0);
        }
        ++block_warps[w.block_id()];
        w.ChargeLoadTransactions(1 + id % 3);
        w.ChargeStoreTransactions(id % 2);
        w.SharedAccess(id % 3);
        w.Alu(id % 5);
        w.ChargeRemoteTransactions(id % 2);
        want.gld += 1 + id % 3;
        want.gst += id % 2;
        want.shared_accesses += id % 3;
        want.alu_ops += id % 5;
        want.remote_transactions += id % 2;
      });
      ASSERT_TRUE(std::ranges::all_of(runs, [](int r) { return r == 1; }))
          << "n=" << n;
      for (size_t warps : block_warps) {
        ASSERT_GE(warps, 1u) << "n=" << n;
        ASSERT_LE(warps, wpb) << "n=" << n;
      }
      // Blocks dispatch in rounds of num_sms: no more rounds than full
      // blocks need, and every SM busy in each round once there is a warp
      // per SM.
      const size_t rounds =
          std::max<size_t>(1, (n + sms * wpb - 1) / (sms * wpb));
      ASSERT_LE(block_warps.size(), rounds * sms) << "n=" << n;
      if (n >= sms) {
        ASSERT_EQ(block_warps.size(), rounds * sms) << "n=" << n;
      }
      const MemStats& got = dev.stats();
      EXPECT_EQ(got.gld, want.gld) << "n=" << n;
      EXPECT_EQ(got.gst, want.gst) << "n=" << n;
      EXPECT_EQ(got.shared_accesses, want.shared_accesses) << "n=" << n;
      EXPECT_EQ(got.alu_ops, want.alu_ops) << "n=" << n;
      EXPECT_EQ(got.remote_transactions, want.remote_transactions)
          << "n=" << n;
      EXPECT_EQ(got.kernel_launches, 1u) << "n=" << n;
    }
  }
}

TEST(Scheduler, LaunchRunsOneWarpPerSlotInOneWarpTime) {
  Device dev;
  const DeviceConfig& cfg = dev.config();
  const uint64_t one_warp =
      10 * cfg.global_transaction_cycles + cfg.kernel_launch_cycles;
  const size_t slots = static_cast<size_t>(cfg.num_sms) *
                       static_cast<size_t>(cfg.warp_slots_per_sm);
  auto body = [](Warp& w) { w.ChargeLoadTransactions(10); };
  for (size_t n = 1; n <= slots; ++n) {
    dev.ResetStats();
    Launch(dev, n, body);
    EXPECT_EQ(dev.stats().simulated_cycles, one_warp) << "n=" << n;
  }
  // One warp more than the device overlaps queues on some SM.
  dev.ResetStats();
  Launch(dev, slots + 1, body);
  EXPECT_GT(dev.stats().simulated_cycles, one_warp);
}

TEST(ScanTest, ComputesExclusivePrefixSumAndTotal) {
  Device dev;
  auto values = dev.Upload(std::vector<uint32_t>{3, 0, 5, 2});
  auto out = dev.Alloc<uint64_t>(5);
  uint64_t total = ExclusiveScan(dev, values, out);
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 3u);
  EXPECT_EQ(out[2], 3u);
  EXPECT_EQ(out[3], 8u);
  EXPECT_EQ(out[4], 10u);
  EXPECT_GE(dev.stats().kernel_launches, 1u);
}

TEST(ScanTest, EmptyInput) {
  Device dev;
  auto values = dev.Alloc<uint32_t>(0);
  auto out = dev.Alloc<uint64_t>(1);
  EXPECT_EQ(ExclusiveScan(dev, values, out), 0u);
  EXPECT_EQ(out[0], 0u);
}

// Scans `values` in one block-cooperative kernel, 1024 values per block
// (32 per warp), the way a producing kernel uses LookbackScan. `per_block`
// receives each block's own counter delta around its ScanBlock call.
struct SinglePassRun {
  std::vector<uint64_t> prefix;
  uint64_t total = 0;
  std::vector<MemStats> per_block;
};

template <typename T>
SinglePassRun RunSinglePass(Device& dev, const std::vector<T>& values) {
  const size_t n = values.size();
  const size_t per_block =
      static_cast<size_t>(dev.config().warps_per_block) * kWarpSize;
  const size_t blocks = (n + per_block - 1) / per_block;
  SinglePassRun run;
  run.prefix.resize(n);
  LookbackScan scan(dev, blocks);
  LaunchBlocks(dev, blocks, [&](Block& block) {
    const size_t first = block.id() * per_block;
    const size_t len = std::min(per_block, n - first);
    std::span<T> vals = block.shared().Alloc<T>(len);
    std::span<uint64_t> out = block.shared().Alloc<uint64_t>(len);
    std::copy_n(values.begin() + first, len, vals.begin());
    const MemStats before = dev.stats();
    scan.ScanBlock(block, std::span<const T>(vals), out);
    run.per_block.push_back(dev.stats() - before);
    std::copy_n(out.begin(), len, run.prefix.begin() + first);
  });
  run.total = scan.total();
  return run;
}

std::vector<uint32_t> ScanInput(size_t n) {
  std::vector<uint32_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint32_t>((i * 2654435761u) % 1000);
  }
  return v;
}

TEST(LookbackScanTest, MatchesStdExclusiveScan) {
  for (size_t n : {0u, 1u, 31u, 32u, 33u, 1023u, 1024u, 1025u, 40000u}) {
    Device dev;
    const std::vector<uint32_t> values = ScanInput(n);
    std::vector<uint64_t> want(n);
    std::exclusive_scan(values.begin(), values.end(), want.begin(),
                        uint64_t{0});
    const SinglePassRun run = RunSinglePass(dev, values);
    EXPECT_EQ(run.prefix, want) << "n=" << n;
    EXPECT_EQ(run.total,
              std::accumulate(values.begin(), values.end(), uint64_t{0}))
        << "n=" << n;
  }
}

// 64-bit values, as the link kernel chains its chunks' first-edge bound
// sums: single values and block sums past 2^32, a total past 2^40.
TEST(LookbackScanTest, SixtyFourBitValuesMatchStdExclusiveScan) {
  for (size_t n : {1u, 33u, 1024u, 1025u, 5000u}) {
    Device dev;
    std::vector<uint64_t> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = (uint64_t{1} << 32) + (i * 2654435761u) % 1000003;
    }
    std::vector<uint64_t> want(n);
    std::exclusive_scan(values.begin(), values.end(), want.begin(),
                        uint64_t{0});
    const SinglePassRun run = RunSinglePass(dev, values);
    EXPECT_EQ(run.prefix, want) << "n=" << n;
    const uint64_t total =
        std::accumulate(values.begin(), values.end(), uint64_t{0});
    EXPECT_EQ(run.total, total) << "n=" << n;
    if (n == 5000) {
      EXPECT_GT(total, uint64_t{1} << 40);
    }
    // Charged exactly as 32-bit values are.
    const SinglePassRun narrow =
        RunSinglePass(dev, std::vector<uint32_t>(n, 1));
    ASSERT_EQ(run.per_block.size(), narrow.per_block.size());
    for (size_t b = 0; b < run.per_block.size(); ++b) {
      EXPECT_EQ(run.per_block[b].gld, narrow.per_block[b].gld);
      EXPECT_EQ(run.per_block[b].gst, narrow.per_block[b].gst);
      EXPECT_EQ(run.per_block[b].shared_accesses,
                narrow.per_block[b].shared_accesses);
      EXPECT_EQ(run.per_block[b].alu_ops, narrow.per_block[b].alu_ops);
    }
  }
}

TEST(LookbackScanTest, AddsNoLaunchOfItsOwn) {
  for (size_t n : {0u, 33u, 40000u}) {
    Device dev;
    RunSinglePass(dev, ScanInput(n));
    // The producing kernel's one launch, nothing else.
    EXPECT_EQ(dev.stats().kernel_launches, 1u) << "n=" << n;
  }
}

TEST(LookbackScanTest, ChargesWhatItsHeaderDocumentsPerBlock) {
  Device dev;
  const size_t n = 40000;  // 40 blocks; the last holds 64 values
  const SinglePassRun run = RunSinglePass(dev, ScanInput(n));
  ASSERT_EQ(run.per_block.size(), 40u);
  for (size_t b = 0; b < run.per_block.size(); ++b) {
    const MemStats& s = run.per_block[b];
    // Look-back: block 0 publishes its inclusive prefix; every later block
    // publishes its aggregate, reads its predecessor, then publishes.
    EXPECT_EQ(s.gld, b == 0 ? 0u : 1u) << "block " << b;
    EXPECT_EQ(s.gst, b == 0 ? 1u : 2u) << "block " << b;
    // Block-local scan: 2 shared accesses and 2 ALU ops per value, and the
    // same per 32-value tile to chain the tiles.
    const uint64_t values = std::min<size_t>(1024, n - b * 1024);
    const uint64_t tiles = (values + 31) / 32;
    EXPECT_EQ(s.shared_accesses, 2 * values + 2 * tiles) << "block " << b;
    EXPECT_EQ(s.alu_ops, 2 * values + 2 * tiles) << "block " << b;
  }
  EXPECT_EQ(dev.stats().gld, 39u);
  EXPECT_EQ(dev.stats().gst, 2u * 40 - 1);
}

TEST(KernelLaunch, ChargesFixedOverhead) {
  Device dev;
  uint64_t before = dev.stats().simulated_cycles;
  dev.ChargeKernelLaunch();
  EXPECT_EQ(dev.stats().simulated_cycles - before,
            dev.config().kernel_launch_cycles);
  EXPECT_EQ(dev.stats().kernel_launches, 1u);
}

TEST(MemStatsTest, DifferenceAndAccumulate) {
  MemStats a;
  a.gld = 10;
  a.gst = 4;
  MemStats b;
  b.gld = 3;
  b.gst = 1;
  MemStats d = a - b;
  EXPECT_EQ(d.gld, 7u);
  EXPECT_EQ(d.gst, 3u);
  b += d;
  EXPECT_EQ(b.gld, 10u);
}

}  // namespace
}  // namespace gsi::gpusim
