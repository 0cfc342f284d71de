#include "gpusim/launch.h"

#include <algorithm>
#include <queue>

namespace gsi::gpusim {

Block::Block(Device* dev, size_t block_id, size_t num_warps,
             size_t first_warp_global_id)
    : dev_(dev), id_(block_id), shared_(dev->config().shared_memory_bytes) {
  warps_.reserve(num_warps);
  for (size_t i = 0; i < num_warps; ++i) {
    warps_.emplace_back(dev, &shared_, first_warp_global_id + i, block_id, i);
  }
}

uint64_t Block::MaxWarpCycles() const {
  uint64_t m = 0;
  for (const auto& w : warps_) m = std::max(m, w.cycles());
  return m;
}

uint64_t Block::TotalWarpCycles() const {
  uint64_t s = 0;
  for (const auto& w : warps_) s += w.cycles();
  return s;
}

ScheduleResult ScheduleBlocks(const DeviceConfig& config,
                              std::span<const uint64_t> block_costs) {
  ScheduleResult result;
  // Min-heap of SM finish times; blocks dispatched in launch order to the
  // SM that frees up first (how the hardware block scheduler behaves).
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> sms;
  for (int i = 0; i < config.num_sms; ++i) sms.push(0);
  uint64_t makespan = 0;
  for (uint64_t cost : block_costs) {
    uint64_t load = sms.top();
    sms.pop();
    load += cost;
    makespan = std::max(makespan, load);
    sms.push(load);
    result.total_block_cycles += cost;
  }
  result.makespan_cycles = makespan;
  return result;
}

namespace {

uint64_t BlockCost(const DeviceConfig& config, const Block& block) {
  uint64_t slots = static_cast<uint64_t>(config.warp_slots_per_sm);
  uint64_t overlap = (block.TotalWarpCycles() + slots - 1) / slots;
  return std::max(block.MaxWarpCycles(), overlap);
}

void FinishKernel(Device& dev, std::span<const uint64_t> block_costs) {
  ScheduleResult sched = ScheduleBlocks(dev.config(), block_costs);
  dev.stats().kernel_launches += 1;
  dev.stats().simulated_cycles +=
      sched.makespan_cycles + dev.config().kernel_launch_cycles;
  // Kernel completion is a fault-trigger point: an armed FaultPlan trips
  // here deterministically (the counters are a pure function of the work).
  dev.CheckFaultTriggers();
}

}  // namespace

void Launch(Device& dev, size_t num_warps,
            const std::function<void(Warp&)>& body) {
  // The fewest rounds of one block per SM whose blocks stay within
  // warps_per_block warps; block b runs warps [b*N/B, (b+1)*N/B).
  const size_t round_warps =
      static_cast<size_t>(dev.config().num_sms) *
      static_cast<size_t>(dev.config().warps_per_block);
  const size_t rounds =
      std::max<size_t>(1, (num_warps + round_warps - 1) / round_warps);
  const size_t num_blocks = std::min(
      num_warps, rounds * static_cast<size_t>(dev.config().num_sms));
  std::vector<uint64_t> block_costs;
  block_costs.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t first = b * num_warps / num_blocks;
    const size_t count = (b + 1) * num_warps / num_blocks - first;
    Block block(&dev, b, count, first);
    for (size_t i = 0; i < count; ++i) body(block.warp(i));
    block_costs.push_back(BlockCost(dev.config(), block));
  }
  FinishKernel(dev, block_costs);
}

void LaunchBlocks(Device& dev, size_t num_blocks,
                  const std::function<void(Block&)>& body) {
  size_t wpb = static_cast<size_t>(dev.config().warps_per_block);
  std::vector<uint64_t> block_costs;
  block_costs.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    Block block(&dev, b, wpb, b * wpb);
    body(block);
    block_costs.push_back(BlockCost(dev.config(), block));
  }
  FinishKernel(dev, block_costs);
}

}  // namespace gsi::gpusim
