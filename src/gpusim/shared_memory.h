#ifndef GSI_GPUSIM_SHARED_MEMORY_H_
#define GSI_GPUSIM_SHARED_MEMORY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/check.h"

namespace gsi::gpusim {

/// Per-block programmable cache (Section II-B). Allocation is arena-style:
/// kernels Alloc<> what they need and the arena enforces the 48KB capacity,
/// which is what forces the batch-wise set-operation design in the paper.
class SharedMemory {
 public:
  explicit SharedMemory(uint64_t capacity_bytes)
      : capacity_(capacity_bytes), used_(0) {}

  /// Allocates n elements of T. Aborts if the block exceeds its shared
  /// memory budget — the same way a CUDA kernel would fail to launch.
  template <typename T>
  std::span<T> Alloc(size_t n) {
    uint64_t bytes = n * sizeof(T);
    GSI_CHECK_MSG(used_ + bytes <= capacity_,
                  "shared memory capacity exceeded");
    used_ += bytes;
    auto storage = std::make_shared<std::vector<T>>(n);
    std::span<T> out(storage->data(), storage->size());
    allocs_.push_back(std::move(storage));
    return out;
  }

  /// Reserves `bytes` of the budget without host storage: for data a
  /// kernel stages in shared memory while the simulation keeps reading the
  /// global copy (same values, only the cost differs). Aborts past the
  /// capacity, as Alloc does.
  void Reserve(uint64_t bytes) {
    GSI_CHECK_MSG(used_ + bytes <= capacity_,
                  "shared memory capacity exceeded");
    used_ += bytes;
  }

  /// Frees everything (end of block).
  void Reset() {
    allocs_.clear();
    used_ = 0;
  }

  uint64_t used_bytes() const { return used_; }
  uint64_t capacity_bytes() const { return capacity_; }

 private:
  uint64_t capacity_;
  uint64_t used_;
  std::vector<std::shared_ptr<void>> allocs_;
};

}  // namespace gsi::gpusim

#endif  // GSI_GPUSIM_SHARED_MEMORY_H_
