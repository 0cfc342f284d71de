#ifndef GSI_GPUSIM_DEVICE_BUFFER_H_
#define GSI_GPUSIM_DEVICE_BUFFER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace gsi::gpusim {

/// Untyped handle to a region of the device's virtual address space. A
/// buffer's base address is 128B-aligned (like cudaMalloc), so transaction
/// counting on element offsets is exact.
class BufferAddress {
 public:
  BufferAddress() : base_(0) {}
  explicit BufferAddress(uint64_t base) : base_(base) {}
  uint64_t base() const { return base_; }

 private:
  uint64_t base_;
};

/// A typed array in simulated global memory.
///
/// Data lives host-side (std::vector) and is freely readable by host code;
/// *kernel* code must go through Warp load/store methods so that transactions
/// are counted. This mirrors how the real system mixes host-side setup with
/// device kernels.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(std::vector<T> data, BufferAddress addr)
      : data_(std::move(data)), addr_(addr) {}

  DeviceBuffer(DeviceBuffer&&) noexcept = default;
  DeviceBuffer& operator=(DeviceBuffer&&) noexcept = default;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  const T* data() const { return data_.data(); }
  T* data() { return data_.data(); }

  const T& operator[](size_t i) const { return data_[i]; }
  T& operator[](size_t i) { return data_[i]; }

  std::span<const T> span() const { return {data_.data(), data_.size()}; }
  std::span<T> span() { return {data_.data(), data_.size()}; }

  /// Keeps the first n elements (n <= size()) and releases the rest of the
  /// host storage. The base address stays, and it is 128B-aligned, so every
  /// transaction on the kept elements counts as on an n-element buffer.
  void Truncate(size_t n) {
    GSI_CHECK(n <= data_.size());
    data_.resize(n);
    data_.shrink_to_fit();
  }

  /// Virtual byte address of element i (for coalescing computations).
  uint64_t AddressOf(size_t i) const {
    GSI_CHECK(i <= data_.size());
    return addr_.base() + i * sizeof(T);
  }

  uint64_t base_address() const { return addr_.base(); }

 private:
  std::vector<T> data_;
  BufferAddress addr_;
};

}  // namespace gsi::gpusim

#endif  // GSI_GPUSIM_DEVICE_BUFFER_H_
