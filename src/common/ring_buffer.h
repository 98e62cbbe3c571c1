#ifndef SQLB_COMMON_RING_BUFFER_H_
#define SQLB_COMMON_RING_BUFFER_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

/// \file
/// Fixed-capacity ring buffer. Backs the "k last interactions" windows of the
/// satisfaction model (Section 3 of the paper): pushing beyond capacity
/// evicts the oldest element.

namespace sqlb {

template <typename T>
class RingBuffer {
 public:
  /// Capacity must be at least 1.
  explicit RingBuffer(std::size_t capacity)
      : buffer_(capacity), capacity_(capacity) {
    SQLB_CHECK(capacity >= 1, "RingBuffer capacity must be >= 1");
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  /// Appends `value`; if full, evicts and returns the oldest element.
  /// Returns true when an eviction happened and stores it in *evicted
  /// (when evicted != nullptr).
  bool Push(T value, T* evicted = nullptr) {
    if (size_ < capacity_) {
      // Only eviction at capacity moves head_ (Clear resets it): it is 0.
      buffer_[size_] = std::move(value);
      ++size_;
      return false;
    }
    if (evicted != nullptr) *evicted = std::move(buffer_[head_]);
    buffer_[head_] = std::move(value);
    if (++head_ == capacity_) head_ = 0;
    return true;
  }

  /// Element i = 0 is the oldest retained element.
  const T& at(std::size_t i) const {
    SQLB_CHECK(i < size_, "RingBuffer index out of range");
    return buffer_[(head_ + i) % capacity_];
  }

  const T& newest() const {
    SQLB_CHECK(size_ > 0, "RingBuffer::newest on empty buffer");
    return buffer_[(head_ + size_ - 1) % capacity_];
  }

  const T& oldest() const {
    SQLB_CHECK(size_ > 0, "RingBuffer::oldest on empty buffer");
    return buffer_[head_];
  }

  void Clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Calls fn(const T&) for each retained element, oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn(at(i));
  }

 private:
  std::vector<T> buffer_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sqlb

#endif  // SQLB_COMMON_RING_BUFFER_H_
