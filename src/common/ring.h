// Growable power-of-two ring buffer (SPSC queue storage).
//
// std::deque pays a block-map indirection and an allocation every few dozen
// elements; the DBC channels push and pop one 32-byte slot per logged memory
// access, and the fused publish/replay paths work on whole runs of slots in
// place. The ring keeps a contiguous power-of-two array indexed with a mask,
// so a run is at most two contiguous pieces (append / copy_out; front_run and
// reserve hand out the first piece), and grows (rarely) by doubling when a
// DMA spill pushes occupancy past the allocated capacity.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace flexstep {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t min_capacity = 16)
      : buf_(std::bit_ceil(min_capacity < 2 ? std::size_t{2} : min_capacity)),
        mask_(buf_.size() - 1) {}

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return buf_.size(); }

  const T& front() const {
    FLEX_DCHECK(count_ > 0);
    return buf_[head_];
  }

  /// Indexed access relative to the front (0 = oldest element).
  T& operator[](std::size_t i) {
    FLEX_DCHECK(i < count_);
    return buf_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    FLEX_DCHECK(i < count_);
    return buf_[(head_ + i) & mask_];
  }

  void push_back(const T& value) {
    if (count_ == buf_.size()) [[unlikely]] grow();
    buf_[(head_ + count_) & mask_] = value;
    ++count_;
  }

  /// Append `n` elements from `src` in order: at most two contiguous copies.
  void append(const T* src, std::size_t n) {
    while (count_ + n > buf_.size()) [[unlikely]] grow();
    const std::size_t tail = (head_ + count_) & mask_;
    const std::size_t first = std::min(n, buf_.size() - tail);
    std::copy(src, src + first, buf_.data() + tail);
    std::copy(src + first, src + n, buf_.data());
    count_ += n;
  }

  /// Copy elements [from, from + n) (front-relative) to `dst`.
  void copy_out(std::size_t from, std::size_t n, T* dst) const {
    FLEX_DCHECK(from + n <= count_);
    const std::size_t start = (head_ + from) & mask_;
    const std::size_t first = std::min(n, buf_.size() - start);
    std::copy(buf_.data() + start, buf_.data() + start + first, dst);
    std::copy(buf_.data(), buf_.data() + (n - first), dst + first);
  }

  /// The oldest elements that sit contiguously in memory, at most `n`: the
  /// run stops at the buffer end (the ring wrap) or at the back.
  std::span<T> front_run(std::size_t n) {
    return {buf_.data() + head_, std::min({n, count_, buf_.size() - head_})};
  }

  /// In-place append, first half: the free run at the back, at most `n`
  /// long. It stops at the buffer end or at the front, so it is contiguous.
  /// A full ring grows first, so the run is empty only for n == 0. Write the
  /// elements there, then publish a prefix with commit(). Any push, append,
  /// pop or grow in between moves or overwrites the run.
  std::span<T> reserve(std::size_t n) {
    if (count_ == buf_.size()) [[unlikely]] grow();
    const std::size_t tail = (head_ + count_) & mask_;
    const std::size_t free = buf_.size() - count_;
    return {buf_.data() + tail, std::min({n, free, buf_.size() - tail})};
  }

  /// In-place append, second half: the first `n` elements of the last
  /// reserve() run join the back of the ring.
  void commit(std::size_t n) {
    FLEX_DCHECK(count_ + n <= buf_.size());
    count_ += n;
  }

  void pop_front() { pop_front(1); }

  /// Drop the `n` oldest elements.
  void pop_front(std::size_t n) {
    FLEX_DCHECK(n <= count_);
    head_ = (head_ + n) & mask_;
    count_ -= n;
  }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.size() * 2);
    copy_out(0, count_, next.data());
    buf_ = std::move(next);
    mask_ = buf_.size() - 1;
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace flexstep
