// FIFO queue on a ring buffer that keeps its capacity.
//
// std::deque allocates and frees a chunk every few elements as a steady
// queue walks through memory. This ring reallocates only when the backlog
// outgrows every earlier backlog (capacity doubles), so a warmed queue
// allocates nothing; memory stays O(peak backlog). Popped slots are
// overwritten, not destroyed, hence the trivially-destructible element.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/check.h"

namespace adaptbf {

template <typename T>
class RingFifo {
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  RingFifo() = default;
  // A moved-from ring is empty, not a size without storage.
  RingFifo(RingFifo&& other) noexcept
      : slots_(std::move(other.slots_)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  RingFifo& operator=(RingFifo&& other) noexcept {
    slots_ = std::move(other.slots_);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& front() {
    ADAPTBF_CHECK(size_ > 0);
    return slots_[head_];
  }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }

  void pop_front() {
    ADAPTBF_CHECK(size_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> grown(slots_.empty() ? kInitialCapacity
                                        : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i)
      grown[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    slots_ = std::move(grown);
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 8;
  std::vector<T> slots_;  ///< Size is the capacity: a power of two.
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace adaptbf
