// FixedVector: an inline, fixed-capacity sequence for small per-call
// results (a cell's neighbours) that hot paths would otherwise heap-allocate.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>

namespace stash {

template <typename T, std::size_t N>
class FixedVector {
 public:
  void push_back(const T& value) noexcept {
    assert(size_ < N);
    items_[size_++] = value;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const T* begin() const noexcept { return items_.data(); }
  [[nodiscard]] const T* end() const noexcept { return items_.data() + size_; }

 private:
  std::array<T, N> items_{};
  std::size_t size_ = 0;
};

}  // namespace stash
