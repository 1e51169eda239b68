// Fixed-capacity inline vector.
//
// Bundles and execution packets have small, hard architectural bounds
// (issue width per cluster, total issue width), so the hot simulator paths
// use this allocation-free container instead of std::vector.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>

#include "util/check.hpp"

namespace vexsim {

namespace detail {
// Out of line and cold, so that the bound check leaves push_back a compare
// and a branch: small enough to inline into the simulator's per-operation
// issue path.
[[noreturn, gnu::cold, gnu::noinline]] inline void inline_vec_overflow(
    std::size_t capacity) {
  VEXSIM_CHECK_MSG(false, "InlineVec capacity " << capacity << " exceeded");
  std::abort();  // unreachable: the check above throws
}
}  // namespace detail

template <typename T, std::size_t Capacity>
class InlineVec {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  constexpr InlineVec() = default;
  constexpr InlineVec(std::initializer_list<T> init) {
    VEXSIM_CHECK(init.size() <= Capacity);
    for (const T& v : init) push_back(v);
  }

  constexpr void push_back(const T& v) {
    if (size_ >= Capacity) detail::inline_vec_overflow(Capacity);
    items_[size_++] = v;
  }

  template <typename... Args>
  constexpr T& emplace_back(Args&&... args) {
    if (size_ >= Capacity) detail::inline_vec_overflow(Capacity);
    items_[size_] = T{static_cast<Args&&>(args)...};
    return items_[size_++];
  }

  constexpr void pop_back() {
    VEXSIM_CHECK(size_ > 0);
    --size_;
  }

  constexpr void clear() { size_ = 0; }
  constexpr void resize(std::size_t n) {
    VEXSIM_CHECK(n <= Capacity);
    for (std::size_t i = size_; i < n; ++i) items_[i] = T{};
    size_ = n;
  }

  [[nodiscard]] constexpr std::size_t size() const { return size_; }
  [[nodiscard]] constexpr bool empty() const { return size_ == 0; }
  [[nodiscard]] static constexpr std::size_t capacity() { return Capacity; }
  [[nodiscard]] constexpr bool full() const { return size_ == Capacity; }

  constexpr T& operator[](std::size_t i) {
    VEXSIM_CHECK(i < size_);
    return items_[i];
  }
  constexpr const T& operator[](std::size_t i) const {
    VEXSIM_CHECK(i < size_);
    return items_[i];
  }

  constexpr T& front() { return (*this)[0]; }
  constexpr const T& front() const { return (*this)[0]; }
  constexpr T& back() { return (*this)[size_ - 1]; }
  constexpr const T& back() const { return (*this)[size_ - 1]; }

  constexpr iterator begin() { return items_.data(); }
  constexpr iterator end() { return items_.data() + size_; }
  constexpr const_iterator begin() const { return items_.data(); }
  constexpr const_iterator end() const { return items_.data() + size_; }

  friend constexpr bool operator==(const InlineVec& a, const InlineVec& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i)
      if (!(a.items_[i] == b.items_[i])) return false;
    return true;
  }

 private:
  std::array<T, Capacity> items_{};
  std::size_t size_ = 0;
};

}  // namespace vexsim
