// Allocation-free building blocks for the per-cycle memory-system model.
//
// Every queue in the memory pipeline has a hardware capacity taken from
// MemSystemConfig (bank queue depth, DRAM read-queue depth, ...), so the
// model sizes its storage once at construction and never allocates while
// ticking. The geometry divisors (line words, bank count, set count,
// channel count) are powers of two on the paper's machine; the ablation
// and tuner sweeps also produce other values, which take the general
// hardware-division path.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace smd::mem {

/// FIFO of at most `capacity` elements in a ring of preallocated slots
/// (rounded up to a power of two, so indexing is a mask). A capacity of
/// zero (or less) makes a queue that is always full.
template <class T>
class Ring {
 public:
  explicit Ring(int capacity = 0)
      : cap_(capacity > 0 ? static_cast<std::size_t>(capacity) : 0),
        slots_(std::bit_ceil(cap_ > 0 ? cap_ : 1)),
        mask_(slots_.size() - 1) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= cap_; }

  const T& front() const { return slots_[head_]; }

  void push_back(const T& v) {
    if (full()) throw std::logic_error("mem::Ring: push onto a full queue");
    slots_[(head_ + size_) & mask_] = v;
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

 private:
  std::size_t cap_;
  std::vector<T> slots_;
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// The set of units (cache banks, DRAM channels) that have work this
/// cycle, visited in ascending index order.
class ActiveSet {
 public:
  explicit ActiveSet(std::size_t n) : words_((n + 63) / 64, 0) {}

  void insert(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void erase(std::size_t i) { words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }

  /// Calls f(i) for each member in ascending order. f may erase i; a
  /// member inserted during the walk may be missed.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// `x / d` and `x % d` for a divisor fixed at construction: a shift and a
/// mask when `d` is a power of two, hardware division otherwise.
class FixedDivisor {
 public:
  explicit FixedDivisor(std::uint64_t d)
      : d_(d), shift_(std::has_single_bit(d) ? std::countr_zero(d) : -1),
        mask_(d - 1) {
    if (d == 0) throw std::invalid_argument("mem::FixedDivisor: zero divisor");
  }

  std::uint64_t div(std::uint64_t x) const {
    return shift_ >= 0 ? x >> shift_ : x / d_;
  }
  std::uint64_t mod(std::uint64_t x) const {
    return shift_ >= 0 ? x & mask_ : x % d_;
  }

 private:
  std::uint64_t d_;
  int shift_;
  std::uint64_t mask_;
};

}  // namespace smd::mem
