// Membership marks over [0, size) that clear in O(1): a slot is marked when
// it holds the current epoch, so `next_epoch()` unmarks everything. Reused
// scratch for per-item "seen" sets (palettes, request targets, attachment
// leaves) without a hash set or an O(size) clear per item.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace arbor::util {

class EpochMarks {
 public:
  /// Grows to at least `size` slots; new slots start unmarked.
  void grow_to(std::size_t size) {
    if (stamps_.size() < size) stamps_.resize(size, 0);
  }

  void next_epoch() {
    // After 2^32 epochs the counter wraps to 0, the value every fresh slot
    // holds, and stale stamps from old epochs would read as marked. Zero
    // the stamps and restart at epoch 1.
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  bool marked(std::size_t i) const noexcept { return stamps_[i] == epoch_; }

  /// Marks slot i; true when it was not yet marked this epoch.
  bool mark(std::size_t i) noexcept {
    if (stamps_[i] == epoch_) return false;
    stamps_[i] = epoch_;
    return true;
  }

  /// mark(i) for i < limit, else false, without a branch on either test:
  /// every i ≥ limit lands on slot `limit`, which must exist.
  bool mark_below(std::size_t i, std::size_t limit) noexcept {
    const bool in_range = i < limit;
    const std::size_t slot = in_range ? i : limit;
    const bool fresh = in_range & (stamps_[slot] != epoch_);
    stamps_[slot] = epoch_;
    return fresh;
  }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 0;  // 0 is never current: call next_epoch() first
};

}  // namespace arbor::util
