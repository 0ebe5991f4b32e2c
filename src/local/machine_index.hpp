// Host machine of a vertex under block assignment: vertex v lives on
// machine v / per_machine. The embedded peel asks this once per remote
// neighbour of every peeled vertex, so the 64-bit division becomes one
// multiply-high (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019): with c = ⌊(2⁶⁴−1)/d⌋ + 1, ⌊v/d⌋ = ⌊c·v / 2⁶⁴⌋ for
// every 32-bit v and every d in [2, 2³²). d = 1 (c would be 2⁶⁴), d ≥ 2³²
// and d = 0 (an empty graph: every vertex on machine 0) divide instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace arbor::local {

class MachineIndex {
 public:
  explicit MachineIndex(std::size_t per_machine) noexcept
      : per_machine_(per_machine),
        magic_(per_machine >= 2 &&
                       per_machine <= std::numeric_limits<std::uint32_t>::max()
                   ? std::numeric_limits<std::uint64_t>::max() / per_machine + 1
                   : 0) {}

  std::size_t operator()(std::uint32_t v) const noexcept {
    if (magic_ != 0)
      return static_cast<std::size_t>(
          (static_cast<unsigned __int128>(magic_) * v) >> 64);
    return per_machine_ == 0 ? 0 : v / per_machine_;
  }

 private:
  std::size_t per_machine_;
  std::uint64_t magic_;  ///< c, or 0 where the fallback divides
};

}  // namespace arbor::local
