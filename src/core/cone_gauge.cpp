#include "core/cone_gauge.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/assert.hpp"

namespace arbor::core {

namespace {

constexpr std::size_t kLanes = 64;

/// 64 lane counters held as bit planes: bit `lane` of planes[k] is bit k
/// of that lane's count. Adding to many lanes at once is a carry chain of
/// a few word operations, not one increment per lane.
class LaneCounters {
 public:
  /// Adds `weight` to the counter of every lane in `lanes`.
  void add(std::uint64_t lanes, std::uint64_t weight) {
    for (; weight != 0; weight &= weight - 1) {
      std::uint64_t carry = lanes;
      for (int k = std::countr_zero(weight); carry != 0; ++k) {
        const std::uint64_t next = planes_[k] & carry;
        planes_[k] ^= carry;
        carry = next;
      }
    }
  }

  std::size_t count(std::size_t lane) const {
    std::size_t value = 0;
    for (std::size_t k = 0; k < kLanes; ++k)
      value |= static_cast<std::size_t>((planes_[k] >> lane) & 1) << k;
    return value;
  }

 private:
  std::uint64_t planes_[kLanes] = {};
};

}  // namespace

LayerRankOrder LayerRankOrder::of(const LayerAssignment& assignment) {
  const Layer top = assignment.num_layers;
  const std::size_t n = assignment.layer.size();
  LayerRankOrder order;
  order.start.assign(static_cast<std::size_t>(top) + 2, 0);
  for (const Layer l : assignment.layer) {
    ARBOR_CHECK(l >= 1 && l <= top);
    ++order.start[l + 1];
  }
  for (std::size_t l = 1; l < order.start.size(); ++l)
    order.start[l] += order.start[l - 1];
  std::vector<graph::VertexId> next(order.start.begin(),
                                    order.start.end() - 1);
  order.rank.resize(n);
  order.vert.resize(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    const graph::VertexId r = next[assignment.layer[v]]++;
    order.rank[v] = r;
    order.vert[r] = v;
  }
  return order;
}

void ConeGauge::begin_block(graph::VertexId begin, graph::VertexId end) {
  ARBOR_CHECK(begin <= end);
  begin_ = begin;
  end_ = end;
  const std::size_t members = end - begin;
  open_begin_ = 0;
  open_above_ = 0;
  num_targets_ = 0;
  closed_ = 0;
  rows_.resize(members);
  seen_.resize(members);
  frontier_.assign(members, 0);
  next_.assign(members, 0);
  active_.resize(members + 1);  // + the slot a dropped write lands in
  discovered_.resize(members + 1);
}

void ConeGauge::open_row(graph::VertexId floor, std::size_t degree) {
  floor_ = floor;
  if (targets_.size() < num_targets_ + degree)
    targets_.resize(std::max(num_targets_ + degree, 2 * targets_.size()));
}

void ConeGauge::end_row(graph::VertexId r) {
  ARBOR_CHECK(r >= begin_ && r < end_);
  rows_[r - begin_] = {open_begin_,
                       static_cast<std::uint32_t>(num_targets_ - open_begin_),
                       static_cast<std::uint32_t>(open_above_)};
  open_begin_ = num_targets_;
  open_above_ = 0;
  ++closed_;
}

std::vector<std::size_t> ConeGauge::cone_sizes(
    std::span<const graph::VertexId> starts, std::size_t radius) {
  const std::size_t members = rows_.size();
  ARBOR_CHECK_MSG(closed_ == members,
                  "cone_sizes() before every row of the block closed");
  for (graph::VertexId s : starts) ARBOR_CHECK(s < members);
  std::vector<std::size_t> cones(starts.size());
  for (std::size_t first = 0; first < starts.size(); first += kLanes) {
    const std::size_t lanes = std::min(kLanes, starts.size() - first);
    run_lane_group(starts.subspan(first, lanes), radius,
                   std::span<std::size_t>(cones).subspan(first, lanes));
  }
  return cones;
}

void ConeGauge::run_lane_group(std::span<const graph::VertexId> starts,
                               std::size_t radius,
                               std::span<std::size_t> cones) {
  std::fill(seen_.begin(), seen_.end(), 0);
  LaneCounters counters;  // everything a lane reached past its start
  std::size_t num_active = 0;
  for (std::size_t lane = 0; lane < starts.size(); ++lane) {
    const graph::VertexId s = starts[lane];
    if (frontier_[s] == 0) active_[num_active++] = s;
    frontier_[s] |= std::uint64_t{1} << lane;
  }
  for (std::size_t i = 0; i < num_active; ++i)
    seen_[active_[i]] = frontier_[active_[i]];

  // Level dist is expanded while dist < radius. Every lane shares the
  // radius, so one synchronous sweep per level is exact for all of them.
  // A vertex is discovered at most once per level, so the discovered list
  // fits in `members` slots plus one that a dropped write may land in;
  // every edge writes the next slot and keeps it only when it gave w its
  // first lane of the level, without a branch.
  for (std::size_t dist = 0; dist < radius && num_active != 0; ++dist) {
    std::size_t num_discovered = 0;
    for (std::size_t i = 0; i < num_active; ++i) {
      const graph::VertexId v = active_[i];
      const std::uint64_t lanes = frontier_[v];
      const Row row = rows_[v];
      if (row.above != 0) counters.add(lanes, row.above);
      for (std::size_t e = row.begin; e < row.begin + row.size; ++e) {
        const graph::VertexId w = targets_[e];
        const std::uint64_t fresh = lanes & ~seen_[w];
        const std::uint64_t reached = next_[w];
        discovered_[num_discovered] = w;
        num_discovered += (fresh != 0) & (reached == 0);
        next_[w] = reached | fresh;
      }
    }
    for (std::size_t i = 0; i < num_active; ++i) frontier_[active_[i]] = 0;
    for (std::size_t i = 0; i < num_discovered; ++i) {
      const graph::VertexId w = discovered_[i];
      seen_[w] |= next_[w];
      counters.add(next_[w], 1);
    }
    std::swap(frontier_, next_);
    std::swap(active_, discovered_);
    num_active = num_discovered;
  }
  for (std::size_t i = 0; i < num_active; ++i) frontier_[active_[i]] = 0;
  for (std::size_t lane = 0; lane < starts.size(); ++lane)
    cones[lane] = 1 + counters.count(lane);
}

}  // namespace arbor::core
