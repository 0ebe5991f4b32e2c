#include "core/cone_gauge.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/assert.hpp"

namespace arbor::core {

namespace {

constexpr std::size_t kLanes = 64;

/// Calls f(lane) for every set bit of `lanes`, lowest first.
template <typename F>
void for_each_lane(std::uint64_t lanes, F&& f) {
  while (lanes != 0) {
    f(static_cast<std::size_t>(std::countr_zero(lanes)));
    lanes &= lanes - 1;
  }
}

}  // namespace

void ConeGauge::build(const graph::Graph& g, const std::vector<Layer>& layer,
                      std::span<const graph::VertexId> members,
                      Layer block_hi, std::span<graph::VertexId> local_id) {
  ARBOR_CHECK(local_id.size() >= g.num_vertices());
  for (std::size_t i = 0; i < members.size(); ++i)
    local_id[members[i]] = static_cast<graph::VertexId>(i);
  offsets_.assign(1, 0);
  targets_.clear();
  above_.assign(members.size(), 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Layer lv = layer[members[i]];
    for (graph::VertexId w : g.neighbors(members[i])) {
      const Layer lw = layer[w];
      if (lw < lv) continue;  // influence flows along non-decreasing layers
      if (lw > block_hi) {
        ++above_[i];
      } else {
        targets_.push_back(local_id[w]);  // lv ≤ lw ≤ block_hi: a member
      }
    }
    offsets_.push_back(targets_.size());
  }
  seen_.resize(members.size());
  frontier_.assign(members.size(), 0);
  next_.assign(members.size(), 0);
}

std::vector<std::size_t> ConeGauge::cone_sizes(
    std::span<const graph::VertexId> starts, std::size_t radius) {
  ARBOR_CHECK_MSG(!offsets_.empty(), "cone_sizes() before build()");
  const std::size_t members = offsets_.size() - 1;
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
  active_.clear();
  for (std::size_t lane = 0; lane < starts.size(); ++lane) {
    const graph::VertexId s = starts[lane];
    if (frontier_[s] == 0) active_.push_back(s);
    frontier_[s] |= std::uint64_t{1} << lane;
    cones[lane] = 1;
  }
  for (graph::VertexId s : active_) seen_[s] = frontier_[s];

  // Level dist is expanded while dist < radius. Every lane shares the
  // radius, so one synchronous sweep per level is exact for all of them.
  for (std::size_t dist = 0; dist < radius && !active_.empty(); ++dist) {
    discovered_.clear();
    for (graph::VertexId v : active_) {
      const std::uint64_t lanes = frontier_[v];
      if (above_[v] != 0) {
        for_each_lane(lanes,
                      [&](std::size_t lane) { cones[lane] += above_[v]; });
      }
      for (std::size_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        const graph::VertexId w = targets_[e];
        const std::uint64_t fresh = lanes & ~seen_[w];
        if (fresh == 0) continue;
        if (next_[w] == 0) discovered_.push_back(w);
        next_[w] |= fresh;
      }
    }
    for (graph::VertexId v : active_) frontier_[v] = 0;
    for (graph::VertexId w : discovered_) {
      seen_[w] |= next_[w];
      for_each_lane(next_[w], [&](std::size_t lane) { ++cones[lane]; });
    }
    std::swap(frontier_, next_);
    std::swap(active_, discovered_);
  }
  for (graph::VertexId v : active_) frontier_[v] = 0;
}

}  // namespace arbor::core
