// The cone gauge of the blocked colour descent (core/coloring_mpc.hpp,
// "Cone-size accounting").
//
// The influence cone of a block vertex v at radius R is every block vertex
// reachable from v in ≤ R hops along edges v → w with
// ℓ(v) ≤ ℓ(w) ≤ block_hi, plus one word per edge from a vertex at distance
// < R to a layer above the block (those colours are replay inputs):
//
//   cone(v, R) = |reach(v, R)| + Σ_{u ∈ reach(v, R−1)} above(u).
//
// `build` lays out the block once as a forward CSR in block-local ids;
// `cone_sizes` then runs all sampled BFSes as one level-synchronous
// multi-source BFS (Then et al., "The More the Merrier", VLDB 2014): each
// start owns one bit lane of the uint64 seen, frontier and next masks of
// every block vertex, and each level expands only the active list (the
// vertices with a frontier lane), so an edge is scanned at most once per
// level for up to 64 starts. Starts beyond 64 run in further lane groups.
// core/directed_exponentiation's exact reach sets are the cross-check
// (tests/directed_exponentiation_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/layering.hpp"
#include "graph/graph.hpp"

namespace arbor::core {

class ConeGauge {
 public:
  /// Lays out the forward view of the block whose members are `members`
  /// (every vertex with a layer in [lo, block_hi], any order): for local
  /// id i = members[i], its neighbours w with ℓ(members[i]) ≤ ℓ(w) ≤
  /// block_hi in neighbour order, and its count of neighbours above
  /// block_hi. `local_id` is n-sized scratch; build overwrites the entries
  /// of the members and reads no others.
  void build(const graph::Graph& g, const std::vector<Layer>& layer,
             std::span<const graph::VertexId> members, Layer block_hi,
             std::span<graph::VertexId> local_id);

  /// Element i is cone(starts[i], radius), starts in block-local ids.
  /// Duplicate starts are allowed; each start has its own lane.
  std::vector<std::size_t> cone_sizes(std::span<const graph::VertexId> starts,
                                      std::size_t radius);

 private:
  /// One lane group: starts.size() ≤ 64, start i on bit i.
  void run_lane_group(std::span<const graph::VertexId> starts,
                      std::size_t radius, std::span<std::size_t> cones);

  std::vector<std::size_t> offsets_;  // forward CSR over local ids
  std::vector<graph::VertexId> targets_;
  std::vector<std::uint32_t> above_;  // neighbours above block_hi
  // Lane masks per local id: the lanes that reached it, the lanes that
  // reached it first at the level being expanded, and the lanes reaching
  // it first at the next level. frontier_ and next_ are all zero between
  // lane groups.
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::uint64_t> next_;
  std::vector<graph::VertexId> active_;      // frontier_ != 0
  std::vector<graph::VertexId> discovered_;  // next_ != 0, in order
};

}  // namespace arbor::core
