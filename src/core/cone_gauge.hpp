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
// The descent runs in the rank order of its layering (LayerRankOrder:
// layer ascending, then id ascending), so every layer and every block is
// one contiguous rank range and a block's local ids are its ranks minus
// its first rank. The gauge never reads the graph: the descent's one pass
// over each layer hands it every neighbour rank of each member
// (`forward`), and the gauge keeps the ones from the member's layer up to
// the block's top as the member's forward row, counts the ones above the
// block as `above`, and drops the rest. Rows may close in any order; the
// descent closes them layer by layer from the top.
//
// `cone_sizes` then runs all sampled BFSes as one level-synchronous
// multi-source BFS (Then et al., "The More the Merrier", VLDB 2014): each
// start owns one bit lane of the uint64 seen, frontier and next masks of
// every block vertex, and each level expands only the active list (the
// vertices with a frontier lane), so an edge is scanned at most once per
// level for up to 64 starts. The 64 cone sizes are bit-sliced counters, so
// reaching a vertex in many lanes costs a short carry chain, not one
// increment per lane. Starts beyond 64 run in further lane groups.
// The exact reach sets of the executable directed gather, which lives with
// its tests (tests/directed_exponentiation.hpp), are the cross-check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/layering.hpp"
#include "graph/graph.hpp"

namespace arbor::core {

/// The vertices of a complete layering ranked by (layer, id) ascending:
/// layer l holds ranks [start[l], start[l+1]) for l in [1, num_layers].
struct LayerRankOrder {
  std::vector<graph::VertexId> rank;   ///< vertex -> rank
  std::vector<graph::VertexId> vert;   ///< rank -> vertex
  std::vector<graph::VertexId> start;  ///< size num_layers + 2

  /// One stable counting sort by layer. Throws InvariantError unless every
  /// layer is in [1, num_layers].
  static LayerRankOrder of(const LayerAssignment& assignment);
};

class ConeGauge {
 public:
  /// Opens the forward view of the block at ranks [begin, end) of a
  /// LayerRankOrder, with no row closed yet. Rows are then built one at a
  /// time: open_row, forward per neighbour, end_row.
  void begin_block(graph::VertexId begin, graph::VertexId end);

  /// Opens the row of a member whose layer starts at rank `floor`, with
  /// room for its `degree` neighbours.
  void open_row(graph::VertexId floor, std::size_t degree);

  /// Hands the open row its next neighbour, of rank t, in neighbour order.
  /// The row keeps t as a target when floor ≤ t < end, counts it above the
  /// block when t ≥ end, and drops it below floor. Branch-free: t is always
  /// written, and the row advances only when it keeps t.
  void forward(graph::VertexId t) {
    targets_[num_targets_] = t - begin_;
    num_targets_ += t - floor_ < end_ - floor_;
    open_above_ += t >= end_;
  }

  /// Closes the open row as the row of rank r ∈ [begin, end). Every rank
  /// of the block closes exactly once before cone_sizes.
  void end_row(graph::VertexId r);

  /// Element i is cone(starts[i], radius), starts in block-local ids.
  /// Duplicate starts are allowed; each start has its own lane.
  std::vector<std::size_t> cone_sizes(std::span<const graph::VertexId> starts,
                                      std::size_t radius);

 private:
  /// One lane group: starts.size() ≤ 64, start i on bit i.
  void run_lane_group(std::span<const graph::VertexId> starts,
                      std::size_t radius, std::span<std::size_t> cones);

  /// targets_[begin, begin + size) in local ids, and the count of
  /// neighbours above the block.
  struct Row {
    std::size_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t above = 0;
  };

  graph::VertexId begin_ = 0;  // the block's rank range
  graph::VertexId end_ = 0;
  graph::VertexId floor_ = 0;    // first rank of the open row's layer
  std::size_t open_begin_ = 0;   // first target of the open row
  std::size_t open_above_ = 0;
  std::size_t num_targets_ = 0;  // targets_ beyond it are slack
  std::size_t closed_ = 0;
  std::vector<Row> rows_;  // per local id
  std::vector<graph::VertexId> targets_;
  // Lane masks per local id: the lanes that reached it, the lanes that
  // reached it first at the level being expanded, and the lanes reaching
  // it first at the next level. frontier_ and next_ are all zero between
  // lane groups. active_ and discovered_ hold `members` + 1 slots each;
  // a count says how many are in use.
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::uint64_t> next_;
  std::vector<graph::VertexId> active_;      // frontier_ != 0
  std::vector<graph::VertexId> discovered_;  // next_ != 0, in order
};

}  // namespace arbor::core
