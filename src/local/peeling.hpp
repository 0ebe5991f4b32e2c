// Threshold peeling: the Barenboim–Elkin [BE08] H-partition LOCAL algorithm
// the whole paper is organized around.
//
// Per round, all vertices whose degree in the remaining graph is ≤ d are
// simultaneously removed and placed in layer H_i. With d ≥ (2+ε)·2λ ≥
// (2+ε)·avg-degree the layer sizes decay geometrically, giving Θ(log n)
// rounds and the reference layering ℓ_G used throughout §3's analysis.
//
// `ThresholdPeel` is the library's one synchronous peel (peel_by_threshold,
// core::complete_layering, the GLM19 baseline): uint32 residual degrees,
// and a peeled vertex parked at a sentinel far above any live degree, so a
// decrement needs no liveness test and a parked vertex never passes a
// threshold. A round is one branch-free ascending scan, then decrements.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace arbor::local {

class ThresholdPeel {
 public:
  /// All vertices live. `g` must outlive the peel; max degree < 2^30.
  explicit ThresholdPeel(const graph::Graph& g);

  /// Parks every live vertex of residual degree ≤ `threshold` (as at the
  /// start of the round) and decrements its neighbours. Returns them in
  /// ascending order, valid until the next call; empty if none qualifies.
  std::span<const graph::VertexId> round(std::size_t threshold);

  /// Parks one live vertex assigned outside the peel.
  void park(graph::VertexId v);

  /// Residual degree if live; a parked vertex reads above g.max_degree().
  std::uint32_t residual_degree(graph::VertexId v) const { return degree_[v]; }
  std::size_t remaining() const noexcept { return remaining_; }

 private:
  /// Parked values lie in (kParked - 2^30, kParked]; a live degree
  /// decremented below zero wraps above kParked.
  static constexpr std::uint32_t kParked = 0x80000000u;

  const graph::Graph& g_;
  std::uint32_t max_degree_ = 0;
  std::vector<std::uint32_t> degree_;
  std::vector<graph::VertexId> peeled_;  ///< n slots; a round fills a prefix
  std::size_t remaining_ = 0;
};

struct PeelingResult {
  /// 1-based layer per vertex; layer of v = round in which v was removed.
  std::vector<std::uint32_t> layer;
  std::uint32_t num_layers = 0;  ///< L = number of peel rounds used
  std::size_t rounds = 0;        ///< LOCAL rounds (== num_layers)
  bool complete = false;         ///< all vertices assigned within max_rounds
};

/// Peel vertices of remaining-degree ≤ `threshold` per round. Runs until
/// the graph is exhausted or `max_rounds` elapse (un-peeled vertices keep
/// layer 0 and `complete` is false — callers treat 0 as ∞).
PeelingResult peel_by_threshold(const graph::Graph& g, std::size_t threshold,
                                std::size_t max_rounds);

/// BE08's threshold ⌈(2+epsilon)·max(k, 1)⌉. Throws an InvariantError
/// naming `epsilon` unless it is finite and > 0 and the threshold fits.
std::size_t be08_threshold(std::size_t k, double epsilon);

/// BE08 with threshold be08_threshold(k, epsilon) for k ≥ λ(G): guaranteed
/// O(log n) rounds; the LOCAL baseline for orientation.
PeelingResult be08_h_partition(const graph::Graph& g, std::size_t k,
                               double epsilon = 0.2);

}  // namespace arbor::local
