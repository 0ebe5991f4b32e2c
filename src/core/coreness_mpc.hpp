// Approximate core decomposition in MPC — the paper's footnote 2:
// "We comment that they state this more generally for coreness
//  decomposition, but that's done by simply running the algorithm for
//  every k = (1+ε)^i coreness/arboricity estimate in parallel."
//
// Implementation: for every guess c_i = ⌈(1+ε)^i⌉ (all guesses run in
// parallel — they share the rounds and multiply global memory, like the
// density-estimation preamble) run bounded threshold peeling at threshold
// 2·c_i for R = O(log n) rounds; a vertex's estimate is the smallest guess
// whose peel removes it. Guarantees:
//   * est(v) ≥ coreness(v)/2: if the threshold-2c peel removes v then v is
//     outside the (2c+1)-core, so coreness(v) ≤ 2c_i ≤ 2(1+ε)·est-ish;
//     more precisely coreness(v) ≤ 2·est(v).
//   * est(v) ≤ (1+ε)·coreness(v) whenever the threshold-2c peel converges
//     within R rounds for c ≥ coreness(v) (it removes everything outside
//     the (2c+1)-core; with threshold twice the core density at least a
//     constant fraction of the remainder peels per round).
// Net: a 2(1+ε)-approximation, measured against the exact oracle in the
// tests and in bench E11.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/primitives.hpp"

namespace arbor::core {

struct CorenessResult {
  std::vector<std::uint32_t> estimate;  ///< per vertex
  std::size_t guesses = 0;
  std::size_t rounds_budget = 0;  ///< R (shared by the parallel guesses)
};

/// Throws an InvariantError naming the parameter unless epsilon is finite
/// with 1 + epsilon > 1 and rounds_factor is finite and ≥ 0.
CorenessResult approximate_coreness(const graph::Graph& g, double epsilon,
                                    mpc::MpcContext& ctx,
                                    double rounds_factor = 2.0);

}  // namespace arbor::core
