// MPC-native density-parameter estimation — the paper's preamble step.
//
// Theorem 1.1's proof opens with: "Using an extra O(log n) factor in the
// global memory, we can assume that we are given k with
// k ∈ [100λ(G), 200λ(G)]" — i.e. run the algorithm for every guess
// k = 2^i in parallel and keep the smallest guess that works (see also
// [Gha, Exercise 2.3]). This module implements that preamble concretely:
//
//   For each guess k* = 1, 2, 4, ... (all in parallel), run threshold
//   peeling at threshold f·k* for R = ⌈c·log2 n⌉ rounds. Since threshold
//   ≥ 4λ removes at least half of the remaining vertices per round, the
//   guess k* ≥ λ always completes; and any completing guess has
//   degeneracy ≤ f·k*, hence λ ≤ f·k*. The smallest completing guess k*
//   therefore satisfies λ/f ≤ k* ≤ 2λ, and k = f·k* ∈ [λ, 2f·λ] — a
//   constant-factor density estimate obtained in O(log n) PARALLEL rounds
//   (the guesses share the rounds; they multiply only the global memory,
//   which is the paper's "extra O(log n) factor").
//
// Note the O(log n) rounds: the estimate is NOT the bottleneck the paper
// is fighting (it is charged rounds = R once), but for the benches we
// also expose the degeneracy-oracle estimator which is free of that
// additive term; `KEstimator` selects between the two.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"
#include "mpc/primitives.hpp"

namespace arbor::core {

/// How the end-to-end algorithms obtain k = Θ(λ) when not supplied.
enum class KEstimator {
  /// Sequential degeneracy oracle: k ∈ [λ, 2λ-1], charged as the paper's
  /// guess-in-parallel (1 round + ×log n global memory). The default.
  kDegeneracyOracle,
  /// The fully MPC-native parallel-guessing preamble below: k ∈ [λ, 8λ],
  /// costs its O(log n) round budget explicitly.
  kParallelGuess,
};

struct DensityEstimate {
  std::size_t k = 1;             ///< the estimate: λ ≤ k ≤ 2f·λ
  std::size_t smallest_guess = 1;  ///< k* — smallest completing power of 2
  std::size_t guesses = 0;       ///< parallel guesses executed
  std::size_t rounds_budget = 0;  ///< R
};

/// `threshold_factor` is f above (≥ 4 for the completion guarantee);
/// `rounds_factor` (finite, ≥ 0) scales R = ⌈rounds_factor·log2 n⌉ + 1.
/// Other values throw an InvariantError naming the factor.
DensityEstimate estimate_density_mpc(const graph::Graph& g,
                                     mpc::MpcContext& ctx,
                                     double threshold_factor = 4.0,
                                     double rounds_factor = 1.0);

}  // namespace arbor::core
