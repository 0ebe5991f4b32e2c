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
// is fighting (it is charged rounds = R once). mpc_orient and mpc_color
// therefore default to the degeneracy oracle, free of that additive term
// (resolve_density_parameter below). A caller that wants this MPC-native
// preamble instead runs it on the same context and passes its `.k` as
// the params' `k`.
#pragma once

#include <cstddef>
#include <string>

#include "graph/graph.hpp"
#include "mpc/primitives.hpp"

namespace arbor::core {

/// The paper's k-estimate contract: some k ∈ [λ, 2λ-1] via the degeneracy
/// oracle, graph::degeneracy (a level peel that computes only the scalar;
/// graph::core_decomposition gives the same value); at least 1. Uncharged.
std::size_t estimate_density_parameter(const graph::Graph& g);

/// The k front end of Theorems 1.1 and 1.2: `k` itself when nonzero,
/// otherwise the degeneracy oracle's estimate charged as the paper's
/// guess-in-parallel — 1 round under `label` and (n+m)·⌈log2 n⌉ global
/// words, so memory accounting does not flatter the oracle.
std::size_t resolve_density_parameter(const graph::Graph& g, std::size_t k,
                                      mpc::MpcContext& ctx,
                                      const std::string& label);

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
