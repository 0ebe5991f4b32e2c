#include "core/density_estimate.hpp"

#include <algorithm>
#include <cmath>

#include "graph/arboricity.hpp"
#include "local/peeling.hpp"
#include "util/assert.hpp"

namespace arbor::core {

std::size_t estimate_density_parameter(const graph::Graph& g) {
  return std::max<std::size_t>(1, graph::degeneracy(g));
}

std::size_t resolve_density_parameter(const graph::Graph& g, std::size_t k,
                                      mpc::MpcContext& ctx,
                                      const std::string& label) {
  if (k != 0) return k;
  const std::size_t n = g.num_vertices();
  const auto log_n = static_cast<std::size_t>(std::ceil(
      std::log2(static_cast<double>(std::max<std::size_t>(n, 2)))));
  ctx.charge(1, label);
  ctx.note_global_words((n + g.num_edges()) * log_n);
  return estimate_density_parameter(g);
}

DensityEstimate estimate_density_mpc(const graph::Graph& g,
                                     mpc::MpcContext& ctx,
                                     double threshold_factor,
                                     double rounds_factor) {
  // Rejected by name: casting a NaN, ∞ or negative value to size_t is UB.
  ARBOR_CHECK_MSG(std::isfinite(threshold_factor) && threshold_factor >= 4.0,
                  "estimate_density_mpc: threshold_factor must be finite, >=4");
  ARBOR_CHECK_MSG(std::isfinite(rounds_factor) && rounds_factor >= 0.0,
                  "estimate_density_mpc: rounds_factor must be finite, >= 0");
  const std::size_t n = g.num_vertices();
  DensityEstimate estimate;
  if (n == 0 || g.num_edges() == 0) {
    estimate.k = 1;
    estimate.rounds_budget = 1;
    ctx.charge(1, "density_estimate");
    return estimate;
  }

  // Finite but huge factors are rejected by name too: their products would
  // overflow the size_t casts below.
  const double rounds =
      std::ceil(rounds_factor * std::log2(static_cast<double>(n)));
  ARBOR_CHECK_MSG(rounds < 0x1p63,
                  "estimate_density_mpc: rounds_factor gives a budget of "
                  ">= 2^63 rounds");
  const auto rounds_budget = static_cast<std::size_t>(rounds) + 1;
  estimate.rounds_budget = rounds_budget;

  // All guesses run in parallel on disjoint machine groups; the guess with
  // the largest threshold always completes (threshold ≥ max degree at
  // k* ≥ Δ), so the loop terminates. Rounds are charged ONCE (max over the
  // parallel runs = the budget); global memory gets the ×guesses factor.
  std::size_t guess = 1;
  for (;; guess *= 2) {
    ++estimate.guesses;
    const double threshold = threshold_factor * static_cast<double>(guess);
    ARBOR_CHECK_MSG(threshold < 0x1p63,
                    "estimate_density_mpc: threshold_factor gives a peeling "
                    "threshold >= 2^63");
    const local::PeelingResult peel = local::peel_by_threshold(
        g, static_cast<std::size_t>(threshold), rounds_budget);
    if (peel.complete) {
      estimate.smallest_guess = guess;
      estimate.k = static_cast<std::size_t>(threshold);
      break;
    }
    ARBOR_CHECK_MSG(guess < 2 * n, "density estimate failed to converge");
  }

  ctx.charge(rounds_budget, "density_estimate");
  ctx.note_global_words((n + 2 * g.num_edges()) * estimate.guesses);
  return estimate;
}

}  // namespace arbor::core
