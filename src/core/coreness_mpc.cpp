#include "core/coreness_mpc.hpp"

#include <cmath>

#include "local/peeling.hpp"
#include "util/assert.hpp"

namespace arbor::core {

CorenessResult approximate_coreness(const graph::Graph& g, double epsilon,
                                    mpc::MpcContext& ctx,
                                    double rounds_factor) {
  // Rejected by name: casting a NaN, ∞ or negative value to size_t is UB,
  // and an epsilon with 1 + epsilon == 1 never advances the guesses.
  ARBOR_CHECK_MSG(std::isfinite(epsilon) && 1.0 + epsilon > 1.0,
                  "approximate_coreness: epsilon must be finite, 1+epsilon>1");
  ARBOR_CHECK_MSG(std::isfinite(rounds_factor) && rounds_factor >= 0.0,
                  "approximate_coreness: rounds_factor must be finite, >= 0");
  const std::size_t n = g.num_vertices();
  CorenessResult result;
  result.estimate.assign(n, 0);
  if (n == 0) return result;

  // Finite but huge factors are rejected by name too: their products would
  // overflow the size_t casts below.
  const double rounds = std::ceil(
      rounds_factor *
      std::log2(static_cast<double>(std::max<std::size_t>(n, 2))));
  ARBOR_CHECK_MSG(rounds < 0x1p63,
                  "approximate_coreness: rounds_factor gives a budget of "
                  ">= 2^63 rounds");
  const auto rounds_budget = static_cast<std::size_t>(rounds) + 1;
  result.rounds_budget = rounds_budget;

  // estimate[v] = 0 until the first guess (≥ 1) whose peel removes v;
  // every vertex is removed at the guess with threshold ≥ max degree.
  std::size_t remaining = n;

  double guess_value = 1.0;
  std::size_t previous_guess = 0;
  while (remaining > 0) {
    // A guess is stored as a 32-bit estimate.
    ARBOR_CHECK_MSG(guess_value < 0x1p32,
                    "approximate_coreness: epsilon grows a guess "
                    "(1+epsilon)^i past 2^32");
    const auto guess = static_cast<std::size_t>(std::ceil(guess_value));
    guess_value *= (1.0 + epsilon);
    if (guess == previous_guess) continue;  // ceil collision at small i
    previous_guess = guess;
    ++result.guesses;

    const local::PeelingResult peel =
        local::peel_by_threshold(g, 2 * guess, rounds_budget);
    for (graph::VertexId v = 0; v < n; ++v) {
      if (result.estimate[v] == 0 && peel.layer[v] != 0) {
        result.estimate[v] = static_cast<std::uint32_t>(guess);
        --remaining;
      }
    }
    // A large epsilon may overshoot 2n in the guess that removes the last
    // vertices; only a guess that leaves some is a failure to converge.
    ARBOR_CHECK_MSG(remaining == 0 || guess <= 2 * n,
                    "coreness guesses failed to converge");
  }

  // All guesses share the round budget (parallel); global memory pays the
  // ×guesses replication factor.
  ctx.charge(rounds_budget, "coreness.parallel_guesses");
  ctx.note_global_words((n + 2 * g.num_edges()) * result.guesses);
  return result;
}

}  // namespace arbor::core
