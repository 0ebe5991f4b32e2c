// The layering pipeline: Lemma 3.13 (one partial-layering shot),
// Lemma 3.14 (iterate on the unassigned residue), and Lemma 3.15
// (initial peeling + budget boosting) which yields the COMPLETE layer
// assignment behind Theorems 1.1 and 1.2:
//   1. out-degree ≤ O(k · log log n), and
//   2. geometric decay |{v : ℓ(v) ≥ j}| ≤ 0.5^{j-1}·n.
//
// Constants policy: every proof constant is a field of
// PipelineParams. `paper(k)` uses the literal formulas (B = k^100,
// L = ⌈0.1·log_k B⌉, s = ⌈10·log log n⌉, …) clamped to the local-memory
// cap; `practical(k)` uses constants tuned so experiment-scale graphs
// exercise the same mechanisms. Benches print which preset produced each
// row.
//
// Termination fallback: with practical constants a phase
// can fail to assign any vertex (the paper's constants provably exclude
// this). A stalled phase escalates — first doubling the pruning parameter,
// then running one explicit threshold-peel round (1 MPC round, threshold
// doubling until progress). Escalations are counted in the run stats and
// never weaken the measured out-degree: the bound reported is the max
// budget `a` actually used.
#pragma once

#include <cstddef>
#include <vector>

#include "core/layering.hpp"
#include "core/partial_layering.hpp"
#include "graph/graph.hpp"
#include "mpc/primitives.hpp"

namespace arbor::core {

struct PipelineParams {
  std::size_t k = 1;  ///< density parameter; guarantees need k ≥ λ(G)

  double budget_exponent = 3.0;      ///< B = k^e   (paper: 100)
  std::size_t min_budget = 64;       ///< floor for B
  std::size_t budget_cap = 0;        ///< ceiling for B; 0 → machine words S
  double layer_fraction = 0.5;       ///< L = ⌈f·log_k B⌉   (paper: 0.1)
  double steps_loglog_factor = 1.0;  ///< s ≈ f·log2 log2 n (paper: 10)
  double peel_rounds_factor = 2.0;   ///< Stage-1 rounds = ⌈f·log2(k+2)⌉ (100)
  double boost_exponent = 2.0;       ///< B ← B^e between phases (paper: 100)
  std::size_t max_phases = 64;       ///< loop guards (paper: O(log log n))

  static PipelineParams practical(std::size_t k);
  static PipelineParams paper(std::size_t k);

  /// Rejects, by name, a double field that is NaN, infinite or negative
  /// (0 is legal). The derive_* helpers and every entry point below run it
  /// first. A finite field too large for the count derived from it is
  /// rejected, by name, where that count is derived: L ≥ kInfiniteLayer in
  /// derive_layers, s ≥ 64 in derive_steps, and 2^63 or more Stage-1
  /// rounds in derive_peel_rounds. The two exponents only feed a power
  /// that saturates at the budget cap, so any finite value is safe.
  void validate() const;

  std::size_t derive_budget(std::size_t words_per_machine) const;
  Layer derive_layers(std::size_t budget) const;
  std::size_t derive_steps(std::size_t n, Layer layers) const;
  /// Stage-1 peel rounds of complete_layering: ⌈f·log2(k+2)⌉.
  std::size_t derive_peel_rounds() const;
};

struct LayeringRunStats {
  std::size_t phases = 0;            ///< Lemma 3.15 boosting phases
  std::size_t partial_iterations = 0;///< Lemma 3.14 inner iterations
  std::size_t fallback_peel_rounds = 0;
  std::size_t escalations = 0;
  std::size_t max_budget_used = 0;   ///< largest B across phases
};

struct PartialPipelineResult {
  LayerAssignment assignment;       ///< partial: unassigned stay at ∞
  std::size_t outdegree_bound = 0;  ///< max a over iterations
  LayeringRunStats stats;
};

struct CompleteLayeringResult {
  LayerAssignment assignment;  ///< complete: every vertex finite
  std::size_t outdegree_bound = 0;
  LayeringRunStats stats;
};

/// Lemma 3.13: one PartialLayerAssignment call with derived (B, L, s).
/// Each entry below works in `scratch` when one is given (see
/// partial_layer_assignment), else in a scratch of its own.
PartialLayeringResult run_partial_once(
    const graph::Graph& g, const PipelineParams& p, std::size_t budget,
    mpc::MpcContext& ctx, PartialLayeringScratch* scratch = nullptr);

/// Lemma 3.14: iterate Lemma 3.13 on the unassigned residue, offsetting
/// layers between iterations, until the residue is empty or the phase
/// budget of iterations is exhausted.
PartialPipelineResult run_partial_iterated(
    const graph::Graph& g, const PipelineParams& p, std::size_t budget,
    mpc::MpcContext& ctx, PartialLayeringScratch* scratch = nullptr);

/// Lemma 3.15: Stage-1 threshold peeling, then Lemma 3.14 phases with
/// budget boosting until every vertex is assigned. The result satisfies
/// the decay property (tested, not assumed) and out-degree ≤ the reported
/// bound (checked in debug builds).
CompleteLayeringResult complete_layering(const graph::Graph& g,
                                         const PipelineParams& p,
                                         mpc::MpcContext& ctx);

}  // namespace arbor::core
