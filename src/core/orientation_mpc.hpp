// Theorem 1.1: the end-to-end scalable-MPC orientation algorithm.
//
// Pipeline (paper, proof of Theorem 1.1):
//  1. obtain k = Θ(λ): the paper assumes k ∈ [100λ, 200λ] is given (running
//     all O(log n) guesses in parallel costs only an extra log-factor of
//     global memory). Unless params.k supplies it, k comes from the
//     degeneracy oracle (λ ≤ degeneracy ≤ 2λ-1) in place of the guesses,
//     charged that extra global factor (resolve_density_parameter). To run
//     the guesses themselves, pass estimate_density_mpc(g, ctx).k as
//     params.k (core/density_estimate.hpp);
//  2. if k is small (≤ threshold·log n), run the Lemma 3.15 complete
//     layering directly and orient every edge toward the higher layer
//     (ties toward the higher id) with graph::orient_by_layers;
//  3. otherwise randomly partition the edges into ⌈k/log n⌉ parts
//     (Lemma 2.1), layer each part independently — in parallel, so rounds
//     count as the max over parts (run_parts_in_parallel) — and orient
//     each edge by its own part's layering. Out-degrees add across parts:
//     O(parts · log n · log log n) = O(λ log log n).
#pragma once

#include <cstdint>

#include "core/density_estimate.hpp"  // estimate_density_parameter
#include "core/layering_pipeline.hpp"
#include "graph/graph.hpp"
#include "graph/orientation.hpp"
#include "mpc/primitives.hpp"

namespace arbor::core {

struct OrientationParams {
  /// Density parameter; 0 → the charged degeneracy oracle.
  std::size_t k = 0;
  /// Template for the per-part layering (its k field is overwritten).
  PipelineParams pipeline = PipelineParams::practical(1);
  /// Edge-partition when k > high_k_factor · log2(n).
  double high_k_factor = 4.0;
  std::uint64_t seed = 0x0e1e57ULL;
};

struct MpcOrientationResult {
  graph::Orientation orientation;
  /// Complete layering of the single-part path; for the partitioned path,
  /// the layering of part 0 (per-part layerings are independent).
  LayerAssignment layering;
  std::size_t parts = 1;
  std::size_t k_used = 0;
  /// Sum over parts of the per-part layering out-degree bounds — the
  /// guaranteed max out-degree of the returned orientation.
  std::size_t outdegree_bound = 0;
  LayeringRunStats stats;
};

MpcOrientationResult mpc_orient(const graph::Graph& g,
                                const OrientationParams& params,
                                mpc::MpcContext& ctx);

}  // namespace arbor::core
