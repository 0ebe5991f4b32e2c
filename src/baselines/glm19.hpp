// Baseline B: the Ghaffari–Lattanzi–Mitrovic [GLM19] sparsification-based
// orientation — the Θ̃(√log n)-round state of the art this paper breaks.
//
// Shape-faithful reimplementation, not GLM19's full sparsification
// analysis — it reproduces their round structure: the T = Θ(log n) LOCAL
// peel rounds are grouped into phases of T' = Θ(√log n) rounds. Within a
// phase, only vertices whose degree is below threshold·2^{T'} can be peeled
// (the "relevant" sparsified subgraph); their T'-hop neighborhoods in that
// subgraph have size 2^{O(T')} ≤ n^δ and are gathered by graph
// exponentiation in O(log T') MPC rounds, after which the whole phase is
// simulated locally. Total: (T/T')·O(log T') = Õ(√log n) MPC rounds.
// We execute the peeling semantics exactly and charge that round formula,
// recording the measured neighborhood-size gauge that justifies it.
#pragma once

#include <cstddef>

#include "core/layering.hpp"
#include "graph/graph.hpp"
#include "graph/orientation.hpp"
#include "mpc/primitives.hpp"

namespace arbor::baselines {

struct Glm19Result {
  graph::Orientation orientation;
  core::LayerAssignment layering;
  std::size_t mpc_rounds = 0;
  std::size_t phases = 0;
  std::size_t phase_length = 0;  ///< T'
  std::size_t local_rounds = 0;  ///< underlying LOCAL peel rounds
  std::size_t max_sampled_neighborhood = 0;
};

Glm19Result glm19_orient(const graph::Graph& g, std::size_t k, double epsilon,
                         mpc::MpcContext& ctx);

}  // namespace arbor::baselines
