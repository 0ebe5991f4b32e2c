// Algorithm 4: PartialLayerAssignment = ExponentiateAndLocalPrune
// + per-tree peeling (Algorithm 3) + min-projection onto the graph.
//
// Each vertex v computes a layer for every node of its tree T_v^{(s)} with
// budget a = (s+1)·k, and the graph-level assignment takes, for every
// vertex u, the minimum layer over all tree nodes (in anyone's tree)
// mapping to u — justified by Claim 2.3 (min of partial assignments is a
// partial assignment) and Lemma 3.10. Claim 3.12 then bounds the
// out-degree of the result by (s+1)·k, independent of which trees
// contributed. The min-projection is one aggregate-by-key (O(1) sorts) in
// MPC; Claim 3.11 gives O(s) rounds total.
#pragma once

#include <cstddef>
#include <vector>

#include "core/exponentiate.hpp"
#include "core/layering.hpp"
#include "graph/graph.hpp"
#include "mpc/primitives.hpp"

namespace arbor::core {

struct PartialLayeringParams {
  std::size_t budget = 256;  ///< B
  std::size_t prune_k = 4;   ///< k
  Layer num_layers = 4;      ///< L
  std::size_t steps = 4;     ///< s (Lemma 3.7 needs s > log2 L)
};

struct PartialLayeringResult {
  LayerAssignment assignment;
  /// a = (s+1)·k — the out-degree bound promised by Claim 3.12.
  std::size_t outdegree_bound = 0;
  std::size_t max_tree_nodes = 0;
};

/// Both forests and the flat arrays one partial_layer_assignment call
/// works in. The layering passes one to all its calls, so their arenas are
/// allocated once per layering, not once per call.
struct PartialLayeringScratch {
  ExponentiateResult trees;
  ExponentiateScratch exponentiate;
};

/// Works in `scratch` when one is given, else in a scratch of its own.
PartialLayeringResult partial_layer_assignment(
    const graph::Graph& g, const PartialLayeringParams& p,
    mpc::MpcContext& ctx, PartialLayeringScratch* scratch = nullptr);

}  // namespace arbor::core
