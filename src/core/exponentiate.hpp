// Algorithm 2: ExponentiateAndLocalPrune.
//
// Every vertex v maintains a rooted tree T_v with a valid mapping whose
// root maps to v, within a node budget B. Each of the s steps:
//  1. Local prune (Algorithm 1) with parameter k; a vertex whose pruned
//     tree exceeds √B nodes goes inactive (its tree stops expanding).
//  2. Graph exponentiation: every active v replaces the leaves at distance
//     exactly 2^{i-1} from its root that map to active vertices with those
//     vertices' pruned trees (Definition 2.5) — doubling the tree's reach.
// Invariants maintained (and unit-tested): the mapping stays valid
// (Claim 3.3) and |T_v| ≤ B (Claim 3.4). MPC cost: O(s) rounds with
// O(n^δ + B) local and O(nB + m) global memory (Claim 3.5); the tree
// shipping in step 2 is executed through the Lemma 4.1 bundle-fetch
// primitive so rounds and footprints are charged from real data volumes.
//
// Trees are flat arenas (core/tree_view.hpp) rewritten in place: prune
// writes T_v into a per-vertex scratch tree and attach writes it back, so
// buffers are reused across steps. Only requested trees are serialized,
// into one bundle arena; attach reads the fetched spans, never pruned[u].
#pragma once

#include <cstddef>
#include <vector>

#include "core/tree_view.hpp"
#include "graph/graph.hpp"
#include "mpc/primitives.hpp"

namespace arbor::core {

struct ExponentiateParams {
  std::size_t budget = 256;  ///< B — max tree nodes per vertex
  std::size_t prune_k = 4;   ///< k — subtrees dropped per node per prune
  std::size_t steps = 4;     ///< s — exponentiation steps
};

struct ExponentiateStepStats {
  std::size_t active_vertices = 0;
  std::size_t max_tree_nodes = 0;
  std::size_t total_tree_nodes = 0;
  std::size_t fetch_rounds = 0;
};

struct ExponentiateResult {
  std::vector<TreeView> trees;  ///< T_v^{(s)} per vertex
  std::vector<bool> active;     ///< activity after the final step
  std::vector<ExponentiateStepStats> per_step;
  std::size_t max_tree_nodes = 0;
};

ExponentiateResult exponentiate_and_local_prune(const graph::Graph& g,
                                                const ExponentiateParams& p,
                                                mpc::MpcContext& ctx);

}  // namespace arbor::core
