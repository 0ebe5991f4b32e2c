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
// Each step holds every vertex's tree in one forest arena
// (core/tree_view.hpp), tree v being T_v: the forest starts as stars copied
// straight from the CSR rows, prune writes all of it in one pass into a
// second forest, and attach rebuilds the first from the pruned trees and
// the fetched payloads (runs of trees with nothing attached are copied as
// one block). Both arenas are sized from the step's node totals, never
// from n·B, and keep their buffers across steps; a caller that keeps its
// result and scratch keeps them across calls too. Only requested trees are
// serialized, into one bundle arena; attach reads the fetched spans, never
// the pruned forest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/tree_view.hpp"
#include "graph/graph.hpp"
#include "mpc/bundle_fetch.hpp"
#include "mpc/primitives.hpp"
#include "util/epoch_marks.hpp"

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
  TreeForest trees;         ///< tree v is T_v^{(s)}
  std::vector<bool> active;  ///< activity after the final step
  std::vector<ExponentiateStepStats> per_step;
  std::size_t max_tree_nodes = 0;
};

/// What one exponentiation works in besides its result: each step's pruned
/// forest and its flat per-vertex arrays. Every call overwrites them.
struct ExponentiateScratch {
  TreeForest pruned;  ///< tree v is v's pruned tree
  /// Vertex v's frontier leaves are leaf_slots[leaves_begin[v] ..
  /// leaves_begin[v+1]), each as (leaf, slot in v's request list).
  std::vector<std::size_t> leaves_begin;
  std::vector<std::pair<TreeView::NodeId, std::uint32_t>> leaf_slots;
  util::EpochMarks requested;          ///< what one requester asked for
  std::vector<std::uint32_t> slot_of;  ///< u's slot in that requester's list
  mpc::BundleArena bundles;            ///< the pruned trees, as bundles
  std::vector<TreeForest::Attachment> attachments;  ///< one tree's
};

/// Runs Algorithm 2 on g into `result`. A caller that exponentiates again
/// and again (the layering) passes the same result and scratch each time,
/// so no call allocates — and first-touches — its arenas afresh.
void exponentiate_and_local_prune(const graph::Graph& g,
                                  const ExponentiateParams& p,
                                  mpc::MpcContext& ctx,
                                  ExponentiateScratch& scratch,
                                  ExponentiateResult& result);

}  // namespace arbor::core
