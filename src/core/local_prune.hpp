// Algorithm 1: LocalPrune — recursively remove the k heaviest subtrees.
//
// Semantics (paper, Algorithm 1):
//   * if the root has at most k children, return the single-node tree {r}
//     (all children are dropped);
//   * otherwise recursively prune every child's subtree, drop the k
//     largest pruned subtrees, and attach the rest.
// Guarantees exercised by tests:
//   * Claim 3.1 — each surviving node's missing-neighbor count grows by at
//     most k;
//   * Lemma 3.2 — if the root's vertex has a finite layer under a partial
//     layer assignment with out-degree d ≤ k, the pruned size is at most
//     NumPathsIn(map(root)).
// Runs locally on one machine; costs no MPC rounds.
//
// Pruning is one pass over a forest arena (core/tree_view.hpp) into a
// second forest: tree t of the output is tree t of the input pruned. Per
// tree the recursion is one reverse scan computing pruned sizes bottom-up,
// with a selection of the k heaviest children per node; the kept nodes are
// then written breadth-first into the output, so depths ascend within each
// output tree (Algorithm 2 finds its frontier leaves by that). The output is
// sized once from the input's node total (pruning never grows a tree); the
// sizes (0 marks a dropped child) and the selection buffer are per-thread
// scratch the next call reuses, and `out` keeps its buffer.
#pragma once

#include <cstddef>

#include "core/tree_view.hpp"

namespace arbor::core {

/// Replaces `out` (which must not be `forest`) by the forest whose tree t
/// is local_prune(forest.tree(t), k). Deterministic tie-breaking: subtrees
/// of equal size are ordered by the child's mapped vertex id, then by node
/// id ("ties broken arbitrarily" in the paper; fixing them makes runs
/// reproducible).
void local_prune(const TreeForest& forest, std::size_t k, TreeForest& out);

}  // namespace arbor::core
