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
// On the preorder arena (core/tree_view.hpp) the recursion is one reverse
// scan computing pruned sizes bottom-up, with a partial selection of the k
// heaviest children per node; the kept nodes are then written breadth-first
// into `out`. The sizes (0 marks a dropped child) and the selection buffer
// are per-thread scratch the next call reuses; `out` keeps its buffer.
#pragma once

#include <cstddef>

#include "core/tree_view.hpp"

namespace arbor::core {

/// Writes local_prune(tree, k) into `out` (which must not be `tree`).
/// Deterministic tie-breaking: subtrees of equal size are ordered by the
/// child's mapped vertex id, then by node id ("ties broken arbitrarily" in
/// the paper; fixing them makes runs reproducible).
void local_prune(const TreeView& tree, std::size_t k, TreeView& out);

}  // namespace arbor::core
