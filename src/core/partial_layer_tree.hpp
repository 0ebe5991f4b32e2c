// Algorithm 3: PartialLayerAssignmentTree — peel rooted tree views into
// layers.
//
// Given a tree T with valid mapping into G and a budget a, the peeling
// process assigns layer j to every still-unassigned tree node x whose
// unassigned-children count plus missing-neighbor count is at most a:
//     V_j = { x ∈ V_{≥j} : |children(x) ∩ V_{≥j}| + |Missing(x)| ≤ a }.
// Nodes never assigned within L iterations get ∞. Runs locally on one
// machine (the tree is a single vertex's bundle); costs no MPC rounds.
//
// Every tree of a forest arena (core/tree_view.hpp) is peeled in one flat
// pass: the layers form one column aligned with the forest's node columns,
// and a node's load (|children ∩ V_≥j| + |Missing(x)|, which starts at
// deg(map(x))) is a 32-bit per-thread scratch entry beside it.
//
// Correctness anchors (tested): Lemma 3.8 — strictly monotonically
// reachable nodes satisfy ℓ_T(x) ≤ ℓ_G(map(x)) whenever a ≥ d + missing;
// Lemma 3.10 — the min-projection of ℓ_T onto G has out-degree ≤ a.
#pragma once

#include <cstddef>
#include <vector>

#include "core/layering.hpp"
#include "core/tree_view.hpp"
#include "graph/graph.hpp"

namespace arbor::core {

/// Per-tree-node layer assignment of every tree of `forest`, each peeled
/// on its own: entry forest.begin(t) + x is tree t's node x, and
/// kInfiniteLayer stands for ∞.
std::vector<Layer> partial_layer_assignment_tree(const graph::Graph& g,
                                                 const TreeForest& forest,
                                                 std::size_t a, Layer L);

}  // namespace arbor::core
