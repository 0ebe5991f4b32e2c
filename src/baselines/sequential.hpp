// Baseline C: sequential quality references (no MPC model).
//
// These give the quality yardsticks the MPC algorithms are compared
// against in the benches: degeneracy-order orientation (max out-degree =
// degeneracy ≤ 2λ-1) and degeneracy greedy coloring (≤ degeneracy+1
// colors). Also exposes the sequential H-partition used as ℓ_G in the
// paper's analysis.
#pragma once

#include <cstddef>

#include "core/layering.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "graph/orientation.hpp"

namespace arbor::baselines {

struct SequentialReference {
  std::size_t degeneracy = 0;
  std::size_t orientation_outdegree = 0;  ///< == degeneracy
  std::size_t coloring_colors = 0;        ///< ≤ degeneracy + 1
};

/// Compute both references along the processing order of the core
/// decomposition (graph/coreness.hpp).
SequentialReference sequential_reference(const graph::Graph& g);

/// The proof-side reference layering ℓ_G: peel threshold-k rounds
/// sequentially (same as core::reference_peeling_layering, re-exported
/// here so benches can name the baseline explicitly).
core::LayerAssignment sequential_h_partition(const graph::Graph& g,
                                             std::size_t k);

}  // namespace arbor::baselines
