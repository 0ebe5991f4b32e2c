// Exact core decomposition (sequential reference).
//
// The coreness of v is the largest c such that v lies in a subgraph of
// minimum degree ≥ c. `core_decomposition` is the Batagelj–Zaversnik bin
// sort: O(n + m) over flat uint32 degree, position, order and bin-start
// arrays; a neighbour of higher degree moves to the front of its bin,
// which shrinks, so nothing is queued twice. Each step prefetches the row
// of the vertex 8 places ahead in the order and the offsets of the one 16
// ahead; a bin move can still displace them, so the fetch is a guess.
//
// It is the one source of core numbers (`exact_coreness` is a view) and
// of a degeneracy order: the sequential orientation and colouring
// yardsticks and the peeling density bound read `order`, and
// core/coreness_mpc.hpp is checked against `core`. It is not the k-oracle:
// graph::degeneracy (graph/arboricity.hpp) computes the scalar with a
// kernel of its own, which must agree with `degeneracy` here.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace arbor::graph {

struct CoreDecomposition {
  std::vector<std::uint32_t> core;  ///< core number per vertex
  /// Processing order: core is nondecreasing along it and each vertex has
  /// ≤ core(v) neighbours after it; ties follow the bin sort, not ids.
  std::vector<VertexId> order;
  std::uint32_t degeneracy = 0;  ///< max core number (0 if n = 0)
};

CoreDecomposition core_decomposition(const Graph& g);

/// coreness[v] for every vertex; max element equals the degeneracy.
std::vector<std::uint32_t> exact_coreness(const Graph& g);

}  // namespace arbor::graph
