// Density and arboricity measurement.
//
// The paper's guarantees are all stated relative to the maximum subgraph
// density α(G) = max_S |E(S)|/|S| and the arboricity λ(G) = max_S
// ⌈|E(S)|/(|S|-1)⌉, with α ≤ λ ≤ α+1. Benches and tests need trustworthy
// values of these, so we provide:
//  * an EXACT densest-subgraph oracle (Goldberg's min-cut construction,
//    binary search over a 1/(2n²) density grid — exact because distinct
//    subgraph densities differ by more than the grid resolution),
//  * linear-time degeneracy (a level peel of its own; the bin-sort core
//    decomposition of graph/coreness.hpp gives the same value with an
//    order), which sandwiches λ via ⌈α⌉ ≤ λ ≤ degeneracy,
//  * the classic 2-approximation peeling density along that order.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace arbor::graph {

/// Exact densest subgraph: the vertex set S maximizing |E(S)|/|S|, its edge
/// count, and the density as an exact rational evaluated to double.
struct DensestSubgraph {
  std::vector<VertexId> vertices;  ///< the maximizing S (empty iff m = 0)
  std::uint64_t subgraph_edges = 0;
  double density = 0.0;  ///< |E(S)| / |S|
};

/// Goldberg's exact algorithm. O(log(n·m) ) max-flow calls; intended for
/// validation on graphs up to a few tens of thousands of vertices.
DensestSubgraph exact_densest_subgraph(const Graph& g);

/// Degeneracy d(G) = max over subgraphs of the minimum degree, the max of
/// `core_decomposition(g)`'s core numbers; λ(G) ≤ d(G) ≤ 2λ(G) - 1. The
/// k-oracle of both theorems, computed by its own O(n + m) kernel: a
/// level-synchronous peel (the serial skeleton of PKC, Kabir and Madduri)
/// whose append-only queue prefetches the rows it is about to scan. It
/// yields no order; callers that need one take `core_decomposition(g)`.
std::size_t degeneracy(const Graph& g);

/// Density of the best suffix of `core_decomposition(g).order` — the
/// classic factor-2 approximation of α(G): one suffix is the max core,
/// whose min degree d(G) ≥ α(G) gives density ≥ d(G)/2. O(n + m).
double peeling_density_lower_bound(const Graph& g);

/// Sandwich bounds for arboricity: lower = ⌈|E(S*)|/(|S*|-1)⌉ from the exact
/// densest subgraph, upper = degeneracy.
struct ArboricityBounds {
  std::size_t lower = 0;
  std::size_t upper = 0;
};
ArboricityBounds arboricity_bounds(const Graph& g);

}  // namespace arbor::graph
