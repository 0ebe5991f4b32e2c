// Edge orientations and their quality measures.
//
// An Orientation assigns each undirected edge of a Graph a direction. The
// paper's Theorem 1.1 quality target is max out-degree O(λ log log n); the
// functions here recompute out-degrees from scratch so algorithm output is
// never trusted, only measured.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace arbor::graph {

class Orientation {
 public:
  /// `towards_v[i]` == true means edge i (canonical (u,v), u < v) is
  /// oriented u -> v.
  Orientation(const Graph& g, std::vector<bool> towards_v);

  /// Direction of edge index i in g.edges().
  bool oriented_towards_v(std::size_t edge_index) const {
    return towards_v_[edge_index];
  }

  std::size_t num_edges() const noexcept { return towards_v_.size(); }

  /// Out-degree of every vertex, recomputed from the edge list.
  std::vector<std::size_t> outdegrees(const Graph& g) const;

  std::size_t max_outdegree(const Graph& g) const;

  /// Out-neighbor lists (head of each out-edge per vertex).
  std::vector<std::vector<VertexId>> out_neighbors(const Graph& g) const;

 private:
  std::vector<bool> towards_v_;
};

/// Orient every edge toward the endpoint with the larger layer value,
/// breaking ties toward the larger vertex id — exactly the paper's rule.
/// Layer value for each vertex; `infinite_layer` (e.g. ℓ = ∞) sorts above
/// every finite layer. If a partial layering leaves both endpoints at ∞ the
/// tie-break still orients the edge (ids), so the orientation is total.
/// One pass over the sorted CSR rows (row u's suffix v > u is u's share of
/// the canonical edge list); core::mpc_orient's single-part finalize.
Orientation orient_by_layers(const Graph& g,
                             const std::vector<std::uint32_t>& layer,
                             std::uint32_t infinite_layer);

/// Sequential reference: orient along a degeneracy elimination order
/// (earlier-eliminated endpoint becomes the tail). Max out-degree equals the
/// degeneracy ≤ 2λ-1 — the quality yardstick for benches.
Orientation orient_by_degeneracy(const Graph& g);

}  // namespace arbor::graph
