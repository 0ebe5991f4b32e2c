#include "graph/graph.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace arbor::graph {

std::size_t Graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v)
    best = std::max(best, degree(v));
  return best;
}

bool Graph::has_edge(VertexId u, VertexId v) const noexcept {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  // Search the shorter list.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto ns = neighbors(u);
  return std::binary_search(ns.begin(), ns.end(), v);
}

double Graph::average_degree() const noexcept {
  if (num_vertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(num_vertices());
}

InducedSubgraph Graph::induced(std::span<const VertexId> vertices) const {
  // Dense remap over the parent's ids; kAbsent marks unselected vertices.
  constexpr VertexId kAbsent = ~VertexId{0};
  std::vector<VertexId> to_new(num_vertices(), kAbsent);
  std::vector<VertexId> to_original(vertices.begin(), vertices.end());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    ARBOR_CHECK_MSG(vertices[i] < num_vertices(),
                    "induced(): vertex id out of range");
    VertexId& slot = to_new[vertices[i]];
    ARBOR_CHECK_MSG(slot == kAbsent,
                    "induced(): duplicate vertex in selection");
    slot = static_cast<VertexId>(i);
  }

  // Build CSR for the subgraph directly: count, then fill.
  const std::size_t sub_n = vertices.size();
  std::vector<EdgeId> offsets(sub_n + 1, 0);
  for (std::size_t i = 0; i < sub_n; ++i) {
    for (VertexId w : neighbors(vertices[i]))
      if (to_new[w] != kAbsent) ++offsets[i + 1];
  }
  for (std::size_t i = 0; i < sub_n; ++i) offsets[i + 1] += offsets[i];

  std::vector<VertexId> adjacency(offsets[sub_n]);
  EdgeId next = 0;
  for (std::size_t i = 0; i < sub_n; ++i) {
    for (VertexId w : neighbors(vertices[i])) {
      const VertexId j = to_new[w];
      if (j != kAbsent) adjacency[next++] = j;
    }
  }
  // Neighbor lists inherit the original order keyed by *original* ids; the
  // subgraph must be sorted by *new* ids.
  for (std::size_t i = 0; i < sub_n; ++i) {
    std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
              adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]));
  }
  // Each edge listed at its smaller endpoint, rows in order, comes out
  // canonical and already sorted.
  std::vector<Edge> edges;
  edges.reserve(offsets[sub_n] / 2);
  for (std::size_t i = 0; i < sub_n; ++i) {
    for (EdgeId e = offsets[i]; e < offsets[i + 1]; ++e)
      if (i < adjacency[e])
        edges.push_back({static_cast<VertexId>(i), adjacency[e]});
  }

  return {Graph(std::move(offsets), std::move(adjacency), std::move(edges)),
          std::move(to_original)};
}

}  // namespace arbor::graph
