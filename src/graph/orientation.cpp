#include "graph/orientation.hpp"

#include <algorithm>

#include "graph/arboricity.hpp"
#include "util/assert.hpp"

namespace arbor::graph {

Orientation::Orientation(const Graph& g, std::vector<bool> towards_v)
    : towards_v_(std::move(towards_v)) {
  ARBOR_CHECK_MSG(towards_v_.size() == g.num_edges(),
                  "orientation size mismatch");
}

std::vector<std::size_t> Orientation::outdegrees(const Graph& g) const {
  ARBOR_CHECK(towards_v_.size() == g.num_edges());
  std::vector<std::size_t> out(g.num_vertices(), 0);
  const auto edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i)
    ++out[towards_v_[i] ? edges[i].u : edges[i].v];
  return out;
}

std::size_t Orientation::max_outdegree(const Graph& g) const {
  const auto out = outdegrees(g);
  return out.empty() ? 0 : *std::max_element(out.begin(), out.end());
}

std::vector<std::vector<VertexId>> Orientation::out_neighbors(
    const Graph& g) const {
  std::vector<std::vector<VertexId>> out(g.num_vertices());
  const auto edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (towards_v_[i])
      out[edges[i].u].push_back(edges[i].v);
    else
      out[edges[i].v].push_back(edges[i].u);
  }
  return out;
}

Orientation orient_by_layers(const Graph& g,
                             const std::vector<std::uint32_t>& layer,
                             std::uint32_t infinite_layer) {
  ARBOR_CHECK(layer.size() == g.num_vertices());
  // ∞ sorts above all finite layers.
  const auto rank = [&](VertexId v) {
    return layer[v] == infinite_layer ? 0xffffffffu : layer[v];
  };
  // The canonical edge list is the suffix v > u of each sorted CSR row, rows
  // in ascending u: walk the rows and append one bit per edge.
  std::vector<bool> towards_v;
  towards_v.reserve(g.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto row = g.neighbors(u);
    const std::uint32_t ru = rank(u);
    // u -> v if v is in a strictly higher layer, or tie (v > u).
    for (auto it = std::upper_bound(row.begin(), row.end(), u);
         it != row.end(); ++it)
      towards_v.push_back(ru <= rank(*it));
  }
  return Orientation(g, std::move(towards_v));
}

Orientation orient_by_degeneracy(const Graph& g) {
  // Positions are distinct layers below 2^32 - 1: the earlier is the tail.
  std::vector<VertexId> order;
  degeneracy(g, &order);
  std::vector<std::uint32_t> position(g.num_vertices());
  for (std::size_t i = 0; i < order.size(); ++i)
    position[order[i]] = static_cast<std::uint32_t>(i);
  return orient_by_layers(g, position, 0xffffffffu);
}

}  // namespace arbor::graph
