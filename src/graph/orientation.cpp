#include "graph/orientation.hpp"

#include "graph/coreness.hpp"
#include "util/assert.hpp"

namespace arbor::graph {

Orientation::Orientation(const Graph& g, std::vector<std::uint64_t> towards_v)
    : words_(std::move(towards_v)), num_edges_(g.num_edges()) {
  ARBOR_CHECK_MSG(words_.size() == (num_edges_ + 63) / 64,
                  "orientation size mismatch");
  ARBOR_CHECK_MSG(num_edges_ % 64 == 0 ||
                      words_.back() >> (num_edges_ % 64) == 0,
                  "orientation sets bits past its last edge");
}

std::vector<std::size_t> Orientation::outdegrees(const Graph& g) const {
  ARBOR_CHECK(num_edges_ == g.num_edges());
  std::vector<std::size_t> out(g.num_vertices(), 0);
  const auto edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i)
    ++out[oriented_towards_v(i) ? edges[i].u : edges[i].v];
  return out;
}

std::size_t Orientation::max_outdegree(const Graph& g) const {
  const auto out = outdegrees(g);
  return out.empty() ? 0 : *std::max_element(out.begin(), out.end());
}

std::vector<std::vector<VertexId>> Orientation::out_neighbors(
    const Graph& g) const {
  ARBOR_CHECK(num_edges_ == g.num_edges());
  std::vector<std::vector<VertexId>> out(g.num_vertices());
  const auto edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (oriented_towards_v(i))
      out[edges[i].u].push_back(edges[i].v);
    else
      out[edges[i].v].push_back(edges[i].u);
  }
  return out;
}

Orientation orient_by_layers(const Graph& g,
                             const std::vector<std::uint32_t>& layer) {
  ARBOR_CHECK(layer.size() == g.num_vertices());
  const std::uint32_t* const l = layer.data();
  return Orientation::pack(
      g, [l](std::size_t, const Edge& e) { return l[e.u] <= l[e.v]; });
}

Orientation orient_by_degeneracy(const Graph& g) {
  // Positions are distinct layers: the earlier is the tail.
  const std::vector<VertexId> order = core_decomposition(g).order;
  std::vector<std::uint32_t> position(g.num_vertices());
  for (std::size_t i = 0; i < order.size(); ++i)
    position[order[i]] = static_cast<std::uint32_t>(i);
  return orient_by_layers(g, position);
}

}  // namespace arbor::graph
