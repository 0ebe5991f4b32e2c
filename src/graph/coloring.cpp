#include "graph/coloring.hpp"

#include <algorithm>
#include <unordered_set>

#include "graph/coreness.hpp"
#include "util/assert.hpp"

namespace arbor::graph {

ColoringCheck check_coloring(const Graph& g,
                             const std::vector<Color>& color) {
  ColoringCheck result;
  if (color.size() != g.num_vertices()) return result;  // not proper

  for (const Edge& e : g.edges()) {
    if (color[e.u] == color[e.v]) {
      result.violation = e;
      return result;
    }
  }
  std::unordered_set<Color> palette(color.begin(), color.end());
  result.proper = true;
  result.colors_used = palette.size();
  return result;
}

std::vector<Color> greedy_coloring(const Graph& g,
                                   const std::vector<VertexId>& order) {
  ARBOR_CHECK(order.size() == g.num_vertices());
  constexpr Color kUncolored = 0xffffffffu;
  std::vector<Color> color(g.num_vertices(), kUncolored);
  std::vector<bool> used;  // scratch, grown on demand
  for (VertexId v : order) {
    std::size_t bound = g.degree(v) + 1;
    if (used.size() < bound) used.resize(bound);
    std::fill(used.begin(), used.begin() + static_cast<std::ptrdiff_t>(bound),
              false);
    for (VertexId w : g.neighbors(v)) {
      const Color c = color[w];
      if (c != kUncolored && c < bound) used[c] = true;
    }
    Color c = 0;
    while (used[c]) ++c;
    color[v] = c;
  }
  return color;
}

std::vector<Color> degeneracy_coloring(const Graph& g) {
  std::vector<VertexId> order = core_decomposition(g).order;
  std::reverse(order.begin(), order.end());
  return greedy_coloring(g, order);
}

}  // namespace arbor::graph
