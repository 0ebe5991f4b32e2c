#include "graph/coreness.hpp"

#include <algorithm>

namespace arbor::graph {

CoreDecomposition core_decomposition(const Graph& g) {
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  CoreDecomposition result;
  if (n == 0) return result;
  // deg[v]: v's current degree until v is processed, then its core number.
  std::vector<std::uint32_t> deg(n);
  for (VertexId v = 0; v < n; ++v)
    deg[v] = static_cast<std::uint32_t>(g.degree(v));
  // Counting sort by degree; bin[d] is the first position of bin d.
  std::vector<std::uint32_t> bin(*std::max_element(deg.begin(), deg.end()) +
                                     std::size_t{2}, 0);
  for (VertexId v = 0; v < n; ++v) ++bin[deg[v] + 1];
  for (std::size_t d = 1; d < bin.size(); ++d) bin[d] += bin[d - 1];
  std::vector<std::uint32_t> pos(n);
  std::vector<VertexId> vert(n);
  for (VertexId v = 0; v < n; ++v) vert[pos[v] = bin[deg[v]]++] = v;
  std::copy_backward(bin.begin(), bin.end() - 1, bin.end());
  bin[0] = 0;

  const EdgeId* const offsets = g.offsets().data();
  const VertexId* const adjacency = g.adjacency().data();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i + 16 < n) __builtin_prefetch(offsets + vert[i + 16]);
    if (i + 8 < n) __builtin_prefetch(adjacency + offsets[vert[i + 8]]);
    const VertexId v = vert[i];
    for (VertexId u : g.neighbors(v)) {
      const std::uint32_t du = deg[u];
      if (du <= deg[v]) continue;  // processed, or already at v's level
      // Swap u with the first vertex w of its bin, then advance the bin's
      // start past u: u now sits at the end of bin du - 1.
      const std::uint32_t pu = pos[u];
      const std::uint32_t pw = bin[du]++;
      const VertexId w = vert[pw];
      vert[pu] = w;
      pos[w] = pu;
      vert[pw] = u;
      pos[u] = pw;
      deg[u] = du - 1;
    }
  }
  result.degeneracy = deg[vert[n - 1]];
  result.core = std::move(deg);
  result.order = std::move(vert);
  return result;
}

std::vector<std::uint32_t> exact_coreness(const Graph& g) {
  return core_decomposition(g).core;
}

}  // namespace arbor::graph
