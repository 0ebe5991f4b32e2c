#include "graph/arboricity.hpp"

#include <algorithm>
#include <cmath>

#include "graph/coreness.hpp"
#include "graph/maxflow.hpp"
#include "util/assert.hpp"

namespace arbor::graph {

namespace {

/// Tests whether some subgraph has density strictly greater than
/// `g_num / g_den` and, if so, returns the witnessing vertex set.
/// Goldberg's network: s→v with capacity deg(v), arcs both ways per edge
/// with capacity 1, v→t with capacity 2g; all scaled by g_den to stay
/// integral. A cut ({s}∪S, rest) costs 2m - 2|E(S)| + 2g|S|, so the min cut
/// drops below 2m exactly when max_S (|E(S)| - g|S|) > 0.
struct DensityProbe {
  bool improvable = false;
  std::vector<VertexId> witness;
};

DensityProbe probe_density(const Graph& g, std::int64_t g_num,
                           std::int64_t g_den) {
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  const auto m = static_cast<std::int64_t>(g.num_edges());
  const std::uint32_t source = n;
  const std::uint32_t sink = n + 1;

  MaxFlow flow(n + 2);
  for (VertexId v = 0; v < n; ++v) {
    flow.add_arc(source, v,
                 g_den * static_cast<std::int64_t>(g.degree(v)));
    flow.add_arc(v, sink, 2 * g_num);
  }
  for (const Edge& e : g.edges()) {
    flow.add_arc(e.u, e.v, g_den);
    flow.add_arc(e.v, e.u, g_den);
  }

  const MaxFlow::Capacity cut = flow.solve(source, sink);
  DensityProbe probe;
  if (cut >= 2 * m * g_den) return probe;  // no denser subgraph

  probe.improvable = true;
  const std::vector<bool> source_side = flow.min_cut_source_side(source);
  for (VertexId v = 0; v < n; ++v)
    if (source_side[v]) probe.witness.push_back(v);
  ARBOR_CHECK_MSG(!probe.witness.empty(),
                  "density probe: cut < 2m but empty witness");
  return probe;
}

std::uint64_t count_induced_edges(const Graph& g,
                                  const std::vector<VertexId>& vertices) {
  std::vector<bool> in_set(g.num_vertices(), false);
  for (VertexId v : vertices) in_set[v] = true;
  std::uint64_t count = 0;
  for (VertexId v : vertices)
    for (VertexId w : g.neighbors(v))
      if (v < w && in_set[w]) ++count;
  return count;
}

}  // namespace

DensestSubgraph exact_densest_subgraph(const Graph& g) {
  DensestSubgraph result;
  if (g.num_edges() == 0) return result;

  const auto n = static_cast<std::int64_t>(g.num_vertices());
  const auto m = static_cast<std::int64_t>(g.num_edges());
  // Distinct subgraph densities p/q, q ≤ n differ by ≥ 1/n². Searching on
  // the grid 1/unit with unit = 2n² therefore pins down the maximizer.
  const std::int64_t unit = 2 * n * n;

  // Invariant: `best` has density > lo/unit; no subgraph has density
  // > hi/unit. A single edge has density 1/2 > 0.
  std::int64_t lo = 0;
  std::int64_t hi = m * unit;
  result.vertices = {g.edges()[0].u, g.edges()[0].v};
  result.subgraph_edges = 1;

  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    DensityProbe probe = probe_density(g, mid, unit);
    if (probe.improvable) {
      lo = mid;
      result.subgraph_edges = count_induced_edges(g, probe.witness);
      result.vertices = std::move(probe.witness);
    } else {
      hi = mid;
    }
  }

  result.density = static_cast<double>(result.subgraph_edges) /
                   static_cast<double>(result.vertices.size());
  return result;
}

std::size_t degeneracy(const Graph& g) {
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  const EdgeId* const offsets = g.offsets().data();
  const VertexId* const adjacency = g.adjacency().data();
  // deg[v]: while v is unpeeled, its degree among the unpeeled vertices,
  // floored at the current level k; a vertex peeled at level j keeps j.
  std::vector<std::uint32_t> deg(n);
  std::vector<VertexId> remaining(n);
  std::uint32_t k = 0xffffffffu;
  for (VertexId v = 0; v < n; ++v) {
    deg[v] = static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]);
    remaining[v] = v;
    k = std::min(k, deg[v]);
  }
  // One slack slot: the drain stores every neighbour at queue[tail] and
  // only then decides whether to keep it.
  std::vector<VertexId> queue(n + std::size_t{1});
  std::size_t live = n;
  std::uint32_t last_peeled_level = 0;
  while (live > 0) {
    // Compact: keep degree > k, seed degree == k, drop the vertices the
    // last level peeled (degree < k). `next` is the smallest kept degree.
    std::size_t kept = 0;
    std::size_t tail = 0;
    std::uint32_t next = 0xffffffffu;
    for (std::size_t i = 0; i < live; ++i) {
      const VertexId v = remaining[i];
      const std::uint32_t d = deg[v];
      remaining[kept] = v;
      kept += d > k;
      queue[tail] = v;
      tail += d == k;
      next = std::min(next, d > k ? d : 0xffffffffu);
    }
    live = kept;
    if (tail == 0) {  // empty level: jump to the smallest remaining degree
      k = next;
      continue;
    }
    // Drain: the queue only grows, so the rows it will scan are known 8
    // and 16 steps ahead; fetching them hides the random-access latency.
    for (std::size_t h = 0; h < tail; ++h) {
      if (h + 16 < tail) __builtin_prefetch(offsets + queue[h + 16]);
      if (h + 8 < tail) __builtin_prefetch(adjacency + offsets[queue[h + 8]]);
      const VertexId v = queue[h];
      for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
        const VertexId u = adjacency[e];
        const std::uint32_t d = deg[u];
        queue[tail] = u;
        tail += d == k + 1;
        deg[u] = d - (d > k);
      }
    }
    last_peeled_level = k++;
  }
  return last_peeled_level;
}

double peeling_density_lower_bound(const Graph& g) {
  const std::size_t n = g.num_vertices();
  if (n == 0 || g.num_edges() == 0) return 0.0;
  const std::vector<VertexId> order = core_decomposition(g).order;
  // Each suffix of the order (what is left before a removal) is a
  // candidate; a removal takes its edges into the suffix with it.
  std::vector<bool> removed(n, false);
  auto remaining_edges = static_cast<double>(g.num_edges());
  double best = remaining_edges / static_cast<double>(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    removed[order[i]] = true;
    for (VertexId w : g.neighbors(order[i]))
      remaining_edges -= removed[w] ? 0.0 : 1.0;
    best = std::max(best, remaining_edges / static_cast<double>(n - i - 1));
  }
  return best;
}

ArboricityBounds arboricity_bounds(const Graph& g) {
  ArboricityBounds bounds;
  bounds.upper = degeneracy(g);
  if (g.num_edges() == 0) return bounds;
  const DensestSubgraph ds = exact_densest_subgraph(g);
  ARBOR_CHECK(ds.vertices.size() >= 2);
  const std::uint64_t s = ds.vertices.size();
  bounds.lower =
      static_cast<std::size_t>((ds.subgraph_edges + s - 2) / (s - 1));
  ARBOR_CHECK_MSG(bounds.lower <= bounds.upper,
                  "arboricity sandwich inverted — measurement bug");
  return bounds;
}

}  // namespace arbor::graph
