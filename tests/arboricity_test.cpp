// Tests for density/arboricity measurement: Dinic max-flow, Goldberg's
// exact densest subgraph, the level-peel degeneracy, the Batagelj–Zaversnik
// core decomposition against a bucket-queue reference, and the sandwich
// bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "graph/arboricity.hpp"
#include "graph/builder.hpp"
#include "graph/coreness.hpp"
#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "util/rng.hpp"

namespace arbor::graph {
namespace {

TEST(MaxFlow, SimplePath) {
  MaxFlow f(3);
  f.add_arc(0, 1, 5);
  f.add_arc(1, 2, 3);
  EXPECT_EQ(f.solve(0, 2), 3);
}

TEST(MaxFlow, ParallelPaths) {
  MaxFlow f(4);
  f.add_arc(0, 1, 2);
  f.add_arc(1, 3, 2);
  f.add_arc(0, 2, 3);
  f.add_arc(2, 3, 1);
  EXPECT_EQ(f.solve(0, 3), 3);
}

TEST(MaxFlow, ClassicDiamondWithCross) {
  // Standard example with a cross edge: max flow 2000 + 1? Construct:
  MaxFlow f(4);
  f.add_arc(0, 1, 100);
  f.add_arc(0, 2, 100);
  f.add_arc(1, 2, 1);
  f.add_arc(1, 3, 100);
  f.add_arc(2, 3, 100);
  EXPECT_EQ(f.solve(0, 3), 200);
}

TEST(MaxFlow, MinCutSourceSide) {
  MaxFlow f(4);
  f.add_arc(0, 1, 10);
  f.add_arc(1, 2, 1);  // bottleneck
  f.add_arc(2, 3, 10);
  EXPECT_EQ(f.solve(0, 3), 1);
  const auto side = f.min_cut_source_side(0);
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);
  EXPECT_FALSE(side[2]);
  EXPECT_FALSE(side[3]);
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow f(3);
  f.add_arc(0, 1, 4);
  EXPECT_EQ(f.solve(0, 2), 0);
}

TEST(MaxFlow, RejectsDoubleSolve) {
  MaxFlow f(2);
  f.add_arc(0, 1, 1);
  f.solve(0, 1);
  EXPECT_THROW(f.solve(0, 1), arbor::InvariantError);
}

TEST(DensestSubgraph, EmptyGraph) {
  const Graph g = GraphBuilder(5).build();
  const DensestSubgraph ds = exact_densest_subgraph(g);
  EXPECT_EQ(ds.density, 0.0);
  EXPECT_TRUE(ds.vertices.empty());
}

TEST(DensestSubgraph, SingleEdge) {
  const Graph g = from_edges(2, std::vector<Edge>{{0, 1}});
  const DensestSubgraph ds = exact_densest_subgraph(g);
  EXPECT_DOUBLE_EQ(ds.density, 0.5);
  EXPECT_EQ(ds.vertices.size(), 2u);
}

TEST(DensestSubgraph, CliqueDensity) {
  for (std::size_t k : {3u, 5u, 8u}) {
    const Graph g = clique(k);
    const DensestSubgraph ds = exact_densest_subgraph(g);
    EXPECT_DOUBLE_EQ(ds.density,
                     static_cast<double>(k - 1) / 2.0)
        << "K_" << k;
    EXPECT_EQ(ds.vertices.size(), k);
  }
}

TEST(DensestSubgraph, CycleDensityIsOne) {
  const Graph g = cycle(12);
  const DensestSubgraph ds = exact_densest_subgraph(g);
  EXPECT_DOUBLE_EQ(ds.density, 1.0);
}

TEST(DensestSubgraph, FindsPlantedClique) {
  util::SplitRng rng(5);
  const Graph g = planted_clique(300, 200, 20, rng);
  const DensestSubgraph ds = exact_densest_subgraph(g);
  // K_20 alone has density 9.5; the maximizer may include a few extras but
  // must be at least as dense.
  EXPECT_GE(ds.density, 9.5);
}

TEST(DensestSubgraph, StarDensity) {
  // The whole star is the densest subgraph: (n-1)/n.
  const Graph g = star(10);
  const DensestSubgraph ds = exact_densest_subgraph(g);
  EXPECT_DOUBLE_EQ(ds.density, 9.0 / 10.0);
}

TEST(Degeneracy, KnownFamilies) {
  EXPECT_EQ(degeneracy(path(10)), 1u);
  EXPECT_EQ(degeneracy(star(10)), 1u);
  EXPECT_EQ(degeneracy(cycle(10)), 2u);
  EXPECT_EQ(degeneracy(clique(6)), 5u);
  EXPECT_EQ(degeneracy(grid(4, 4)), 2u);
  EXPECT_EQ(degeneracy(complete_bipartite(3, 9)), 3u);
  EXPECT_EQ(degeneracy(GraphBuilder(4).build()), 0u);
}

TEST(Degeneracy, EliminationOrderWitnessesBound) {
  util::SplitRng rng(6);
  const Graph g = gnm(200, 800, rng);
  const std::vector<VertexId> order = core_decomposition(g).order;
  const std::size_t d = degeneracy(g);
  ASSERT_EQ(order.size(), g.num_vertices());
  // Every vertex must have ≤ d neighbors later in the order.
  std::vector<std::size_t> pos(g.num_vertices());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::size_t later = 0;
    for (VertexId w : g.neighbors(v))
      if (pos[w] > pos[v]) ++later;
    EXPECT_LE(later, d);
  }
}

/// The Matula–Beck bucket queue the bin sort replaced: peel a vertex of
/// minimum current degree; its core is the running max of removal degrees.
struct BucketQueueCores {
  std::size_t degeneracy = 0;
  std::vector<std::uint32_t> core;
};

BucketQueueCores bucket_queue_reference(const Graph& g) {
  const std::size_t n = g.num_vertices();
  BucketQueueCores result;
  result.core.assign(n, 0);
  if (n == 0) return result;
  std::vector<std::size_t> degree(n);
  std::size_t max_deg = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    max_deg = std::max(max_deg, degree[v]);
  }
  std::vector<std::vector<VertexId>> buckets(max_deg + 1);
  for (VertexId v = 0; v < n; ++v) buckets[degree[v]].push_back(v);
  std::vector<bool> removed(n, false);
  std::size_t cursor = 0;
  for (std::size_t peeled = 0; peeled < n;) {
    while (buckets[cursor].empty()) ++cursor;
    const VertexId v = buckets[cursor].back();
    buckets[cursor].pop_back();
    if (removed[v] || degree[v] != cursor) continue;  // stale entry
    removed[v] = true;
    ++peeled;
    result.degeneracy = std::max(result.degeneracy, cursor);
    result.core[v] = static_cast<std::uint32_t>(result.degeneracy);
    for (VertexId w : g.neighbors(v)) {
      if (removed[w]) continue;
      --degree[w];
      buckets[degree[w]].push_back(w);
      if (degree[w] < cursor) cursor = degree[w];
    }
  }
  return result;
}

/// Checks core_decomposition(g) against the reference and its order
/// contract; `exact_coreness` must be a view of it and the level-peel
/// `degeneracy` must agree with the reference.
void expect_matches_reference(const Graph& g) {
  const BucketQueueCores want = bucket_queue_reference(g);
  const CoreDecomposition got = core_decomposition(g);
  EXPECT_EQ(got.degeneracy, want.degeneracy);
  EXPECT_EQ(got.core, want.core);
  EXPECT_EQ(exact_coreness(g), want.core);
  EXPECT_EQ(degeneracy(g), want.degeneracy);

  const std::size_t n = g.num_vertices();
  ASSERT_EQ(got.order.size(), n);
  std::vector<std::size_t> pos(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_LT(got.order[i], n);
    ASSERT_EQ(pos[got.order[i]], n) << "vertex listed twice";
    pos[got.order[i]] = i;
  }
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_LE(got.core[got.order[i - 1]], got.core[got.order[i]])
        << "core decreases at position " << i;
  for (VertexId v = 0; v < n; ++v) {
    std::size_t later = 0;
    for (VertexId w : g.neighbors(v)) later += pos[w] > pos[v] ? 1 : 0;
    EXPECT_LE(later, got.core[v]) << "vertex " << v;
  }
}

TEST(CoreDecomposition, MatchesBucketQueueReference) {
  util::SplitRng rng(9);
  {
    SCOPED_TRACE("empty graph");
    expect_matches_reference(GraphBuilder(0).build());
  }
  {
    SCOPED_TRACE("single edge");
    GraphBuilder b(2);
    b.add_edge(0, 1);
    expect_matches_reference(b.build());
  }
  for (int i = 0; i < 240; ++i) {
    SCOPED_TRACE("graph " + std::to_string(i));
    const std::size_t n = 1 + rng.next_below(400);
    const std::size_t max_m = n * (n - 1) / 2;
    switch (i % 6) {
      case 0:
        expect_matches_reference(
            gnm(n, std::min(max_m, rng.next_below(4 * n + 1)), rng));
        break;
      case 1:
        expect_matches_reference(
            barabasi_albert(n + 8, 1 + rng.next_below(6), rng));
        break;
      case 2:
        expect_matches_reference(planted_clique(
            n + 40, rng.next_below(2 * n + 1), 2 + rng.next_below(30), rng));
        break;
      case 3:
        expect_matches_reference(
            forest_union(n + 1, 1 + rng.next_below(5), rng));
        break;
      case 4:  // mostly isolated vertices
        expect_matches_reference(gnm(n, rng.next_below(n / 2 + 1), rng));
        break;
      default: {  // a dense core among isolated vertices
        GraphBuilder b(n + 30);
        for (VertexId u = 0; u < 12; ++u)
          for (VertexId v = u + 1; v < 12; ++v)
            if (rng.next_below(4) != 0) b.add_edge(u, v);
        expect_matches_reference(b.build());
      }
    }
  }
}

/// The level peel against the bin sort on one graph.
void expect_level_peel_matches(const Graph& g) {
  EXPECT_EQ(degeneracy(g), core_decomposition(g).degeneracy);
}

TEST(Degeneracy, LevelPeelMatchesCoreDecomposition) {
  {
    SCOPED_TRACE("n = 0 and edgeless");
    expect_level_peel_matches(GraphBuilder(0).build());
    expect_level_peel_matches(GraphBuilder(1).build());
    expect_level_peel_matches(GraphBuilder(37).build());
  }
  {
    SCOPED_TRACE("small families");
    expect_level_peel_matches(path(2));
    expect_level_peel_matches(path(100));
    expect_level_peel_matches(star(50));
    expect_level_peel_matches(cycle(30));
    expect_level_peel_matches(clique(2));
    expect_level_peel_matches(clique(40));
    expect_level_peel_matches(grid(9, 13));
  }
  {
    // After the path peels at level 1, levels 2..48 are empty: k must jump
    // straight to the clique's 49.
    SCOPED_TRACE("K50 plus a long path");
    GraphBuilder b(50 + 2000);
    for (VertexId u = 0; u < 50; ++u)
      for (VertexId v = u + 1; v < 50; ++v) b.add_edge(u, v);
    for (VertexId v = 50; v + 1 < 50 + 2000; ++v) b.add_edge(v, v + 1);
    const Graph g = b.build();
    EXPECT_EQ(degeneracy(g), 49u);
    expect_level_peel_matches(g);
  }
  util::SplitRng rng(27);
  {
    SCOPED_TRACE("generator families");
    expect_level_peel_matches(planted_clique(3000, 9000, 60, rng));
    expect_level_peel_matches(slow_peeling_chain(5, 10, rng).graph);
    expect_level_peel_matches(barabasi_albert(4000, 4, rng));
    expect_level_peel_matches(
        relabel_randomly(gnm(4000, 32000, rng), rng));
  }
  for (int i = 0; i < 240; ++i) {
    SCOPED_TRACE("random graph " + std::to_string(i));
    const std::size_t n = 1 + rng.next_below(300);
    const std::size_t max_m = n * (n - 1) / 2;
    switch (i % 4) {
      case 0:
        expect_level_peel_matches(
            gnm(n, std::min(max_m, rng.next_below(6 * n + 1)), rng));
        break;
      case 1:
        expect_level_peel_matches(
            barabasi_albert(n + 8, 1 + rng.next_below(8), rng));
        break;
      case 2:
        expect_level_peel_matches(planted_clique(
            n + 40, rng.next_below(2 * n + 1), 2 + rng.next_below(30), rng));
        break;
      default:  // sparse: many isolated vertices and short paths
        expect_level_peel_matches(gnm(n, rng.next_below(n / 2 + 1), rng));
    }
  }
}

TEST(PeelingDensity, WithinFactorTwo) {
  util::SplitRng rng(7);
  const Graph g = planted_clique(300, 300, 24, rng);
  const double exact = exact_densest_subgraph(g).density;
  const double approx = peeling_density_lower_bound(g);
  EXPECT_LE(approx, exact + 1e-9);
  EXPECT_GE(approx, exact / 2.0 - 1e-9);
}

TEST(ArboricityBounds, SandwichHolds) {
  util::SplitRng rng(8);
  for (int i = 0; i < 6; ++i) {
    const Graph g = gnm(120, 120 * (i + 1), rng);
    const ArboricityBounds b = arboricity_bounds(g);
    EXPECT_LE(b.lower, b.upper);
    EXPECT_GE(b.upper, 1u);
  }
}

TEST(ArboricityBounds, ExactOnForest) {
  util::SplitRng rng(9);
  const Graph g = random_forest(200, rng);
  const ArboricityBounds b = arboricity_bounds(g);
  EXPECT_EQ(b.lower, 1u);
  EXPECT_EQ(b.upper, 1u);
}

TEST(ArboricityBounds, CliqueIsTight) {
  // λ(K_6) = ⌈15/5⌉ = 3, degeneracy 5.
  const ArboricityBounds b = arboricity_bounds(clique(6));
  EXPECT_EQ(b.lower, 3u);
  EXPECT_EQ(b.upper, 5u);
}

}  // namespace
}  // namespace arbor::graph
