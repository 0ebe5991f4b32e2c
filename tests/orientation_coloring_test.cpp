// Tests for the orientation/coloring value types and the sequential
// references.
#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "graph/arboricity.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"
#include "util/rng.hpp"

namespace arbor::graph {
namespace {

TEST(Orientation, OutdegreesSumToEdgeCount) {
  util::SplitRng rng(1);
  const Graph g = gnm(60, 150, rng);
  const Orientation o = orient_by_degeneracy(g);
  const auto out = o.outdegrees(g);
  std::size_t total = 0;
  for (std::size_t d : out) total += d;
  EXPECT_EQ(total, g.num_edges());
}

TEST(Orientation, SizeMismatchRejected) {
  const Graph g = clique(4);
  EXPECT_THROW(Orientation(g, std::vector<std::uint64_t>(2, 0)),
               arbor::InvariantError);
}

TEST(Orientation, DegeneracyOrientationMatchesDegeneracy) {
  util::SplitRng rng(2);
  for (std::size_t k : {1u, 3u, 6u}) {
    const Graph g = forest_union(150, k, rng);
    const std::size_t d = degeneracy(g);
    EXPECT_EQ(orient_by_degeneracy(g).max_outdegree(g), d);
  }
}

TEST(Orientation, OutNeighborsConsistent) {
  util::SplitRng rng(3);
  const Graph g = gnm(40, 100, rng);
  const Orientation o = orient_by_degeneracy(g);
  const auto outs = o.out_neighbors(g);
  const auto degs = o.outdegrees(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(outs[v].size(), degs[v]);
    for (VertexId w : outs[v]) EXPECT_TRUE(g.has_edge(v, w));
  }
}

TEST(OrientByLayers, RespectsLayerOrder) {
  // Path 0-1-2 with layers 2,1,3: edge 0-1 → toward 0 (higher layer);
  // edge 1-2 → toward 2.
  const Graph g = path(3);
  const std::vector<std::uint32_t> layers{2, 1, 3};
  const Orientation o = orient_by_layers(g, layers);
  const auto outs = o.out_neighbors(g);
  EXPECT_EQ(outs[1].size(), 2u);  // vertex 1 points both ways (lowest layer)
  EXPECT_EQ(outs[0].size(), 0u);
  EXPECT_EQ(outs[2].size(), 0u);
}

TEST(OrientByLayers, TieBreaksTowardHigherId) {
  const Graph g = path(2);
  const std::vector<std::uint32_t> layers{5, 5};
  const Orientation o = orient_by_layers(g, layers);
  EXPECT_EQ(o.out_neighbors(g)[0].size(), 1u);  // 0 -> 1
}

TEST(OrientByLayers, InfinityIsHighest) {
  const Graph g = path(2);
  const std::vector<std::uint32_t> layers{0xffffffffu, 7};
  const Orientation o = orient_by_layers(g, layers);
  EXPECT_EQ(o.out_neighbors(g)[1].size(), 1u);  // finite -> infinite
}

// The packed writer against the per-edge rule, at edge counts on and
// around word boundaries, with ∞ layers and ties.
TEST(OrientByLayers, PackedBitsMatchPerEdgeRule) {
  util::SplitRng rng(4);
  for (std::size_t m : {0u, 1u, 63u, 64u, 65u, 4097u}) {
    SCOPED_TRACE(m);
    const Graph g = gnm(m < 64 ? 16 : 200, m, rng);
    ASSERT_EQ(g.num_edges(), m);
    std::vector<std::uint32_t> layers(g.num_vertices());
    for (std::uint32_t& l : layers) {
      const auto draw = static_cast<std::uint32_t>(rng.next_below(4));
      l = draw == 3 ? 0xffffffffu : draw;
    }
    const Orientation o = orient_by_layers(g, layers);
    ASSERT_EQ(o.num_edges(), m);
    ASSERT_EQ(o.words().size(), (m + 63) / 64);
    const auto edges = g.edges();
    for (std::size_t i = 0; i < m; ++i)
      EXPECT_EQ(o.oriented_towards_v(i),
                layers[edges[i].u] <= layers[edges[i].v])
          << "edge " << i;
    const auto out = o.outdegrees(g);
    std::size_t total = 0;
    for (std::size_t d : out) total += d;
    EXPECT_EQ(total, m);
  }
}

TEST(Orientation, BitsPastLastEdgeRejected) {
  const Graph g = clique(4);  // 6 edges: bits 6..63 of the word are padding
  EXPECT_NO_THROW(Orientation(g, std::vector<std::uint64_t>{0x3f}));
  EXPECT_THROW(Orientation(g, std::vector<std::uint64_t>{0x40}),
               arbor::InvariantError);
}

TEST(CheckColoring, DetectsViolation) {
  const Graph g = path(3);
  const ColoringCheck bad = check_coloring(g, {1, 1, 2});
  EXPECT_FALSE(bad.proper);
  ASSERT_TRUE(bad.violation.has_value());
  EXPECT_EQ(bad.violation->u, 0u);
  EXPECT_EQ(bad.violation->v, 1u);
}

TEST(CheckColoring, AcceptsProperAndCountsColors) {
  const Graph g = cycle(4);
  const ColoringCheck ok = check_coloring(g, {0, 1, 0, 1});
  EXPECT_TRUE(ok.proper);
  EXPECT_EQ(ok.colors_used, 2u);
}

TEST(CheckColoring, WrongSizeIsImproper) {
  const Graph g = path(3);
  EXPECT_FALSE(check_coloring(g, {0, 1}).proper);
}

TEST(GreedyColoring, ProperOnRandomGraphs) {
  util::SplitRng rng(4);
  for (int i = 0; i < 5; ++i) {
    const Graph g = gnm(100, 300, rng);
    const auto colors = degeneracy_coloring(g);
    const ColoringCheck check = check_coloring(g, colors);
    EXPECT_TRUE(check.proper);
    EXPECT_LE(check.colors_used, degeneracy(g) + 1);
  }
}

TEST(GreedyColoring, TreeUsesTwoColors) {
  util::SplitRng rng(5);
  const Graph g = random_forest(100, rng, 0.0);
  const auto colors = degeneracy_coloring(g);
  EXPECT_TRUE(check_coloring(g, colors).proper);
  EXPECT_LE(check_coloring(g, colors).colors_used, 2u);
}

TEST(GreedyColoring, CliqueNeedsAllColors) {
  const Graph g = clique(5);
  const auto colors = degeneracy_coloring(g);
  EXPECT_EQ(check_coloring(g, colors).colors_used, 5u);
}

}  // namespace
}  // namespace arbor::graph
