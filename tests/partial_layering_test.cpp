// Tests for Algorithm 3 (PartialLayerAssignmentTree) and Algorithm 4
// (PartialLayerAssignment): hand-checked peeling semantics, Lemma 3.8
// (tree layers lower-bound graph layers on monotone-reachable nodes),
// Lemma 3.9 (roots with small path counts get assigned), Lemma 3.10 /
// Claim 3.12 (out-degree of the min-projection).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "core/layering.hpp"
#include "core/partial_layer_tree.hpp"
#include "core/partial_layering.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "mpc/ledger.hpp"
#include "util/rng.hpp"

namespace arbor::core {
namespace {

using graph::Graph;
using graph::VertexId;
using NodeId = TreeView::NodeId;

mpc::ClusterConfig test_config() { return mpc::ClusterConfig{64, 4096}; }

TEST(PartialLayerTree, SingletonRootAssignsWhenMissingSmall) {
  // Tree = single node mapping to the center of a star: Missing = deg = 4.
  const Graph g = graph::star(5);
  const TreeForest t = TreeForest::single(0);
  const auto small = partial_layer_assignment_tree(g, t, /*a=*/3, /*L=*/4);
  EXPECT_EQ(small[0], kInfiniteLayer);  // 4 > 3: never assignable
  const auto big = partial_layer_assignment_tree(g, t, /*a=*/4, /*L=*/4);
  EXPECT_EQ(big[0], 1u);
}

TEST(PartialLayerTree, PeelsLeavesBeforeRoot) {
  // Star tree at the center of star(5): root has 4 children (missing 0),
  // leaves have missing = deg(leaf) = 1. With a=1: leaves assign at layer
  // 1; root has 4 unassigned children at layer-1 start → waits; at layer 2
  // its children are gone → |children ∩ V_≥2| = 0 ≤ 1 → layer 2.
  const Graph g = graph::star(5);
  const TreeForest t = TreeForest::star(0, g.neighbors(0));
  const auto layers = partial_layer_assignment_tree(g, t, /*a=*/1, /*L=*/4);
  EXPECT_EQ(layers[0], 2u);
  for (NodeId x = 1; x < t.tree(0).size(); ++x) EXPECT_EQ(layers[x], 1u);
}

TEST(PartialLayerTree, RespectsLayerBudgetL) {
  // Same setup but L=1: the root cannot be assigned within 1 layer.
  const Graph g = graph::star(5);
  const TreeForest t = TreeForest::star(0, g.neighbors(0));
  const auto layers = partial_layer_assignment_tree(g, t, /*a=*/1, /*L=*/1);
  EXPECT_EQ(layers[0], kInfiniteLayer);
  for (NodeId x = 1; x < t.tree(0).size(); ++x) EXPECT_EQ(layers[x], 1u);
}

TEST(PartialLayerTree, SynchronousSelectionWithinLayer) {
  // Chain tree a->b (both missing 1 on a path graph): with a=1, both have
  // |children ∩ V_≥1| + missing: a has 1+1=2 > 1, b has 0+1=1 ≤ 1. Layer 1
  // takes only b; layer 2 takes a (child gone). With a=2 both take layer 1
  // SIMULTANEOUSLY — b's membership of V_1 must not unblock a within the
  // same iteration (it doesn't change the count, but this pins semantics).
  const Graph g = graph::path(3);
  // Wire format: (maps_to, parent) per node in arena order.
  const TreeForest t = TreeForest::deserialize(
      std::vector<std::uint64_t>{2, 1, TreeView::kNoNode, 2, 0});
  // missing(root) = deg(1) - 1 = 1; missing(child) = deg(2) = 1.
  const auto tight = partial_layer_assignment_tree(g, t, 1, 4);
  EXPECT_EQ(tight[1], 1u);
  EXPECT_EQ(tight[0], 2u);
  const auto loose = partial_layer_assignment_tree(g, t, 2, 4);
  EXPECT_EQ(loose[0], 1u);
  EXPECT_EQ(loose[1], 1u);
}

// The flat pass over a forest peels each tree on its own: the layers of
// tree t are those of t as a forest of one, entry begin(t) + x for node x.
TEST(PartialLayerTree, ForestPeelsEachTreeOnItsOwn) {
  util::SplitRng rng(4);
  const Graph g = graph::gnm(40, 100, rng);
  // Stars below degree 7, lone roots from there on.
  TreeForest forest;
  forest.assign_stars(g, 7);
  ASSERT_NE(g.max_degree(), 0u);
  for (std::size_t a : {1u, 2u, 4u}) {
    const auto layers = partial_layer_assignment_tree(g, forest, a, 3);
    ASSERT_EQ(layers.size(), forest.total_nodes());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      TreeForest one;
      one.append_attached(forest.tree(v), {});
      const auto want = partial_layer_assignment_tree(g, one, a, 3);
      for (NodeId x = 0; x < want.size(); ++x)
        EXPECT_EQ(layers[forest.begin(v) + x], want[x])
            << "a " << a << ", tree " << v << ", node " << x;
    }
  }
}

// Lemma 3.8: for strictly monotonically reachable nodes,
// ℓ_T(x) ≤ ℓ_G(map(x)) when a ≥ d + missing-bound.
TEST(PartialLayerTree, Lemma38TreeLayersLowerBoundGraphLayers) {
  util::SplitRng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::forest_union(80, 2, rng);
    const LayerAssignment ell = reference_peeling_layering(g, 8);
    ASSERT_TRUE(ell.is_complete());
    const std::size_t d = assignment_outdegree(g, ell);

    // Full star trees have missing = 0 everywhere (all neighbors present
    // as children), so a = d suffices.
    const auto start = static_cast<VertexId>(rng.next_below(80));
    TreeForest grown;
    {
      const TreeForest star = TreeForest::star(start, g.neighbors(start));
      std::vector<std::vector<std::uint64_t>> stars;
      std::vector<TreeForest::Attachment> attachments;
      const auto leaves = star.tree(0).leaves_at_depth(1);
      stars.reserve(leaves.size());
      for (NodeId leaf : leaves) {
        const VertexId u = star.tree(0).vertex_of(leaf);
        stars.push_back(
            TreeForest::star(u, g.neighbors(u)).tree(0).serialize());
        attachments.push_back({leaf, stars.back()});
      }
      grown.append_attached(star.tree(0), attachments);
    }
    const TreeView t = grown.tree(0);
    // Leaves at depth 2 have missing = deg - 0 children... they have no
    // children, so missing = deg(map(x)). Use the global max degree as the
    // missing bound.
    const std::size_t missing_bound = g.max_degree();
    const std::size_t a = d + missing_bound;
    const auto tree_layers =
        partial_layer_assignment_tree(g, grown, a, ell.num_layers);
    const auto reachable = t.monotonically_reachable(ell);
    for (NodeId x = 0; x < t.size(); ++x) {
      if (!reachable[x]) continue;
      EXPECT_LE(tree_layers[x], ell.layer[t.vertex_of(x)])
          << "Lemma 3.8 violated at tree node " << x;
    }
  }
}

// Algorithm 4 + Claim 3.12: out-degree of the combined assignment is at
// most (s+1)·k, and the assignment is a valid partial assignment.
TEST(PartialLayering, Claim312OutdegreeBound) {
  util::SplitRng rng(2);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::gnm(150, 450, rng);
    mpc::RoundLedger ledger(test_config());
    mpc::MpcContext ctx(test_config(), &ledger);
    PartialLayeringParams p;
    p.budget = 256;
    p.prune_k = 4;
    p.num_layers = 3;
    p.steps = 3;
    const PartialLayeringResult result =
        partial_layer_assignment(g, p, ctx);
    EXPECT_EQ(result.outdegree_bound, (p.steps + 1) * p.prune_k);
    EXPECT_TRUE(is_valid_partial_assignment(g, result.assignment,
                                            result.outdegree_bound))
        << "Claim 3.12 violated on trial " << trial;
  }
}

// Lemma 3.9 (via Lemma 3.13's counting): vertices whose NumPathsIn under
// the reference layering is ≤ √B get assigned a layer no larger than their
// reference layer.
TEST(PartialLayering, Lemma39SmallPathCountVerticesAssigned) {
  util::SplitRng rng(3);
  const Graph g = graph::forest_union(200, 2, rng);
  const std::size_t k = 8;
  const LayerAssignment ell = reference_peeling_layering(g, k);
  ASSERT_TRUE(ell.is_complete());
  const std::size_t d = assignment_outdegree(g, ell);
  const auto paths_in = num_paths_in(g, ell);

  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  PartialLayeringParams p;
  p.budget = 1024;  // √B = 32
  p.prune_k = std::max<std::size_t>(d, 1);
  p.num_layers = ell.num_layers;
  p.steps = 1;
  while ((std::size_t{1} << p.steps) <= p.num_layers) ++p.steps;
  const PartialLayeringResult result = partial_layer_assignment(g, p, ctx);

  const double sqrt_b = std::sqrt(static_cast<double>(p.budget));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (static_cast<double>(paths_in[v]) <= sqrt_b) {
      EXPECT_NE(result.assignment.layer[v], kInfiniteLayer)
          << "Lemma 3.9: vertex " << v << " should be assigned";
      EXPECT_LE(result.assignment.layer[v], ell.layer[v])
          << "Lemma 3.9: layer should not exceed the reference";
    }
  }
}

TEST(PartialLayering, EmptyGraph) {
  const Graph g = graph::GraphBuilder(0).build();
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  PartialLayeringParams p;
  const PartialLayeringResult result = partial_layer_assignment(g, p, ctx);
  EXPECT_TRUE(result.assignment.layer.empty());
}

TEST(PartialLayering, RejectsTooFewSteps) {
  const Graph g = graph::path(4);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  PartialLayeringParams p;
  p.num_layers = 8;
  p.steps = 3;  // 2^3 = 8 is NOT > 8
  EXPECT_THROW(partial_layer_assignment(g, p, ctx), arbor::InvariantError);
}

// 64 steps satisfy Lemma 3.7 for any L, but 1 << 64 is out of range.
TEST(PartialLayering, RejectsSixtyFourSteps) {
  const Graph g = graph::path(4);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  PartialLayeringParams p;
  p.steps = 64;
  try {
    (void)partial_layer_assignment(g, p, ctx);
    ADD_FAILURE() << "64 steps accepted";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("PartialLayeringParams.steps"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace arbor::core
