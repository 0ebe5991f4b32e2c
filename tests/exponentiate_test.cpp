// Tests for Algorithm 2 (ExponentiateAndLocalPrune): Claims 3.3 (valid
// mappings), 3.4 (budget), 3.5 (round accounting), plus reach-doubling
// behaviour on paths and the inactive-vertex rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "core/exponentiate.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "mpc/ledger.hpp"
#include "util/rng.hpp"

namespace arbor::core {
namespace {

using graph::Graph;
using graph::VertexId;

mpc::ClusterConfig test_config() { return mpc::ClusterConfig{64, 4096}; }

/// Algorithm 2 on g into a fresh result, in a fresh scratch.
ExponentiateResult exponentiate(const Graph& g, const ExponentiateParams& p,
                                mpc::MpcContext& ctx) {
  ExponentiateScratch scratch;
  ExponentiateResult result;
  exponentiate_and_local_prune(g, p, ctx, scratch, result);
  return result;
}

TEST(Exponentiate, Claim33ValidMappingsThroughout) {
  util::SplitRng rng(1);
  const Graph g = graph::gnm(80, 200, rng);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  ExponentiateParams p{/*budget=*/64, /*prune_k=*/3, /*steps=*/3};
  const ExponentiateResult result = exponentiate(g, p, ctx);
  ASSERT_EQ(result.trees.num_trees(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(result.trees.tree(v).is_valid_mapping(g)) << "vertex " << v;
    EXPECT_EQ(result.trees.tree(v).root_vertex(), v);
  }
}

TEST(Exponentiate, Claim34BudgetNeverExceeded) {
  util::SplitRng rng(2);
  for (std::size_t budget : {16u, 64u, 256u}) {
    const Graph g = graph::gnm(100, 400, rng);
    mpc::RoundLedger ledger(test_config());
    mpc::MpcContext ctx(test_config(), &ledger);
    ExponentiateParams p{budget, /*prune_k=*/2, /*steps=*/4};
    const ExponentiateResult result = exponentiate(g, p, ctx);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_LE(result.trees.tree(v).size(), budget);
    EXPECT_LE(result.max_tree_nodes, budget);
  }
}

TEST(Exponentiate, HighDegreeVerticesStartInactive) {
  // Star: the center has degree n-1 ≥ B → single-node tree, inactive.
  const Graph g = graph::star(100);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  ExponentiateParams p{/*budget=*/16, /*prune_k=*/2, /*steps=*/2};
  const ExponentiateResult result = exponentiate(g, p, ctx);
  EXPECT_FALSE(result.active[0]);
  EXPECT_EQ(result.trees.tree(0).size(), 1u);
}

TEST(Exponentiate, ReachDoublesOnBipartiteCore) {
  // Algorithm 1's rule collapses any node with ≤ k children to a leaf, so
  // growth needs fan-out above k everywhere. K_{5,5} with k=1 is fully
  // computable by hand:
  //  * init: star, 5 children (size 6);
  //  * step 1 prune: drop 1 child → 4 children (size 5, ≤ √4096 stays
  //    active); attach at depth 1: 4 pruned stars of size 5 → size
  //    5 + 4·4 = 21, height 2;
  //  * step 2 prune: depth-1 nodes keep 3 of 4 children, root keeps 3 of 4
  //    subtrees of size 4 → size 1 + 3·4 = 13; attach at depth 2: 9 leaves
  //    × pruned trees of size 13 → size 13 + 9·12 = 121, height 4 = 2^2.
  const Graph g = graph::complete_bipartite(5, 5);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  ExponentiateParams p{/*budget=*/4096, /*prune_k=*/1, /*steps=*/2};
  const ExponentiateResult result = exponentiate(g, p, ctx);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(result.trees.tree(v).height(), 4u) << "vertex " << v;
    EXPECT_EQ(result.trees.tree(v).size(), 121u) << "vertex " << v;
    EXPECT_TRUE(result.active[v]);
  }
}

TEST(Exponentiate, PrunedTreesOfInactiveVerticesKeepShrinking) {
  // A vertex that goes inactive still gets pruned each remaining step
  // (Algorithm 2 applies LocalPrune to every vertex). With prune_k=1 on a
  // star tree the root has many children; verify the final tree of an
  // inactive vertex is its (repeatedly) pruned version, not frozen.
  const Graph g = graph::complete_bipartite(6, 6);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  // sqrt(9)=3 < 7 tree size after the initial star → inactive after step 1.
  ExponentiateParams p{/*budget=*/9, /*prune_k=*/1, /*steps=*/2};
  const ExponentiateResult result = exponentiate(g, p, ctx);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_FALSE(result.active[v]);
    // Star with 6 children pruned with k=1 → at most 5 children remain...
    // then the size check (6 > 3) deactivates; step 2 prunes once more.
    EXPECT_LE(result.trees.tree(v).size(), 5u);
  }
}

TEST(Exponentiate, ChargesOrderStepsRounds) {
  util::SplitRng rng(3);
  const Graph g = graph::forest_union(200, 2, rng);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  ExponentiateParams p{/*budget=*/64, /*prune_k=*/4, /*steps=*/5};
  const ExponentiateResult result = exponentiate(g, p, ctx);
  EXPECT_EQ(result.per_step.size(), 5u);
  // Claim 3.5: O(s) rounds — each step charges O(1) fetch rounds.
  std::size_t fetch_rounds = 0;
  for (const auto& step : result.per_step) fetch_rounds += step.fetch_rounds;
  EXPECT_EQ(ledger.rounds_by_label().at("exponentiate.fetch"), fetch_rounds);
  EXPECT_LE(ledger.total_rounds(), 1 + 5 * 12);  // init + s·O(1)
}

TEST(Exponentiate, GlobalMemoryWithinNBPlusM) {
  util::SplitRng rng(4);
  const Graph g = graph::gnm(300, 900, rng);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  const std::size_t budget = 32;
  ExponentiateParams p{budget, /*prune_k=*/3, /*steps=*/3};
  (void)exponentiate(g, p, ctx);
  // Claim 3.5: global O(nB + m) words. Allow the constant from the
  // serialized-tree overhead (2 words per node + header).
  EXPECT_LE(ledger.peak_global_words(),
            4 * (g.num_vertices() * budget + 2 * g.num_edges()) + 1024);
}

TEST(Exponentiate, IsolatedVerticesStaySingletons) {
  const Graph g = graph::GraphBuilder(5).build();  // no edges
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  ExponentiateParams p{/*budget=*/8, /*prune_k=*/1, /*steps=*/2};
  const ExponentiateResult result = exponentiate(g, p, ctx);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(result.trees.tree(v).size(), 1u);
    EXPECT_TRUE(result.active[v]);
  }
}

TEST(Exponentiate, RejectsTinyBudget) {
  const Graph g = graph::path(4);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  ExponentiateParams p{/*budget=*/1, /*prune_k=*/1, /*steps=*/1};
  EXPECT_THROW(exponentiate(g, p, ctx),
               arbor::InvariantError);
}

// Steps of 64 or more would shift the frontier depth out of range.
TEST(Exponentiate, RejectsSixtyFourSteps) {
  const Graph g = graph::path(4);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  ExponentiateParams p{/*budget=*/8, /*prune_k=*/1, /*steps=*/64};
  try {
    (void)exponentiate(g, p, ctx);
    ADD_FAILURE() << "64 steps accepted";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("ExponentiateParams.steps"),
              std::string::npos)
        << e.what();
  }
}

// One scratch and result reused across calls on graphs of different sizes
// (larger, smaller, larger again) give exactly what fresh ones give: the
// same trees, activity, per-step statistics and ledger.
TEST(Exponentiate, ReusedScratchMatchesFresh) {
  util::SplitRng rng(6);
  std::vector<Graph> graphs;
  graphs.push_back(graph::barabasi_albert(600, 3, rng));
  graphs.push_back(graph::gnm(90, 300, rng));
  graphs.push_back(graph::relabel_randomly(graph::gnm(500, 1500, rng), rng));
  const ExponentiateParams p{/*budget=*/100, /*prune_k=*/2, /*steps=*/3};
  ExponentiateScratch scratch;
  ExponentiateResult reused;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(i);
    const Graph& g = graphs[i];
    mpc::RoundLedger fresh_ledger(test_config());
    mpc::MpcContext fresh_ctx(test_config(), &fresh_ledger);
    const ExponentiateResult fresh = exponentiate(g, p, fresh_ctx);
    mpc::RoundLedger ledger(test_config());
    mpc::MpcContext ctx(test_config(), &ledger);
    exponentiate_and_local_prune(g, p, ctx, scratch, reused);

    ASSERT_EQ(reused.trees.num_trees(), g.num_vertices());
    EXPECT_EQ(reused.trees.total_nodes(), fresh.trees.total_nodes());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(reused.trees.tree(v).serialize(),
                fresh.trees.tree(v).serialize())
          << "vertex " << v;
    EXPECT_EQ(reused.active, fresh.active);
    ASSERT_EQ(reused.per_step.size(), fresh.per_step.size());
    for (std::size_t s = 0; s < fresh.per_step.size(); ++s) {
      EXPECT_EQ(reused.per_step[s].active_vertices,
                fresh.per_step[s].active_vertices);
      EXPECT_EQ(reused.per_step[s].max_tree_nodes,
                fresh.per_step[s].max_tree_nodes);
      EXPECT_EQ(reused.per_step[s].total_tree_nodes,
                fresh.per_step[s].total_tree_nodes);
      EXPECT_EQ(reused.per_step[s].fetch_rounds,
                fresh.per_step[s].fetch_rounds);
    }
    EXPECT_EQ(reused.max_tree_nodes, fresh.max_tree_nodes);
    EXPECT_EQ(ledger.rounds_by_label(), fresh_ledger.rounds_by_label());
  }
}

// Every tree of the final forest, read back through its view: a sound
// arena holding a valid mapping rooted at its own vertex within the budget,
// whose wire form deserializes to the same tree. The graphs give trees of
// many sizes next to each other, including single nodes.
TEST(Exponentiate, ForestTreesRoundTripWire) {
  util::SplitRng rng(5);
  const std::size_t budget = 256;
  std::vector<Graph> graphs;
  graphs.push_back(graph::barabasi_albert(1 << 10, 3, rng));
  graphs.push_back(graph::relabel_randomly(graph::gnm(1 << 10, 3 << 10, rng),
                                           rng));
  graphs.push_back(graph::forest_union(1 << 10, 3, rng));
  for (const Graph& g : graphs) {
    mpc::RoundLedger ledger(test_config());
    mpc::MpcContext ctx(test_config(), &ledger);
    ExponentiateParams p{budget, /*prune_k=*/2, /*steps=*/3};
    const ExponentiateResult result = exponentiate(g, p, ctx);
    ASSERT_EQ(result.trees.num_trees(), g.num_vertices());
    std::size_t nodes = 0;
    std::uint32_t height = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const TreeView t = result.trees.tree(v);
      EXPECT_EQ(result.trees.begin(v), nodes) << "vertex " << v;
      nodes += t.size();
      height = std::max(height, t.height());
      ASSERT_TRUE(t.structurally_sound()) << "vertex " << v;
      EXPECT_TRUE(t.is_valid_mapping(g)) << "vertex " << v;
      EXPECT_EQ(t.root_vertex(), v);
      EXPECT_LE(t.size(), budget);
      const std::vector<std::uint64_t> words = t.serialize();
      const TreeForest back = TreeForest::deserialize(words);
      ASSERT_EQ(back.num_trees(), 1u);
      const TreeView b = back.tree(0);
      ASSERT_EQ(b.size(), t.size()) << "vertex " << v;
      for (TreeView::NodeId x = 0; x < t.size(); ++x) {
        EXPECT_EQ(b.vertex_of(x), t.vertex_of(x));
        EXPECT_EQ(b.parent_of(x), t.parent_of(x));
        EXPECT_EQ(b.depth_of(x), t.depth_of(x));
        EXPECT_EQ(b.child_count(x), t.child_count(x));
        if (t.child_count(x) != 0) {
          EXPECT_EQ(*b.children(x).begin(), *t.children(x).begin());
        }
      }
      EXPECT_EQ(b.serialize(), words) << "vertex " << v;
    }
    EXPECT_EQ(result.trees.total_nodes(), nodes);
    EXPECT_EQ(result.per_step.back().total_tree_nodes, nodes);
    EXPECT_GE(height, 2u);  // the trees did grow past their stars
  }
}

// Parameterized sweep over (budget, steps): the budget invariant holds
// across the grid (Claim 3.4 property sweep).
class ExponentiateSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ExponentiateSweep, BudgetInvariant) {
  const auto [budget, steps] = GetParam();
  util::SplitRng rng(budget * 31 + steps);
  const Graph g = graph::gnm(120, 360, rng);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  ExponentiateParams p{budget, /*prune_k=*/2, steps};
  const ExponentiateResult result = exponentiate(g, p, ctx);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(result.trees.tree(v).size(), budget);
    EXPECT_TRUE(result.trees.tree(v).structurally_sound());
  }
}

INSTANTIATE_TEST_SUITE_P(
    BudgetSteps, ExponentiateSweep,
    ::testing::Combine(::testing::Values(9, 25, 100, 400),
                       ::testing::Values(1, 2, 4)));

}  // namespace
}  // namespace arbor::core
