// Tests for the executable directed exponentiation (the §4 gather):
// reach-sets must equal BFS ground truth along non-decreasing-layer paths,
// doubling must cover radius R in ⌈log2 R⌉ fetches, and overflow caps must
// engage instead of blowing past the memory budget.
#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "util/assert.hpp"
#include "core/directed_exponentiation.hpp"
#include "core/layering_pipeline.hpp"
#include "core/orientation_mpc.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "mpc/ledger.hpp"
#include "util/rng.hpp"

namespace arbor::core {
namespace {

using graph::Graph;
using graph::VertexId;

mpc::ClusterConfig test_config() { return mpc::ClusterConfig{64, 65536}; }

/// Ground truth: BFS from `start` along v→w with ℓ(v) ≤ ℓ(w) ≤ hi,
/// restricted to layers [lo, hi], up to `radius` hops.
std::set<VertexId> bfs_truth(const Graph& g, const LayerAssignment& ell,
                             VertexId start, Layer lo, Layer hi,
                             std::size_t radius) {
  std::set<VertexId> seen{start};
  std::deque<std::pair<VertexId, std::size_t>> queue{{start, 0}};
  while (!queue.empty()) {
    const auto [v, dist] = queue.front();
    queue.pop_front();
    if (dist == radius) continue;
    const Layer lv = ell.layer[v];
    for (VertexId w : g.neighbors(v)) {
      const Layer lw = ell.layer[w];
      if (lw < lv || lw > hi || lw == kInfiniteLayer || lw < lo) continue;
      if (seen.insert(w).second) queue.emplace_back(w, dist + 1);
    }
  }
  return seen;
}

LayerAssignment some_layering(const Graph& g, std::size_t k) {
  return reference_peeling_layering(g, k);
}

TEST(DirectedGather, MatchesBfsGroundTruth) {
  util::SplitRng rng(1);
  const Graph g = graph::gnm(200, 700, rng);
  const LayerAssignment ell = some_layering(g, 10);
  ASSERT_TRUE(ell.is_complete());

  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  DirectedGatherParams params;
  params.block_lo = 1;
  params.block_hi = ell.num_layers;
  params.radius = 3;
  const DirectedGatherResult result = directed_gather(g, ell, params, ctx);

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto truth =
        bfs_truth(g, ell, v, 1, ell.num_layers, params.radius);
    const std::set<VertexId> got(result.reachable[v].begin(),
                                 result.reachable[v].end());
    EXPECT_EQ(got, truth) << "vertex " << v;
  }
}

TEST(DirectedGather, RespectsBlockBoundaries) {
  util::SplitRng rng(2);
  const Graph g = graph::gnm(200, 600, rng);
  const LayerAssignment ell = some_layering(g, 8);
  ASSERT_TRUE(ell.is_complete());
  ASSERT_GE(ell.num_layers, 2u);

  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  DirectedGatherParams params;
  params.block_lo = 1;
  params.block_hi = 1;  // single-layer block
  params.radius = 4;
  const DirectedGatherResult result = directed_gather(g, ell, params, ctx);

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (ell.layer[v] != 1) {
      EXPECT_TRUE(result.reachable[v].empty());
      continue;
    }
    for (VertexId w : result.reachable[v])
      EXPECT_EQ(ell.layer[w], 1u) << "leaked outside the block";
  }
}

TEST(DirectedGather, DoublingCountLogarithmic) {
  util::SplitRng rng(3);
  const Graph g = graph::gnm(150, 450, rng);
  const LayerAssignment ell = some_layering(g, 8);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  DirectedGatherParams params;
  params.block_lo = 1;
  params.block_hi = ell.num_layers;
  params.radius = 9;  // needs ⌈log2 9⌉ = 4 doublings
  const DirectedGatherResult result = directed_gather(g, ell, params, ctx);
  EXPECT_EQ(result.doublings, 4u);
  EXPECT_GT(ledger.rounds_by_label().at("directed_gather.fetch"), 0u);
}

TEST(DirectedGather, OverflowCapEngages) {
  // A clique in one layer: reach-sets would be the whole layer; a small
  // cap must flag overflow instead.
  const Graph g = graph::clique(40);
  LayerAssignment ell;
  ell.layer.assign(40, 1);
  ell.num_layers = 1;

  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  DirectedGatherParams params;
  params.block_lo = 1;
  params.block_hi = 1;
  params.radius = 4;
  params.max_set_words = 8;
  const DirectedGatherResult result = directed_gather(g, ell, params, ctx);
  bool any_overflow = false;
  for (VertexId v = 0; v < 40; ++v) any_overflow |= result.overflowed[v];
  EXPECT_TRUE(any_overflow);
}

TEST(DirectedGather, RadiusOneIsNeighborhood) {
  const Graph g = graph::star(6);
  LayerAssignment ell;
  ell.layer = {2, 1, 1, 1, 1, 1};  // center high, leaves low
  ell.num_layers = 2;
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  DirectedGatherParams params;
  params.block_lo = 1;
  params.block_hi = 2;
  params.radius = 1;
  const DirectedGatherResult result = directed_gather(g, ell, params, ctx);
  // Leaves reach themselves + the center (non-decreasing 1→2); the center
  // reaches only itself (2→1 decreases).
  for (VertexId leaf = 1; leaf < 6; ++leaf)
    EXPECT_EQ(result.reachable[leaf],
              (std::vector<VertexId>{0, leaf}));
  EXPECT_EQ(result.reachable[0], (std::vector<VertexId>{0}));
  EXPECT_EQ(result.doublings, 0u);  // radius 1 needs no doubling
}

}  // namespace
}  // namespace arbor::core
