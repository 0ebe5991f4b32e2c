// Tests for the executable directed exponentiation (the §4 gather):
// reach-sets must equal BFS ground truth along non-decreasing-layer paths,
// doubling must cover radius R in ⌈log2 R⌉ fetches, and overflow caps must
// engage instead of blowing past the memory budget. The gather's exact
// reach sets are in turn the cross-check of the bit-parallel cone gauge
// that core/coloring_mpc samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <set>
#include <string>

#include "util/assert.hpp"
#include "core/cone_gauge.hpp"
#include "core/density_estimate.hpp"
#include "directed_exponentiation.hpp"
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

// Every lane of the bit-parallel gauge must report
//   cone(v, R) = |reach(v, R)| + Σ_{u ∈ reach(v, R−1)} above(u),
// with the reach sets taken from the exact (uncapped) directed gather. The
// gauge's view is built as the colour descent builds it: in the layering's
// rank order, layer by layer from the top of the block, each member handing
// over the ranks of all its neighbours.
TEST(ConeGauge, MatchesDirectedGatherReachSets) {
  util::SplitRng ba_rng(21);
  util::SplitRng gnm_draw(22);
  util::SplitRng gnm_relabel(23);
  util::SplitRng chain_rng(24);
  const std::vector<std::pair<std::string, Graph>> cases = {
      {"barabasi_albert(2^9, 4)", graph::barabasi_albert(512, 4, ba_rng)},
      {"relabelled gnm(2^9, 2^11)",
       graph::relabel_randomly(graph::gnm(512, 2048, gnm_draw), gnm_relabel)},
      {"slow_peeling_chain(4, 10)",
       graph::slow_peeling_chain(4, 10, chain_rng).graph},
  };
  util::SplitRng start_rng(25);
  for (const auto& [name, g] : cases) {
    SCOPED_TRACE(name);
    mpc::RoundLedger ledger(test_config());
    mpc::MpcContext ctx(test_config(), &ledger);
    const LayerAssignment ell =
        complete_layering(
            g, PipelineParams::practical(estimate_density_parameter(g)), ctx)
            .assignment;
    ASSERT_TRUE(ell.is_complete());
    const Layer top = *std::max_element(ell.layer.begin(), ell.layer.end());
    const std::vector<std::pair<Layer, Layer>> blocks = {
        {1, top}, {1, 1}, {top, top}, {std::max<Layer>(1, top / 3),
                                       std::max<Layer>(1, 2 * top / 3)}};
    const LayerRankOrder order = LayerRankOrder::of(ell);
    ConeGauge gauge;
    for (const auto& [lo, hi] : blocks) {
      SCOPED_TRACE("block [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
      // A block's local ids are its ranks: (layer, id) ascending.
      const VertexId begin = order.start[lo];
      const VertexId end = order.start[hi + 1];
      const std::vector<VertexId> members(order.vert.begin() + begin,
                                          order.vert.begin() + end);
      ASSERT_FALSE(members.empty());
      for (std::size_t i = 0; i < members.size(); ++i) {
        const VertexId v = members[i];
        ASSERT_GE(ell.layer[v], lo);
        ASSERT_LE(ell.layer[v], hi);
        ASSERT_EQ(order.rank[v], begin + i);
        if (i > 0) {
          const VertexId u = members[i - 1];
          ASSERT_TRUE(ell.layer[u] < ell.layer[v] ||
                      (ell.layer[u] == ell.layer[v] && u < v))
              << "local ids " << i - 1 << ", " << i;
        }
      }
      EXPECT_EQ(members.size(),
                static_cast<std::size_t>(std::count_if(
                    ell.layer.begin(), ell.layer.end(),
                    [&](Layer l) { return l >= lo && l <= hi; })));
      std::vector<std::size_t> above(g.num_vertices(), 0);
      for (VertexId v : members)
        for (VertexId w : g.neighbors(v)) above[v] += ell.layer[w] > hi;

      // Every member (several lane groups, the last one partial), 130
      // starts with duplicates, and a single start.
      std::vector<std::vector<VertexId>> start_sets(3);
      start_sets[0].resize(members.size());
      std::iota(start_sets[0].begin(), start_sets[0].end(), VertexId{0});
      for (int i = 0; i < 130; ++i)
        start_sets[1].push_back(
            static_cast<VertexId>(start_rng.next_below(members.size())));
      start_sets[1][129] = start_sets[1][64] = start_sets[1][0];
      start_sets[2] = {
          static_cast<VertexId>(start_rng.next_below(members.size()))};

      gauge.begin_block(begin, end);
      for (Layer layer = hi; layer >= lo; --layer) {
        for (VertexId r = order.start[layer]; r < order.start[layer + 1];
             ++r) {
          const auto neighbors = g.neighbors(order.vert[r]);
          gauge.open_row(order.start[layer], neighbors.size());
          for (VertexId w : neighbors) gauge.forward(order.rank[w]);
          gauge.end_row(r);
        }
      }
      std::vector<std::vector<VertexId>> inner;  // reach(·, R−1)
      for (std::size_t radius = 0; radius <= 6; ++radius) {
        SCOPED_TRACE("radius " + std::to_string(radius));
        DirectedGatherParams params;
        params.block_lo = lo;
        params.block_hi = hi;
        params.radius = radius;
        params.max_set_words = 0;
        std::vector<std::vector<VertexId>> reach =
            directed_gather(g, ell, params, ctx).reachable;
        for (const std::vector<VertexId>& starts : start_sets) {
          const std::vector<std::size_t> cones =
              gauge.cone_sizes(starts, radius);
          ASSERT_EQ(cones.size(), starts.size());
          for (std::size_t lane = 0; lane < starts.size(); ++lane) {
            const VertexId v = members[starts[lane]];
            std::size_t want = reach[v].size();
            if (radius > 0)
              for (VertexId u : inner[v]) want += above[u];
            ASSERT_EQ(cones[lane], want) << "lane " << lane << " vertex " << v;
          }
        }
        inner = std::move(reach);
      }
    }
  }
}

// A clique in one layer, every member a start: all of the block is
// discovered in the first level, so the branch-free discovered list fills
// every slot and keeps writing the spare one.
TEST(ConeGauge, WholeBlockDiscoveredInOneLevel) {
  graph::GraphBuilder builder(6);
  for (VertexId u = 0; u < 5; ++u)
    for (VertexId v = u + 1; v < 5; ++v) builder.add_edge(u, v);
  builder.add_edge(4, 5);
  const Graph g = builder.build();
  LayerAssignment ell;
  ell.layer = {1, 1, 1, 1, 1, 2};
  ell.num_layers = 2;
  const LayerRankOrder order = LayerRankOrder::of(ell);
  EXPECT_EQ(order.start, (std::vector<VertexId>{0, 0, 5, 6}));

  ConeGauge gauge;
  gauge.begin_block(order.start[1], order.start[2]);  // layer 1 only
  for (VertexId r = 0; r < 5; ++r) {
    const auto neighbors = g.neighbors(order.vert[r]);
    gauge.open_row(order.start[1], neighbors.size());
    for (VertexId w : neighbors) gauge.forward(order.rank[w]);
    gauge.end_row(r);
  }
  const std::vector<VertexId> starts = {4, 3, 2, 1, 0};
  EXPECT_EQ(gauge.cone_sizes(starts, 0),
            (std::vector<std::size_t>{1, 1, 1, 1, 1}));
  // Radius 1: the whole clique, plus vertex 4's edge above the block.
  EXPECT_EQ(gauge.cone_sizes(starts, 1),
            (std::vector<std::size_t>{6, 5, 5, 5, 5}));
  EXPECT_EQ(gauge.cone_sizes(starts, 3),
            (std::vector<std::size_t>{6, 6, 6, 6, 6}));
}

TEST(LayerRankOrder, RejectsIncompleteLayering) {
  LayerAssignment ell;
  ell.layer = {1, kInfiniteLayer, 2};
  ell.num_layers = 2;
  EXPECT_THROW(LayerRankOrder::of(ell), InvariantError);
}

}  // namespace
}  // namespace arbor::core
