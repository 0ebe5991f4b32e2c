// Tests for the LOCAL model substrate: synchronous round engine, threshold
// peeling (BE08), and the randomized list coloring with its determinism
// contract (the property the MPC cone replay depends on).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/assert.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "local/list_coloring.hpp"
#include "local/network.hpp"
#include "local/peeling.hpp"
#include "util/rng.hpp"

namespace arbor::local {
namespace {

using graph::Graph;
using graph::VertexId;

TEST(RoundEngine, DoubleBufferingIsSynchronous) {
  // On a path, propagate a token from vertex 0: state = max of neighbors'
  // previous states. After r rounds the token reaches distance exactly r —
  // it would travel farther if updates leaked within a round.
  const Graph g = graph::path(6);
  std::vector<int> init(6, 0);
  init[0] = 1;
  RoundEngine<int> engine(g, init);
  const auto update = [&](VertexId v, const std::vector<int>& prev) {
    int best = prev[v];
    for (VertexId w : g.neighbors(v)) best = std::max(best, prev[w]);
    return best;
  };
  engine.run_round(update);
  EXPECT_EQ(engine.state(1), 1);
  EXPECT_EQ(engine.state(2), 0);  // not yet
  engine.run_round(update);
  EXPECT_EQ(engine.state(2), 1);
  EXPECT_EQ(engine.state(3), 0);
  EXPECT_EQ(engine.rounds(), 2u);
}

TEST(RoundEngine, RunUntilStopsOnPredicate) {
  const Graph g = graph::path(5);
  std::vector<int> init(5, 0);
  init[0] = 1;
  RoundEngine<int> engine(g, init);
  const bool done = engine.run_until(
      [&](VertexId v, const std::vector<int>& prev) {
        int best = prev[v];
        for (VertexId w : g.neighbors(v)) best = std::max(best, prev[w]);
        return best;
      },
      [](const std::vector<int>& s) {
        return std::accumulate(s.begin(), s.end(), 0) == 5;
      },
      /*max_rounds=*/10);
  EXPECT_TRUE(done);
  EXPECT_EQ(engine.rounds(), 4u);  // distance from 0 to 4
}

TEST(Peeling, ForestCompletesWithThresholdTwo) {
  util::SplitRng rng(1);
  const Graph g = graph::random_forest(500, rng, 0.0);
  const PeelingResult result = peel_by_threshold(g, 2, 100);
  EXPECT_TRUE(result.complete);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_GE(result.layer[v], 1u);
}

TEST(Peeling, StallsBelowMinDegree) {
  const Graph g = graph::clique(6);  // min degree 5
  const PeelingResult result = peel_by_threshold(g, 2, 100);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.num_layers, 0u);  // nothing ever peeled
}

TEST(Peeling, LayeringHasBoundedForwardDegree) {
  util::SplitRng rng(2);
  const Graph g = graph::forest_union(300, 3, rng);
  const std::size_t threshold = 12;  // ≥ 4λ
  const PeelingResult result = peel_by_threshold(g, threshold, 100);
  ASSERT_TRUE(result.complete);
  // A vertex peeled in round i has ≤ threshold neighbors in rounds ≥ i.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::size_t forward = 0;
    for (VertexId w : g.neighbors(v))
      if (result.layer[w] >= result.layer[v]) ++forward;
    EXPECT_LE(forward, threshold);
  }
}

TEST(Peeling, GeometricDecayAtDoubleAverageDegree) {
  util::SplitRng rng(3);
  const Graph g = graph::gnm(2000, 4000, rng);  // avg degree 4
  const PeelingResult result = peel_by_threshold(g, 8, 100);
  ASSERT_TRUE(result.complete);
  // At threshold ≥ 2·avg-degree at least half the vertices peel per round,
  // so rounds ≤ log2(n) + O(1).
  EXPECT_LE(result.rounds, 12u);
}

TEST(Be08, RoundsLogarithmicAndComplete) {
  util::SplitRng rng(4);
  const Graph g = graph::forest_union(4096, 4, rng);
  const PeelingResult result = be08_h_partition(g, 4, 0.2);
  EXPECT_TRUE(result.complete);
  EXPECT_LE(result.rounds, 30u);
  EXPECT_GE(result.rounds, 3u);
}

TEST(Be08, ThrowsWhenThresholdBelowArboricity) {
  const Graph g = graph::clique(64);  // λ = 32
  EXPECT_THROW(be08_h_partition(g, 1, 0.2), arbor::InvariantError);
}

// ---------------- list coloring ----------------

/// Owns the exclusion CSR behind a RangePalettes: every vertex draws from
/// [base, base+count) minus its own exclusions.
struct RangeLists {
  graph::Color base = 0;
  std::size_t count = 0;
  std::vector<std::size_t> exclusion_offsets;
  std::vector<graph::Color> exclusions;

  RangeLists(std::size_t count,
             const std::vector<std::vector<graph::Color>>& per_vertex,
             graph::Color base = 0)
      : base(base), count(count), exclusion_offsets(1, 0) {
    for (const auto& list : per_vertex) {
      exclusions.insert(exclusions.end(), list.begin(), list.end());
      exclusion_offsets.push_back(exclusions.size());
    }
  }

  RangePalettes view() const {
    return {base, count, exclusion_offsets, exclusions};
  }
};

/// The shared range [0, size) for every vertex.
RangeLists uniform_palettes(const Graph& g, std::size_t size) {
  return RangeLists(size, std::vector<std::vector<graph::Color>>(
                              g.num_vertices()));
}

std::vector<std::uint64_t> identity_keys(const Graph& g) {
  std::vector<std::uint64_t> keys(g.num_vertices());
  std::iota(keys.begin(), keys.end(), std::uint64_t{0});
  return keys;
}

ListColoringResult color(const Graph& g,
                         const std::vector<std::uint64_t>& keys,
                         const RangeLists& palettes,
                         const util::StatelessCoin& coin,
                         std::uint64_t phase_tag,
                         std::size_t max_rounds = 512) {
  return list_color(ConflictView::of(g), keys, palettes.view(), coin,
                    phase_tag, max_rounds);
}

TEST(ListColoring, ProperOnRandomGraph) {
  util::SplitRng rng(5);
  const Graph g = graph::gnm(300, 900, rng);
  const std::size_t palette = g.max_degree() + 1;
  const util::StatelessCoin coin(77);
  const ListColoringResult result =
      color(g, identity_keys(g), uniform_palettes(g, palette), coin, 1);
  ASSERT_TRUE(result.complete);
  EXPECT_TRUE(graph::check_coloring(g, result.colors).proper);
}

TEST(ListColoring, ConvergesFast) {
  util::SplitRng rng(6);
  const Graph g = graph::gnm(1000, 3000, rng);
  const util::StatelessCoin coin(78);
  const ListColoringResult result = color(
      g, identity_keys(g), uniform_palettes(g, g.max_degree() + 1), coin, 1);
  ASSERT_TRUE(result.complete);
  EXPECT_LE(result.rounds, 40u);  // O(log n) whp, usually ≤ ~15
}

TEST(ListColoring, RespectsPalettes) {
  const Graph g = graph::cycle(10);
  // A shared range [100, 112) with nine colors excluded per vertex, so each
  // vertex keeps exactly three: {100 + v, 110, 111}.
  std::vector<std::vector<graph::Color>> excluded(10);
  for (VertexId v = 0; v < 10; ++v)
    for (graph::Color c = 100; c < 110; ++c)
      if (c != 100 + v) excluded[v].push_back(c);
  const RangeLists palettes(12, excluded, /*base=*/100);
  const util::StatelessCoin coin(79);
  const ListColoringResult result =
      color(g, identity_keys(g), palettes, coin, 2);
  ASSERT_TRUE(result.complete);
  for (VertexId v = 0; v < 10; ++v) {
    const graph::Color c = result.colors[v];
    EXPECT_TRUE(c == 100 + v || c == 110 || c == 111) << "v=" << v;
  }
  EXPECT_TRUE(graph::check_coloring(g, result.colors).proper);
}

TEST(ListColoring, RejectsTooSmallPalette) {
  const Graph g = graph::clique(4);
  const util::StatelessCoin coin(80);
  EXPECT_THROW(color(g, identity_keys(g), uniform_palettes(g, 3), coin, 1),
               arbor::InvariantError);
  // Exclusions shrink the palette below degree+1 too: range 5, but vertex
  // 0 excludes two colors (one of them twice) of the four it may keep.
  std::vector<std::vector<graph::Color>> excluded(4);
  excluded[0] = {1, 3, 1, 99};
  const RangeLists palettes(5, excluded);
  EXPECT_THROW(color(g, identity_keys(g), palettes, coin, 1),
               arbor::InvariantError);
}

TEST(ListColoring, DeterministicGivenSeedAndKeys) {
  util::SplitRng rng(7);
  const Graph g = graph::gnm(200, 500, rng);
  const util::StatelessCoin coin(81);
  const auto r1 = color(g, identity_keys(g),
                        uniform_palettes(g, g.max_degree() + 1), coin, 3);
  const auto r2 = color(g, identity_keys(g),
                        uniform_palettes(g, g.max_degree() + 1), coin, 3);
  EXPECT_EQ(r1.colors, r2.colors);
  EXPECT_EQ(r1.rounds, r2.rounds);
}

TEST(ListColoring, PhaseTagChangesOutcome) {
  util::SplitRng rng(8);
  const Graph g = graph::gnm(200, 500, rng);
  const util::StatelessCoin coin(82);
  const auto r1 = color(g, identity_keys(g),
                        uniform_palettes(g, g.max_degree() + 2), coin, 1);
  const auto r2 = color(g, identity_keys(g),
                        uniform_palettes(g, g.max_degree() + 2), coin, 2);
  EXPECT_NE(r1.colors, r2.colors);
}

// The cone-replay property: coloring an induced subgraph whose vertices
// keep their ORIGINAL keys reproduces, for vertices whose full
// neighborhood is inside the subgraph, exactly the colors of the full run
// — provided the neighborhood states match. We verify the strongest easily
// checkable form: a disjoint union colored jointly equals the two halves
// colored separately (no cross-edges, so cones never leave a half).
TEST(ListColoring, ReplayConsistencyOnDisjointUnion) {
  util::SplitRng rng(9);
  const Graph half_a = graph::gnm(60, 150, rng);
  const Graph half_b = graph::gnm(60, 150, rng);

  // Build the union: ids 0..59 for A, 60..119 for B.
  graph::GraphBuilder builder(120);
  for (const auto& e : half_a.edges()) builder.add_edge(e.u, e.v);
  for (const auto& e : half_b.edges()) builder.add_edge(e.u + 60, e.v + 60);
  const Graph joint = builder.build();

  const std::size_t palette =
      std::max(half_a.max_degree(), half_b.max_degree()) + 1;
  const util::StatelessCoin coin(83);

  const auto joint_result = color(
      joint, identity_keys(joint), uniform_palettes(joint, palette), coin, 5);
  ASSERT_TRUE(joint_result.complete);

  const auto a_result = color(half_a, identity_keys(half_a),
                              uniform_palettes(half_a, palette), coin, 5);
  std::vector<std::uint64_t> b_keys(60);
  std::iota(b_keys.begin(), b_keys.end(), std::uint64_t{60});
  const auto b_result =
      color(half_b, b_keys, uniform_palettes(half_b, palette), coin, 5);

  for (VertexId v = 0; v < 60; ++v) {
    EXPECT_EQ(joint_result.colors[v], a_result.colors[v]);
    EXPECT_EQ(joint_result.colors[v + 60], b_result.colors[v]);
  }
}

/// The O(C·deg) trial/commit algorithm on materialised palette lists, as
/// list_color ran before range palettes: each proposal filters the
/// palette, in its listed order, against the neighbours' committed colors.
ListColoringResult reference_list_color(
    const Graph& g, const std::vector<std::uint64_t>& vertex_keys,
    const std::vector<std::vector<graph::Color>>& palettes,
    const util::StatelessCoin& coin, std::uint64_t phase_tag,
    std::size_t max_rounds) {
  constexpr graph::Color kUncolored = 0xffffffffu;
  const std::size_t n = g.num_vertices();
  ListColoringResult result;
  result.colors.assign(n, kUncolored);
  std::size_t uncolored = n;
  std::vector<graph::Color> proposal(n, kUncolored);
  std::vector<graph::Color> available;
  for (std::size_t round = 1; round <= max_rounds && uncolored > 0; ++round) {
    result.rounds = round;
    for (VertexId v = 0; v < n; ++v) {
      proposal[v] = kUncolored;
      if (result.colors[v] != kUncolored) continue;
      available.clear();
      for (graph::Color c : palettes[v]) {
        bool used = false;
        for (VertexId w : g.neighbors(v)) used |= result.colors[w] == c;
        if (!used) available.push_back(c);
      }
      if (available.empty()) throw std::runtime_error("palette exhausted");
      proposal[v] = available[static_cast<std::size_t>(
          coin.below(available.size(), phase_tag, vertex_keys[v], round))];
    }
    for (VertexId v = 0; v < n; ++v) {
      if (proposal[v] == kUncolored) continue;
      bool conflict = false;
      for (VertexId w : g.neighbors(v)) conflict |= proposal[w] == proposal[v];
      if (!conflict) {
        result.colors[v] = proposal[v];
        --uncolored;
      }
    }
  }
  result.complete = uncolored == 0;
  return result;
}

TEST(ListColoring, MatchesMaterializedReference) {
  util::SplitRng rng(10);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t n = 2 + rng.next_below(60);
    const std::size_t m = rng.next_below(n * (n - 1) / 2 + 1);
    const Graph g = graph::gnm(n, std::min<std::size_t>(m, 4 * n), rng);
    const auto base = static_cast<graph::Color>(rng.next_below(1000));
    const std::size_t count = g.max_degree() + 1 + rng.next_below(12);
    // Each vertex excludes at most count − (deg+1) distinct colors of the
    // range, some of them repeatedly, plus colors below and above it, so
    // its palette keeps at least deg + 1 colors.
    std::vector<std::vector<graph::Color>> excluded(n);
    for (VertexId v = 0; v < n; ++v) {
      const std::size_t budget = count - (g.degree(v) + 1);
      const std::size_t draws = rng.next_below(2 * budget + 3);
      std::vector<bool> taken(count, false);
      std::size_t distinct = 0;
      for (std::size_t d = 0; d < draws; ++d) {
        switch (rng.next_below(4)) {
          case 0:  // below the range (wraps when base is 0)
            excluded[v].push_back(base - 1 -
                                  static_cast<graph::Color>(rng.next_below(5)));
            break;
          case 1:  // above the range
            excluded[v].push_back(static_cast<graph::Color>(
                base + count + rng.next_below(5)));
            break;
          default: {  // inside, while the budget lasts; repeats are free
            const std::size_t offset = rng.next_below(count);
            if (!taken[offset] && distinct == budget) break;
            if (!taken[offset]) ++distinct;
            taken[offset] = true;
            excluded[v].push_back(static_cast<graph::Color>(base + offset));
          }
        }
      }
    }
    std::vector<std::vector<graph::Color>> materialised(n);
    for (VertexId v = 0; v < n; ++v)
      for (std::size_t c = 0; c < count; ++c) {
        const auto kept = static_cast<graph::Color>(base + c);
        if (std::find(excluded[v].begin(), excluded[v].end(), kept) ==
            excluded[v].end())
          materialised[v].push_back(kept);
      }
    const RangeLists palettes(count, excluded, base);
    std::vector<std::uint64_t> keys(n);
    for (auto& key : keys) key = rng.next();
    const util::StatelessCoin coin(rng.next());
    const std::uint64_t tag = rng.next_below(100);
    const std::size_t max_rounds = 1 + rng.next_below(12);

    const ListColoringResult want =
        reference_list_color(g, keys, materialised, coin, tag, max_rounds);
    const ListColoringResult got =
        color(g, keys, palettes, coin, tag, max_rounds);
    EXPECT_EQ(got.colors, want.colors);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.complete, want.complete);
  }
}

}  // namespace
}  // namespace arbor::local
