// Tests for the LOCAL model substrate: threshold peeling (BE08) and the
// randomized list coloring with its determinism contract (the property the
// MPC cone replay depends on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "local/list_coloring.hpp"
#include "local/peeling.hpp"
#include "util/rng.hpp"

namespace arbor::local {
namespace {

using graph::Graph;
using graph::VertexId;

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

/// The scan peel `ThresholdPeel` replaced: size_t degrees, a layer-0 test
/// per vertex and a liveness test per decrement.
PeelingResult scan_peel_reference(const Graph& g, std::size_t threshold,
                                  std::size_t max_rounds) {
  const std::size_t n = g.num_vertices();
  PeelingResult result;
  result.layer.assign(n, 0);
  std::vector<std::size_t> degree(n);
  std::size_t remaining = n;
  for (VertexId v = 0; v < n; ++v) degree[v] = g.degree(v);
  std::vector<VertexId> peeled_this_round;
  std::uint32_t round = 0;
  while (remaining > 0 && round < max_rounds) {
    peeled_this_round.clear();
    for (VertexId v = 0; v < n; ++v)
      if (result.layer[v] == 0 && degree[v] <= threshold)
        peeled_this_round.push_back(v);
    if (peeled_this_round.empty()) break;
    ++round;
    for (VertexId v : peeled_this_round) result.layer[v] = round;
    for (VertexId v : peeled_this_round)
      for (VertexId w : g.neighbors(v))
        if (result.layer[w] == 0 || result.layer[w] == round) {
          EXPECT_GT(degree[w], 0u);
          --degree[w];
        }
    remaining -= peeled_this_round.size();
  }
  result.num_layers = round;
  result.rounds = round;
  result.complete = remaining == 0;
  return result;
}

Graph random_peel_graph(int i, util::SplitRng& rng) {
  const std::size_t n = 1 + rng.next_below(300);
  switch (i % 4) {
    case 0:
      return graph::gnm(n, std::min(n * (n - 1) / 2, rng.next_below(5 * n)),
                        rng);
    case 1:
      return graph::barabasi_albert(n + 8, 1 + rng.next_below(5), rng);
    case 2:
      return graph::forest_union(n + 1, 1 + rng.next_below(4), rng);
    default:
      return graph::planted_clique(n + 30, rng.next_below(2 * n + 1),
                                   2 + rng.next_below(25), rng);
  }
}

TEST(ThresholdPeel, MatchesScanReference) {
  util::SplitRng rng(21);
  for (int i = 0; i < 120; ++i) {
    const Graph g = random_peel_graph(i, rng);
    for (const std::size_t threshold : {0u, 1u, 2u, 3u, 5u, 8u, 13u, 40u}) {
      for (const std::size_t max_rounds : {0u, 1u, 3u, 100u}) {
        SCOPED_TRACE("graph " + std::to_string(i) + ", threshold " +
                     std::to_string(threshold) + ", max_rounds " +
                     std::to_string(max_rounds));
        const PeelingResult want =
            scan_peel_reference(g, threshold, max_rounds);
        const PeelingResult got = peel_by_threshold(g, threshold, max_rounds);
        EXPECT_EQ(got.layer, want.layer);
        EXPECT_EQ(got.num_layers, want.num_layers);
        EXPECT_EQ(got.rounds, want.rounds);
        EXPECT_EQ(got.complete, want.complete);
      }
    }
  }
}

TEST(ThresholdPeel, ReplaysLayeringPatternAgainstNaiveReference) {
  // complete_layering's use: rounds at a threshold that doubles when a
  // round stalls, and vertices assigned from outside between rounds.
  util::SplitRng rng(22);
  for (int i = 0; i < 120; ++i) {
    SCOPED_TRACE("graph " + std::to_string(i));
    const Graph g = random_peel_graph(i, rng);
    const std::size_t n = g.num_vertices();
    ThresholdPeel peel(g);
    std::vector<std::size_t> degree(n);
    std::vector<bool> live(n, true);
    for (VertexId v = 0; v < n; ++v) degree[v] = g.degree(v);
    std::size_t remaining = n;
    const auto remove = [&](VertexId v) {
      live[v] = false;
      --remaining;
      for (VertexId w : g.neighbors(v))
        if (live[w]) --degree[w];
    };
    std::size_t threshold = rng.next_below(3);
    while (remaining > 0) {
      std::vector<VertexId> want;
      for (VertexId v = 0; v < n; ++v)
        if (live[v] && degree[v] <= threshold) want.push_back(v);
      for (VertexId v : want) live[v] = false;
      remaining -= want.size();
      for (VertexId v : want)
        for (VertexId w : g.neighbors(v))
          if (live[w]) --degree[w];
      const auto got = peel.round(threshold);
      ASSERT_EQ(std::vector<VertexId>(got.begin(), got.end()), want);
      ASSERT_EQ(peel.remaining(), remaining);
      if (want.empty()) threshold = 2 * threshold + 1;
      // Assign a few live vertices from outside, as Stage 2 does.
      for (int a = 0; a < 3 && remaining > 0; ++a) {
        VertexId v = static_cast<VertexId>(rng.next_below(n));
        while (!live[v]) v = (v + 1) % n;
        remove(v);
        peel.park(v);
        ASSERT_EQ(peel.remaining(), remaining);
      }
    }
    EXPECT_TRUE(peel.round(threshold).empty());
  }
}

TEST(ThresholdPeel, RejectsParkingTwice) {
  const Graph g = graph::path(4);
  ThresholdPeel peel(g);
  peel.park(1);
  EXPECT_THROW(peel.park(1), arbor::InvariantError);
  const auto isolated = peel.round(0);  // 0 lost its only neighbour
  EXPECT_EQ(std::vector<VertexId>(isolated.begin(), isolated.end()),
            (std::vector<VertexId>{0}));
  const auto rest = peel.round(1);
  EXPECT_EQ(std::vector<VertexId>(rest.begin(), rest.end()),
            (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(peel.remaining(), 0u);
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

/// be08_h_partition with a hostile epsilon must throw an InvariantError
/// naming it, not cast the value to a threshold.
void expect_epsilon_rejected(double epsilon) {
  util::SplitRng rng(4);
  const Graph g = graph::forest_union(256, 2, rng);
  try {
    be08_h_partition(g, 2, epsilon);
    ADD_FAILURE() << "epsilon " << epsilon << " was accepted";
  } catch (const arbor::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("epsilon"), std::string::npos)
        << e.what();
  }
}

TEST(Be08, RejectsNanEpsilon) { expect_epsilon_rejected(std::nan("")); }

TEST(Be08, RejectsInfiniteEpsilon) {
  expect_epsilon_rejected(std::numeric_limits<double>::infinity());
}

TEST(Be08, RejectsNegativeEpsilon) { expect_epsilon_rejected(-0.5); }

TEST(Be08, RejectsEpsilonOverflowingThreshold) {
  expect_epsilon_rejected(1e300);
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

struct ListColoringResult {
  std::vector<graph::Color> colors;
  std::size_t rounds = 0;
  bool complete = false;
};

ListColoringResult color(const Graph& g,
                         const std::vector<std::uint64_t>& keys,
                         const RangeLists& palettes,
                         const util::StatelessCoin& coin,
                         std::uint64_t phase_tag,
                         std::size_t max_rounds = 512) {
  ListColoringScratch scratch;
  ListColoringResult result;
  result.colors.resize(g.num_vertices());
  const ListColoringRun run =
      list_color(ConflictView::of(g), keys, palettes.view(), coin, phase_tag,
                 max_rounds, scratch, result.colors);
  result.rounds = run.rounds;
  result.complete = run.complete;
  return result;
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
  // Draws exclusions over [base, base+count), keys, a coin, a phase tag and
  // a round cap for g, and compares list_color with the reference. Returns
  // a mask of the 64-colour palette words that hold an in-range exclusion.
  const auto check = [&rng](const Graph& g, graph::Color base,
                            std::size_t count) {
    const std::size_t n = g.num_vertices();
    std::uint64_t words_hit = 0;
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
          case 1:  // above the range (wraps when it ends at 2^32 − 1)
            excluded[v].push_back(static_cast<graph::Color>(
                base + count + rng.next_below(5)));
            break;
          default: {  // inside, while the budget lasts; repeats are free
            const std::size_t offset = rng.next_below(count);
            if (!taken[offset] && distinct == budget) break;
            if (!taken[offset]) ++distinct;
            taken[offset] = true;
            words_hit |= std::uint64_t{1} << (offset / 64);
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
    return words_hit;
  };

  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t n = 2 + rng.next_below(60);
    const std::size_t m = rng.next_below(n * (n - 1) / 2 + 1);
    const Graph g = graph::gnm(n, std::min<std::size_t>(m, 4 * n), rng);
    const auto base = static_cast<graph::Color>(rng.next_below(1000));
    const std::size_t count = g.max_degree() + 1 + rng.next_below(12);
    check(g, base, count);
  }

  // Palettes of one, two, three and four words, at and around the word
  // boundaries. At most count vertices with edge density 1/2 to 0.95 keep
  // deg + 1 ≤ count with dense rows near it; every other case ends flush
  // against 2^32 − 1.
  for (std::size_t count : {63u, 64u, 65u, 128u, 129u, 200u}) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(::testing::Message() << "count " << count << " trial "
                                        << trial);
      const std::size_t n = count / 2 + rng.next_below(count / 2 + 1);
      const double p = 0.5 + 0.45 * rng.next_double();
      const Graph g = graph::gnp(n, p, rng);
      ASSERT_LE(g.max_degree() + 1, count);
      const auto base =
          trial % 2 == 0
              ? static_cast<graph::Color>(0xffffffffu - count -
                                          rng.next_below(3))
              : static_cast<graph::Color>(rng.next_below(1000));
      const std::uint64_t words_hit = check(g, base, count);
      EXPECT_EQ(words_hit, (std::uint64_t{1} << ((count + 63) / 64)) - 1);
    }
  }
}

}  // namespace
}  // namespace arbor::local
