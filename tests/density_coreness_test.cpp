// Tests for the MPC-native density estimation (the Theorem 1.1 preamble)
// and the approximate core decomposition (paper footnote 2), both checked
// against exact sequential oracles.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "util/assert.hpp"
#include "core/coreness_mpc.hpp"
#include "core/density_estimate.hpp"
#include "core/orientation_mpc.hpp"
#include "graph/arboricity.hpp"
#include "graph/builder.hpp"
#include "graph/coreness.hpp"
#include "graph/generators.hpp"
#include "mpc/ledger.hpp"
#include "util/rng.hpp"

namespace arbor::core {
namespace {

using graph::Graph;
using graph::VertexId;

mpc::ClusterConfig test_config() { return mpc::ClusterConfig{64, 4096}; }

TEST(ExactCoreness, KnownFamilies) {
  {
    const auto c = graph::exact_coreness(graph::clique(6));
    for (auto v : c) EXPECT_EQ(v, 5u);
  }
  {
    const auto c = graph::exact_coreness(graph::cycle(8));
    for (auto v : c) EXPECT_EQ(v, 2u);
  }
  {
    const auto c = graph::exact_coreness(graph::star(8));
    for (auto v : c) EXPECT_EQ(v, 1u);
  }
  {
    // Path: every vertex has coreness 1 (endpoints peel at degree 1).
    const auto c = graph::exact_coreness(graph::path(9));
    for (auto v : c) EXPECT_EQ(v, 1u);
  }
}

TEST(ExactCoreness, PlantedCliqueCoreStandsOut) {
  util::SplitRng rng(1);
  const Graph g = graph::planted_clique(400, 400, 20, rng);
  const auto c = graph::exact_coreness(g);
  // At least 20 vertices (the clique) have coreness ≥ 19.
  std::size_t high = 0;
  for (auto v : c)
    if (v >= 19) ++high;
  EXPECT_GE(high, 20u);
}

TEST(ExactCoreness, MaxEqualsDegeneracy) {
  util::SplitRng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::gnm(200, 200 * (trial + 2), rng);
    const auto c = graph::exact_coreness(g);
    const auto max_core = *std::max_element(c.begin(), c.end());
    EXPECT_EQ(max_core, graph::degeneracy(g));
  }
}

TEST(ExactCoreness, MonotoneUnderSubgraph) {
  // Coreness in an induced subgraph never exceeds coreness in the graph.
  util::SplitRng rng(3);
  const Graph g = graph::gnm(150, 600, rng);
  const auto full = graph::exact_coreness(g);
  std::vector<VertexId> half;
  for (VertexId v = 0; v < 75; ++v) half.push_back(v);
  const auto sub = g.induced(half);
  const auto sub_core = graph::exact_coreness(sub.graph);
  for (VertexId sv = 0; sv < sub.graph.num_vertices(); ++sv)
    EXPECT_LE(sub_core[sv], full[sub.to_original[sv]]);
}

TEST(DensityEstimateMpc, SandwichOnForestUnions) {
  util::SplitRng rng(4);
  for (std::size_t lambda : {1u, 2u, 4u, 8u, 16u}) {
    const Graph g = graph::forest_union(600, lambda, rng);
    mpc::RoundLedger ledger(test_config());
    mpc::MpcContext ctx(test_config(), &ledger);
    const DensityEstimate est = estimate_density_mpc(g, ctx);
    // λ ≤ k ≤ 2·f·λ with f = 4.
    EXPECT_GE(est.k, lambda) << "λ=" << lambda;
    EXPECT_LE(est.k, 8 * lambda + 8) << "λ=" << lambda;
    EXPECT_GE(ledger.total_rounds(), est.rounds_budget);
  }
}

TEST(DensityEstimateMpc, EmptyGraph) {
  const Graph g = graph::GraphBuilder(5).build();
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  EXPECT_EQ(estimate_density_mpc(g, ctx).k, 1u);
}

TEST(DensityEstimateMpc, ChargesGlobalMemoryFactor) {
  util::SplitRng rng(5);
  const Graph g = graph::forest_union(500, 4, rng);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  const DensityEstimate est = estimate_density_mpc(g, ctx);
  EXPECT_GE(ledger.peak_global_words(),
            (g.num_vertices() + 2 * g.num_edges()) * est.guesses);
}

TEST(DensityEstimateMpc, RejectsWeakThreshold) {
  const Graph g = graph::path(4);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  EXPECT_THROW(estimate_density_mpc(g, ctx, /*threshold_factor=*/2.0),
               arbor::InvariantError);
}

/// `run(g, ctx)` on a small forest union must throw an InvariantError whose
/// message names `field`, not cast the hostile value.
template <typename Run>
void expect_rejected(Run run, const std::string& field) {
  util::SplitRng rng(12);
  const Graph g = graph::forest_union(300, 2, rng);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  try {
    run(g, ctx);
    ADD_FAILURE() << field << " was accepted";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

void expect_rounds_factor_rejected(double rounds_factor) {
  expect_rejected(
      [&](const Graph& g, mpc::MpcContext& ctx) {
        estimate_density_mpc(g, ctx, 4.0, rounds_factor);
      },
      "estimate_density_mpc: rounds_factor");
}

TEST(DensityEstimateMpc, RejectsNanRoundsFactor) {
  expect_rounds_factor_rejected(std::nan(""));
}

TEST(DensityEstimateMpc, RejectsInfiniteRoundsFactor) {
  expect_rounds_factor_rejected(std::numeric_limits<double>::infinity());
}

TEST(DensityEstimateMpc, RejectsNegativeRoundsFactor) {
  expect_rounds_factor_rejected(-1.0);
}

TEST(DensityEstimateMpc, RejectsHugeRoundsFactor) {
  expect_rounds_factor_rejected(1e300);  // ⌈1e300·log2 n⌉ overflows size_t
}

TEST(DensityEstimateMpc, RejectsInfiniteThresholdFactor) {
  expect_rejected(
      [](const Graph& g, mpc::MpcContext& ctx) {
        estimate_density_mpc(g, ctx, std::numeric_limits<double>::infinity());
      },
      "estimate_density_mpc: threshold_factor");
}

TEST(DensityEstimateMpc, RejectsHugeThresholdFactor) {
  expect_rejected(
      [](const Graph& g, mpc::MpcContext& ctx) {
        estimate_density_mpc(g, ctx, 1e300);
      },
      "estimate_density_mpc: threshold_factor");
}

TEST(OrientWithParallelGuessEstimator, EndToEnd) {
  util::SplitRng rng(6);
  const Graph g = graph::forest_union(800, 3, rng);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  // The MPC-native preamble feeds mpc_orient through params.k.
  OrientationParams params;
  params.k = estimate_density_mpc(g, ctx).k;
  const MpcOrientationResult result = mpc_orient(g, params, ctx);
  EXPECT_GE(result.k_used, 3u);
  EXPECT_LE(result.orientation.max_outdegree(g), result.outdegree_bound);
  // The estimation preamble charges its O(log n) budget.
  EXPECT_GE(ledger.rounds_by_label().at("density_estimate"), 5u);
  // A supplied k skips the oracle and its charge.
  EXPECT_EQ(ledger.rounds_by_label().count("orient.estimate_k"), 0u);
}

TEST(ResolveDensityParameter, SuppliedKIsUncharged) {
  util::SplitRng rng(8);
  const Graph g = graph::forest_union(500, 4, rng);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  EXPECT_EQ(resolve_density_parameter(g, 17, ctx, "test.estimate_k"), 17u);
  EXPECT_EQ(ledger.total_rounds(), 0u);
  EXPECT_EQ(ledger.peak_global_words(), 0u);
}

TEST(ResolveDensityParameter, OracleChargesTheParallelGuesses) {
  util::SplitRng rng(8);
  const Graph g = graph::forest_union(500, 4, rng);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  EXPECT_EQ(resolve_density_parameter(g, 0, ctx, "test.estimate_k"),
            estimate_density_parameter(g));
  EXPECT_EQ(ledger.rounds_by_label(),
            (std::map<std::string, std::size_t>{{"test.estimate_k", 1}}));
  // (n + m) · ⌈log2 500⌉ = (n + m) · 9.
  EXPECT_EQ(ledger.peak_global_words(),
            (g.num_vertices() + g.num_edges()) * 9);
}

TEST(ApproximateCoreness, WithinFactorTwoPlusEps) {
  util::SplitRng rng(7);
  const Graph g = graph::planted_clique(500, 1000, 24, rng);
  const auto exact = graph::exact_coreness(g);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  const CorenessResult approx = approximate_coreness(g, 0.5, ctx);
  ASSERT_EQ(approx.estimate.size(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Lower side: removal at threshold 2c means coreness ≤ 2c.
    EXPECT_LE(exact[v], 2 * approx.estimate[v])
        << "vertex " << v;
    // Upper side: the guess at (1+ε)·coreness must have removed v (its
    // threshold 2(1+ε)·coreness exceeds the core degree), so the estimate
    // is at most (1+ε)·coreness (+1 for ceiling effects).
    EXPECT_LE(approx.estimate[v],
              static_cast<std::uint32_t>(1.5 * exact[v]) + 2)
        << "vertex " << v;
  }
}

TEST(ApproximateCoreness, SeparatesCoreFromPeriphery) {
  util::SplitRng rng(8);
  const Graph g = graph::planted_clique(600, 600, 32, rng);
  const auto exact = graph::exact_coreness(g);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  const CorenessResult approx = approximate_coreness(g, 0.25, ctx);
  // Clique members (coreness ≥ 31) must estimate far above the sparse
  // periphery (coreness ≤ ~4).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (exact[v] >= 31) {
      EXPECT_GE(approx.estimate[v], 12u);
    }
    if (exact[v] <= 2) {
      EXPECT_LE(approx.estimate[v], 4u);
    }
  }
}

TEST(ApproximateCoreness, RoundsSharedAcrossGuesses) {
  util::SplitRng rng(9);
  const Graph g = graph::gnm(1000, 8000, rng);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  const CorenessResult result = approximate_coreness(g, 0.5, ctx);
  EXPECT_GE(result.guesses, 3u);
  // Rounds = one shared budget, NOT budget × guesses.
  EXPECT_EQ(ledger.rounds_by_label().at("coreness.parallel_guesses"),
            result.rounds_budget);
}

void expect_coreness_rejected(double epsilon, double rounds_factor,
                              const std::string& field) {
  expect_rejected(
      [&](const Graph& g, mpc::MpcContext& ctx) {
        approximate_coreness(g, epsilon, ctx, rounds_factor);
      },
      "approximate_coreness: " + field);
}

TEST(ApproximateCoreness, RejectsNanEpsilon) {
  expect_coreness_rejected(std::nan(""), 2.0, "epsilon");
}

TEST(ApproximateCoreness, RejectsInfiniteEpsilon) {
  expect_coreness_rejected(std::numeric_limits<double>::infinity(), 2.0,
                           "epsilon");
}

TEST(ApproximateCoreness, RejectsNegativeEpsilon) {
  expect_coreness_rejected(-0.5, 2.0, "epsilon");
}

TEST(ApproximateCoreness, RejectsEpsilonThatCannotAdvanceGuesses) {
  expect_coreness_rejected(1e-20, 2.0, "epsilon");  // 1 + 1e-20 == 1
}

TEST(ApproximateCoreness, RejectsHugeEpsilon) {
  expect_coreness_rejected(1e300, 2.0, "epsilon");  // guess 2 is 1e300
}

TEST(ApproximateCoreness, LargeEpsilonOvershootsInOneGuess) {
  util::SplitRng rng(12);
  const Graph g = graph::forest_union(300, 2, rng);
  mpc::RoundLedger ledger(test_config());
  mpc::MpcContext ctx(test_config(), &ledger);
  // The second guess, 1e6 + 1, is far past 2n and removes every vertex
  // left after the first.
  const CorenessResult result = approximate_coreness(g, 1e6, ctx);
  EXPECT_EQ(result.guesses, 2u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_TRUE(result.estimate[v] == 1 || result.estimate[v] == 1000001)
        << "vertex " << v;
}

TEST(ApproximateCoreness, RejectsNanRoundsFactor) {
  expect_coreness_rejected(0.5, std::nan(""), "rounds_factor");
}

TEST(ApproximateCoreness, RejectsInfiniteRoundsFactor) {
  expect_coreness_rejected(0.5, std::numeric_limits<double>::infinity(),
                           "rounds_factor");
}

TEST(ApproximateCoreness, RejectsNegativeRoundsFactor) {
  expect_coreness_rejected(0.5, -2.0, "rounds_factor");
}

TEST(ApproximateCoreness, RejectsHugeRoundsFactor) {
  expect_coreness_rejected(0.5, 1e300, "rounds_factor");
}

TEST(ApproximateCoreness, EpsilonControlsGranularity) {
  util::SplitRng rng(10);
  const Graph g = graph::planted_clique(400, 800, 24, rng);
  mpc::RoundLedger l1(test_config());
  mpc::MpcContext c1(test_config(), &l1);
  const CorenessResult coarse = approximate_coreness(g, 1.0, c1);
  mpc::RoundLedger l2(test_config());
  mpc::MpcContext c2(test_config(), &l2);
  const CorenessResult fine = approximate_coreness(g, 0.1, c2);
  EXPECT_GT(fine.guesses, coarse.guesses);
}

}  // namespace
}  // namespace arbor::core
