// Tests for (partial) layer assignments: Definitions 2.1/2.2, Claim 2.3
// (min-combine), Lemma 2.4 (path-count bound), tail counts, and the
// reference peeling layering.
#include <gtest/gtest.h>

#include "util/assert.hpp"
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/exponentiate.hpp"
#include "core/layering.hpp"
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

LayerAssignment make_assignment(std::vector<Layer> layers, Layer l) {
  LayerAssignment a;
  a.layer = std::move(layers);
  a.num_layers = l;
  return a;
}

TEST(LayerAssignment, AssignedCountAndCompleteness) {
  const auto a = make_assignment({1, 2, kInfiniteLayer}, 2);
  EXPECT_EQ(a.assigned_count(), 2u);
  EXPECT_FALSE(a.is_complete());
  const auto b = make_assignment({1, 1}, 1);
  EXPECT_TRUE(b.is_complete());
}

TEST(AssignmentOutdegree, CountsHigherOrEqualNeighbors) {
  // Star center at layer 1, leaves at layer 2: center sees all leaves as
  // higher, leaves see only the center which is lower.
  const Graph g = graph::star(5);
  std::vector<Layer> layers{1, 2, 2, 2, 2};
  EXPECT_EQ(assignment_outdegree(g, make_assignment(layers, 2)), 4u);
  // Flip: center high, leaves low → out-degree 1 (each leaf sees center).
  std::vector<Layer> flipped{2, 1, 1, 1, 1};
  EXPECT_EQ(assignment_outdegree(g, make_assignment(flipped, 2)), 1u);
}

TEST(AssignmentOutdegree, InfinityCountsAsHigher) {
  const Graph g = graph::path(3);  // 0-1-2
  std::vector<Layer> layers{1, kInfiniteLayer, 1};
  // Vertex 0 and 2 each see vertex 1 at ∞ ≥ their layer; vertex 1 exempt.
  EXPECT_EQ(assignment_outdegree(g, make_assignment(layers, 1)), 1u);
}

TEST(AssignmentOutdegree, InfiniteVerticesExempt) {
  const Graph g = graph::star(6);
  std::vector<Layer> layers{kInfiniteLayer, 1, 1, 1, 1, 1};
  // Center at ∞ has 5 same-or-higher neighbors but is exempt; leaves see
  // the ∞ center → out-degree 1.
  EXPECT_EQ(assignment_outdegree(g, make_assignment(layers, 1)), 1u);
}

TEST(ValidPartialAssignment, RejectsOutOfRangeLayer) {
  const Graph g = graph::path(2);
  EXPECT_FALSE(
      is_valid_partial_assignment(g, make_assignment({0, 1}, 1), 5));
  EXPECT_FALSE(
      is_valid_partial_assignment(g, make_assignment({3, 1}, 2), 5));
  EXPECT_TRUE(
      is_valid_partial_assignment(g, make_assignment({2, 1}, 2), 5));
}

// Claim 2.3, exact statement: min of two valid partial assignments with
// the same L and d is valid with the same L and d. Property-tested over
// random assignments derived from peelings.
TEST(MinCombine, Claim23OnRandomGraphs) {
  util::SplitRng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gnm(120, 360, rng);
    // Two independent valid assignments: peel with different thresholds,
    // then truncate to the same L.
    LayerAssignment a = reference_peeling_layering(g, 12);
    LayerAssignment b = reference_peeling_layering(g, 16);
    const Layer l = std::min(a.num_layers, b.num_layers);
    for (auto& x : a.layer)
      if (x != kInfiniteLayer && x > l) x = kInfiniteLayer;
    for (auto& x : b.layer)
      if (x != kInfiniteLayer && x > l) x = kInfiniteLayer;
    a.num_layers = b.num_layers = l;

    const std::size_t da = assignment_outdegree(g, a);
    const std::size_t db = assignment_outdegree(g, b);
    const std::size_t d = std::max(da, db);
    ASSERT_TRUE(is_valid_partial_assignment(g, a, d));
    ASSERT_TRUE(is_valid_partial_assignment(g, b, d));

    const LayerAssignment combined = min_combine(a, b);
    EXPECT_TRUE(is_valid_partial_assignment(g, combined, d))
        << "Claim 2.3 violated on trial " << trial;
  }
}

TEST(MinCombine, InfinityYieldsOther) {
  const auto a = make_assignment({kInfiniteLayer, 3}, 3);
  const auto b = make_assignment({2, kInfiniteLayer}, 3);
  const LayerAssignment c = min_combine(a, b);
  EXPECT_EQ(c.layer[0], 2u);
  EXPECT_EQ(c.layer[1], 3u);
}

TEST(TailLayerCounts, SuffixSumsCorrect) {
  const auto a = make_assignment({1, 1, 2, 3, kInfiniteLayer}, 3);
  const auto tail = tail_layer_counts(a);
  // tail[j] = |{v : ℓ(v) ≥ j}|; ∞ counts everywhere.
  EXPECT_EQ(tail[1], 5u);
  EXPECT_EQ(tail[2], 3u);
  EXPECT_EQ(tail[3], 2u);
  EXPECT_EQ(tail[4], 1u);  // only the ∞ vertex
}

TEST(NumPaths, HandComputedChain) {
  // Path 0-1-2 with layers 1,2,3: paths ending at 2 are (2), (1,2),
  // (0,1,2) → 3. Paths ending at 0: just (0).
  const Graph g = graph::path(3);
  const auto a = make_assignment({1, 2, 3}, 3);
  const auto in = num_paths_in(g, a);
  EXPECT_EQ(in[0], 1u);
  EXPECT_EQ(in[1], 2u);
  EXPECT_EQ(in[2], 3u);
  const auto out = num_paths_out(g, a);
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[2], 1u);
}

TEST(NumPaths, DiamondMultiplicity) {
  // 0 at layer 1; 1,2 at layer 2; 3 at layer 3; edges 0-1,0-2,1-3,2-3.
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const auto a = make_assignment({1, 2, 2, 3}, 3);
  const auto in = num_paths_in(g, a);
  // Ending at 3: (3), (1,3), (2,3), (0,1,3), (0,2,3) = 5.
  EXPECT_EQ(in[3], 5u);
}

TEST(NumPaths, InfiniteVerticesExcluded) {
  const Graph g = graph::path(3);
  const auto a = make_assignment({1, kInfiniteLayer, 2}, 2);
  const auto in = num_paths_in(g, a);
  EXPECT_EQ(in[1], 0u);  // ∞ vertex: no strictly increasing path ends here
  EXPECT_EQ(in[2], 1u);  // only (2): its neighbor is ∞
}

TEST(NumPaths, SameLayerEdgesDoNotCount) {
  const Graph g = graph::path(2);
  const auto a = make_assignment({1, 1}, 1);
  const auto in = num_paths_in(g, a);
  EXPECT_EQ(in[0], 1u);
  EXPECT_EQ(in[1], 1u);
}

TEST(NumPaths, DoubleCountingIdentityLemma24) {
  // Σ_v NumPathsIn(v) = Σ_v NumPathsOut(v) (every path counted once each
  // way), and both ≤ n·d^L.
  util::SplitRng rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::forest_union(100, 3, rng);
    const LayerAssignment a = reference_peeling_layering(g, 12);
    ASSERT_TRUE(a.is_complete());
    const std::size_t d = assignment_outdegree(g, a);
    const auto in = num_paths_in(g, a);
    const auto out = num_paths_out(g, a);
    long double sum_in = 0, sum_out = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      sum_in += in[v];
      sum_out += out[v];
    }
    EXPECT_EQ(sum_in, sum_out);
    const long double bound =
        static_cast<long double>(g.num_vertices()) *
        std::pow(static_cast<long double>(std::max<std::size_t>(d, 2)),
                 static_cast<long double>(a.num_layers));
    EXPECT_LE(sum_in, bound) << "Lemma 2.4 bound violated";
  }
}

TEST(ReferencePeeling, CompleteAndValidOnSparseGraphs) {
  util::SplitRng rng(3);
  const Graph g = graph::forest_union(300, 4, rng);
  const LayerAssignment a = reference_peeling_layering(g, 16);
  EXPECT_TRUE(a.is_complete());
  EXPECT_LE(assignment_outdegree(g, a), 16u);
}

TEST(ReferencePeeling, IncompleteOnDenseCore) {
  const Graph g = graph::clique(10);  // min degree 9
  const LayerAssignment a = reference_peeling_layering(g, 4);
  EXPECT_FALSE(a.is_complete());
  EXPECT_EQ(a.assigned_count(), 0u);
}

// Parameterized: the reference layering's layer count is ≤ log-ish in n
// when the threshold is at least twice the average degree.
class PeelingLayersSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PeelingLayersSweep, LayerCountLogarithmic) {
  const auto [n, k] = GetParam();
  util::SplitRng rng(n + k);
  const Graph g = graph::forest_union(n, k, rng);
  const LayerAssignment a = reference_peeling_layering(g, 4 * k);
  ASSERT_TRUE(a.is_complete());
  const double log_n = std::log2(static_cast<double>(n));
  EXPECT_LE(a.num_layers, static_cast<Layer>(3.0 * log_n + 4));
}

INSTANTIATE_TEST_SUITE_P(
    Growth, PeelingLayersSweep,
    ::testing::Combine(::testing::Values(128, 512, 2048),
                       ::testing::Values(1, 2, 4)));

std::uint64_t fnv1a_layers(const std::vector<Layer>& layers) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (Layer l : layers) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (l >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct GoldenLayering {
  const char* name;
  Graph g;
  std::uint64_t layers_fnv1a;
  Layer num_layers;
  std::size_t outdegree_bound;
  /// Per exponentiation step: {active, max nodes, total nodes, fetch rounds}.
  std::vector<std::array<std::size_t, 4>> steps;
  std::map<std::string, std::size_t> rounds_by_label;
};

/// Every public entry of core/layering_pipeline.hpp (or, when `entries` is
/// not empty, each entry it names) must reject `p` with an InvariantError
/// naming `field`.
void expect_pipeline_rejects(const PipelineParams& p, const std::string& field,
                             const std::set<std::string>& entries = {}) {
  const Graph g = graph::path(16);
  const auto cfg = mpc::ClusterConfig::for_problem(16, 15, 0.6);
  mpc::RoundLedger ledger(cfg);
  mpc::MpcContext ctx(cfg, &ledger);
  const auto expect = [&](const char* entry, const auto& call) {
    if (!entries.empty() && !entries.contains(entry)) return;
    try {
      call();
      ADD_FAILURE() << entry << " accepted a bad " << field;
    } catch (const InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << entry << ": " << e.what();
    }
  };
  expect("complete_layering", [&] { (void)complete_layering(g, p, ctx); });
  expect("run_partial_iterated",
         [&] { (void)run_partial_iterated(g, p, 64, ctx); });
  expect("run_partial_once", [&] { (void)run_partial_once(g, p, 64, ctx); });
  expect("derive_budget", [&] { (void)p.derive_budget(4096); });
  expect("derive_layers", [&] { (void)p.derive_layers(64); });
  expect("derive_steps", [&] { (void)p.derive_steps(16, 2); });
  expect("derive_peel_rounds", [&] { (void)p.derive_peel_rounds(); });
}

/// NaN, ±∞ and a negative value of `field` are rejected by name; 0 stays
/// legal and still yields a complete layering.
void expect_field_checked(double PipelineParams::*field,
                          const std::string& name) {
  util::SplitRng rng(21);
  const Graph g = graph::gnm(400, 2000, rng);
  const PipelineParams base =
      PipelineParams::practical(estimate_density_parameter(g));
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0}) {
    SCOPED_TRACE(bad);
    PipelineParams p = base;
    p.*field = bad;
    expect_pipeline_rejects(p, "PipelineParams." + name);
  }
  PipelineParams zero = base;
  zero.*field = 0.0;
  const auto cfg = mpc::ClusterConfig::for_problem(g.num_vertices(),
                                                   g.num_edges(), 0.6);
  mpc::RoundLedger ledger(cfg);
  mpc::MpcContext ctx(cfg, &ledger);
  EXPECT_TRUE(complete_layering(g, zero, ctx).assignment.is_complete());
}

TEST(Layering, RejectsBadBudgetExponent) {
  expect_field_checked(&PipelineParams::budget_exponent, "budget_exponent");
}

TEST(Layering, RejectsBadLayerFraction) {
  expect_field_checked(&PipelineParams::layer_fraction, "layer_fraction");
}

TEST(Layering, RejectsBadStepsLoglogFactor) {
  expect_field_checked(&PipelineParams::steps_loglog_factor,
                       "steps_loglog_factor");
}

TEST(Layering, RejectsBadPeelRoundsFactor) {
  expect_field_checked(&PipelineParams::peel_rounds_factor,
                       "peel_rounds_factor");
}

TEST(Layering, RejectsBadBoostExponent) {
  expect_field_checked(&PipelineParams::boost_exponent, "boost_exponent");
}

// A finite field too large for the count derived from it is rejected by
// name wherever that count is derived, before any round runs.
TEST(Layering, RejectsLayerFractionOverflowingLayers) {
  PipelineParams p = PipelineParams::practical(2);
  p.layer_fraction = 1e30;
  expect_pipeline_rejects(p, "PipelineParams.layer_fraction",
                          {"complete_layering", "run_partial_iterated",
                           "run_partial_once", "derive_layers"});
}

TEST(Layering, RejectsStepsLoglogFactorOverflowingSteps) {
  PipelineParams p = PipelineParams::practical(2);
  p.steps_loglog_factor = 1e30;
  expect_pipeline_rejects(p, "PipelineParams.steps_loglog_factor",
                          {"complete_layering", "run_partial_iterated",
                           "run_partial_once", "derive_steps"});
  // s = 64 exactly is already out of range; 63 is not.
  p.steps_loglog_factor = 64.0;
  expect_pipeline_rejects(p, "PipelineParams.steps_loglog_factor",
                          {"derive_steps"});
  p.steps_loglog_factor = 63.0;
  EXPECT_EQ(p.derive_steps(4, 1), 63u);
}

TEST(Layering, RejectsPeelRoundsFactorOverflowingRounds) {
  PipelineParams p = PipelineParams::practical(2);
  p.peel_rounds_factor = 1e30;
  expect_pipeline_rejects(p, "PipelineParams.peel_rounds_factor",
                          {"complete_layering", "derive_peel_rounds"});
}

// The exponents only feed a power that saturates at the budget cap, so a
// huge one is legal and still completes the layering.
TEST(Layering, HugeExponentsSaturateAtTheBudgetCap) {
  util::SplitRng rng(22);
  const Graph g = graph::gnm(400, 2000, rng);
  const auto cfg = mpc::ClusterConfig::for_problem(g.num_vertices(),
                                                   g.num_edges(), 0.6);
  const PipelineParams base =
      PipelineParams::practical(estimate_density_parameter(g));
  PipelineParams budget = base;
  budget.budget_exponent = 1e30;
  EXPECT_EQ(budget.derive_budget(cfg.words_per_machine),
            std::max(cfg.words_per_machine, base.min_budget));
  PipelineParams boost = base;
  boost.boost_exponent = 1e30;
  for (const PipelineParams& p : {budget, boost}) {
    mpc::RoundLedger ledger(cfg);
    mpc::MpcContext ctx(cfg, &ledger);
    EXPECT_TRUE(complete_layering(g, p, ctx).assignment.is_complete());
  }
}

TEST(Layering, GoldenAssignmentsBitIdentical) {
  // Pinned literals: a faster exponentiation must reproduce the complete
  // layering, Algorithm 2's per-step tree statistics and the ledger bit for
  // bit. The exponentiation runs standalone on the whole graph with the
  // pipeline's first-phase (B, k, s).
  util::SplitRng ba_rng(21);
  util::SplitRng gnm_draw(22);
  util::SplitRng gnm_relabel(23);
  util::SplitRng forest_rng(24);
  util::SplitRng chain_rng(25);
  util::SplitRng clique_rng(26);
  const std::vector<GoldenLayering> cases = {
      {"barabasi_albert(2^12, 4)",
       graph::barabasi_albert(std::size_t{1} << 12, 4, ba_rng),
       0x14427b835cf39036ULL, 10, 20,
       {{3547, 59, 24358, 5},
        {3547, 55, 10975, 4},
        {3547, 51, 8159, 4},
        {3547, 47, 6732, 4}},
       {{"exponentiate.fetch", 23},
        {"exponentiate.init", 2},
        {"layering.peel", 6},
        {"partial_layering.min_project", 3}}},
      {"relabelled gnm(2^12, 2^14)",
       graph::relabel_randomly(
           graph::gnm(std::size_t{1} << 12, std::size_t{1} << 14, gnm_draw),
           gnm_relabel),
       0xaf1fd0bde336b176ULL, 8, 25,
       {{4056, 64, 64723, 6},
        {4056, 11, 5869, 4},
        {4056, 6, 4183, 4},
        {4056, 1, 4096, 4}},
       {{"exponentiate.fetch", 17},
        {"exponentiate.init", 1},
        {"layering.peel", 6},
        {"partial_layering.min_project", 2}}},
      {"forest_union(5000, 2)", graph::forest_union(5000, 2, forest_rng),
       0x090e57af2ed84557ULL, 7, 9,
       {{4934, 35, 20984, 5},
        {4934, 11, 6289, 4},
        {4934, 8, 5257, 4},
        {4934, 5, 5043, 4}},
       {{"exponentiate.fetch", 6},
        {"exponentiate.init", 1},
        {"layering.peel", 5},
        {"partial_layering.min_project", 1}}},
      {"slow_peeling_chain(6, 10)",
       graph::slow_peeling_chain(6, 10, chain_rng).graph,
       0x549b100905d91c63ULL, 6, 35,
       {{1281, 241, 135723, 7},
        {1281, 1, 1323, 4},
        {1281, 1, 1323, 4},
        {1281, 1, 1323, 4}},
       {{"layering.peel", 6}}},
      {"planted_clique(2000, 6000, 40)",
       graph::planted_clique(2000, 6000, 40, clique_rng),
       0xbba8603da133ae15ULL, 2, 39,
       {{2000, 49, 3305, 6},
        {2000, 1, 2000, 4},
        {2000, 1, 2000, 4},
        {2000, 1, 2000, 4}},
       {{"layering.peel", 2}}},
  };
  for (const GoldenLayering& want : cases) {
    SCOPED_TRACE(want.name);
    const Graph& g = want.g;
    const auto cfg =
        mpc::ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), 0.6);
    const PipelineParams p =
        PipelineParams::practical(estimate_density_parameter(g));

    mpc::RoundLedger ledger(cfg);
    mpc::MpcContext ctx(cfg, &ledger);
    const CompleteLayeringResult got = complete_layering(g, p, ctx);
    EXPECT_EQ(fnv1a_layers(got.assignment.layer), want.layers_fnv1a);
    EXPECT_EQ(got.assignment.num_layers, want.num_layers);
    EXPECT_EQ(got.outdegree_bound, want.outdegree_bound);
    EXPECT_EQ(ledger.rounds_by_label(), want.rounds_by_label);

    ExponentiateParams ep;
    ep.budget = p.derive_budget(cfg.words_per_machine);
    ep.prune_k = p.k;
    ep.steps = p.derive_steps(g.num_vertices(), p.derive_layers(ep.budget));
    mpc::RoundLedger exp_ledger(cfg);
    mpc::MpcContext exp_ctx(cfg, &exp_ledger);
    ExponentiateScratch scratch;
    ExponentiateResult trees;
    exponentiate_and_local_prune(g, ep, exp_ctx, scratch, trees);
    std::vector<std::array<std::size_t, 4>> steps;
    for (const ExponentiateStepStats& s : trees.per_step)
      steps.push_back({s.active_vertices, s.max_tree_nodes,
                       s.total_tree_nodes, s.fetch_rounds});
    EXPECT_EQ(steps, want.steps);
  }
}

}  // namespace
}  // namespace arbor::core
