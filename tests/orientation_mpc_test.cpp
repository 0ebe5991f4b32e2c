// End-to-end tests for Theorem 1.1 (MPC orientation): validity, out-degree
// quality, the high-arboricity edge-partition path, and memory/round
// accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "baselines/be08_mpc.hpp"
#include "core/orientation_mpc.hpp"
#include "graph/arboricity.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "mpc/ledger.hpp"
#include "util/rng.hpp"

namespace arbor::core {
namespace {

using graph::Graph;
using graph::VertexId;

mpc::MpcContext make_ctx(const Graph& g, mpc::RoundLedger*& ledger_out,
                         double delta = 0.6) {
  const auto cfg = mpc::ClusterConfig::for_problem(
      g.num_vertices(), g.num_edges(), delta);
  static thread_local std::vector<std::unique_ptr<mpc::RoundLedger>> keep;
  keep.push_back(std::make_unique<mpc::RoundLedger>(cfg));
  ledger_out = keep.back().get();
  return mpc::MpcContext(cfg, ledger_out);
}

TEST(MpcOrient, OutdegreeWithinBoundOnForestUnions) {
  util::SplitRng rng(1);
  for (std::size_t lambda : {1u, 2u, 4u, 8u}) {
    const Graph g = graph::forest_union(800, lambda, rng);
    mpc::RoundLedger* ledger = nullptr;
    auto ctx = make_ctx(g, ledger);
    const OrientationParams params;
    const MpcOrientationResult result = mpc_orient(g, params, ctx);
    const std::size_t measured = result.orientation.max_outdegree(g);
    EXPECT_LE(measured, result.outdegree_bound) << "λ=" << lambda;
    // O(λ log log n) with small constants.
    const double loglog =
        std::log2(std::log2(static_cast<double>(g.num_vertices())));
    EXPECT_LE(static_cast<double>(measured),
              24.0 * static_cast<double>(lambda) * loglog) << "λ=" << lambda;
  }
}

TEST(MpcOrient, EveryEdgeOrientedExactlyOnce) {
  util::SplitRng rng(2);
  const Graph g = graph::gnm(300, 900, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcOrientationResult result = mpc_orient(g, {}, ctx);
  // Sum of out-degrees equals m: every edge has exactly one tail.
  const auto out = result.orientation.outdegrees(g);
  std::size_t total = 0;
  for (std::size_t d : out) total += d;
  EXPECT_EQ(total, g.num_edges());
}

TEST(MpcOrient, SinglePartPathUsesCompleteLayering) {
  util::SplitRng rng(3);
  const Graph g = graph::forest_union(400, 2, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcOrientationResult result = mpc_orient(g, {}, ctx);
  EXPECT_EQ(result.parts, 1u);
  EXPECT_TRUE(result.layering.is_complete());
  // The orientation must agree with the layering rule.
  const auto edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Layer lu = result.layering.layer[edges[i].u];
    const Layer lv = result.layering.layer[edges[i].v];
    EXPECT_EQ(result.orientation.oriented_towards_v(i), lu <= lv);
  }
}

TEST(MpcOrient, HighArboricityTakesPartitionPath) {
  // K_200: λ = 100 ≫ 4·log2(200) ≈ 31 → edge partitioning engages.
  const Graph g = graph::clique(200);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcOrientationResult result = mpc_orient(g, {}, ctx);
  EXPECT_GT(result.parts, 1u);
  const std::size_t measured = result.orientation.max_outdegree(g);
  EXPECT_LE(measured, result.outdegree_bound);
  // Quality: within O(log log n) of λ with generous constant; λ(K_200)=100.
  EXPECT_LE(measured, 100u * 24u);
  // Must beat the trivial all-one-way orientation (out-degree 199).
  EXPECT_LT(measured, 199u);
}

TEST(MpcOrient, ExplicitKOverridesEstimate) {
  util::SplitRng rng(4);
  const Graph g = graph::forest_union(300, 2, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  OrientationParams params;
  params.k = 6;
  const MpcOrientationResult result = mpc_orient(g, params, ctx);
  EXPECT_EQ(result.k_used, 6u);
  EXPECT_LE(result.orientation.max_outdegree(g), result.outdegree_bound);
}

TEST(MpcOrient, EstimateDensityParameterSandwich) {
  util::SplitRng rng(5);
  for (std::size_t lambda : {1u, 3u, 6u}) {
    const Graph g = graph::forest_union(400, lambda, rng);
    const std::size_t k = estimate_density_parameter(g);
    EXPECT_GE(k, std::max<std::size_t>(lambda / 2, 1));  // ≥ λ/2 loosely
    EXPECT_LE(k, 2 * lambda);                            // ≤ 2λ-1 exactly
  }
}

TEST(MpcOrient, FewerRoundsThanBe08AtScale) {
  util::SplitRng rng(6);
  const Graph g = graph::forest_union(1 << 15, 2, rng);

  mpc::RoundLedger* ours_ledger = nullptr;
  auto ours_ctx = make_ctx(g, ours_ledger);
  (void)mpc_orient(g, {}, ours_ctx);

  mpc::RoundLedger* be_ledger = nullptr;
  auto be_ctx = make_ctx(g, be_ledger);
  (void)baselines::be08_orient(g, 0, 0.2, be_ctx);

  // The headline: at this size our poly(log log n) round count should not
  // exceed BE08's Θ(log n)·(constant) — with practical constants we expect
  // the same order, so only assert we are not dramatically worse, and that
  // BE08 grows with log n while we stay sub-logarithmic (cross-checked in
  // the pipeline growth test and bench E1).
  EXPECT_LT(ours_ledger->total_rounds(),
            6 * be_ledger->total_rounds() + 200);
}

TEST(MpcOrient, MemoryEnvelopeRespected) {
  util::SplitRng rng(7);
  const Graph g = graph::forest_union(2000, 2, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger, /*delta=*/0.7);
  OrientationParams params;
  // Keep the exponentiation budget within the machine size.
  params.pipeline.budget_cap = ctx.config().words_per_machine / 4;
  (void)mpc_orient(g, params, ctx);
  EXPECT_EQ(ledger->local_violations(), 0u)
      << "peak local " << ledger->peak_local_words() << " vs S="
      << ledger->config().words_per_machine;
}

TEST(MpcOrient, EmptyAndEdgelessGraphs) {
  mpc::RoundLedger* ledger = nullptr;
  const Graph g = graph::GraphBuilder(10).build();
  auto ctx = make_ctx(g, ledger);
  const MpcOrientationResult result = mpc_orient(g, {}, ctx);
  EXPECT_EQ(result.orientation.max_outdegree(g), 0u);
}

TEST(MpcOrient, DeterministicForFixedSeed) {
  util::SplitRng rng(8);
  const Graph g = graph::clique(150);  // partition path, uses the seed
  mpc::RoundLedger* l1 = nullptr;
  auto c1 = make_ctx(g, l1);
  const auto r1 = mpc_orient(g, {}, c1);
  mpc::RoundLedger* l2 = nullptr;
  auto c2 = make_ctx(g, l2);
  const auto r2 = mpc_orient(g, {}, c2);
  for (std::size_t i = 0; i < g.num_edges(); ++i)
    EXPECT_EQ(r1.orientation.oriented_towards_v(i),
              r2.orientation.oriented_towards_v(i));
  EXPECT_EQ(l1->total_rounds(), l2->total_rounds());
}

/// `params` must be rejected with an InvariantError naming `field`.
void expect_rejected(const OrientationParams& params,
                     const std::string& field) {
  util::SplitRng rng(14);
  const Graph g = graph::gnm(2000, 8000, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  try {
    mpc_orient(g, params, ctx);
    ADD_FAILURE() << field << " was accepted";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(MpcOrient, RejectsNanHighKFactor) {
  OrientationParams params;
  params.high_k_factor = std::nan("");
  expect_rejected(params, "OrientationParams.high_k_factor");
}

TEST(MpcOrient, RejectsNegativeHighKFactor) {
  OrientationParams params;
  params.high_k_factor = -1.0;
  expect_rejected(params, "OrientationParams.high_k_factor");
}


std::uint64_t fnv1a_orientation(const graph::Orientation& o) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < o.num_edges(); ++i) {
    h ^= o.oriented_towards_v(i) ? 1u : 0u;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct GoldenOrientation {
  std::string name;
  Graph g;
  bool distributed_level1;
  double high_k_factor;
  std::uint64_t bits_fnv1a;
  std::size_t parts;
  std::size_t k_used;
  std::size_t outdegree_bound;
  std::map<std::string, std::size_t> rounds_by_label;
};

TEST(MpcOrient, GoldenOutputsBitIdentical) {
  // Pinned literals: a faster k estimate, peel or finalize must reproduce
  // the orientation bits, k, the bound and the ledger bit for bit.
  util::SplitRng ba_rng(11);
  util::SplitRng gnm_draw(12);
  util::SplitRng gnm_relabel(13);
  util::SplitRng dense_draw(14);
  util::SplitRng dense_relabel(15);
  const std::vector<GoldenOrientation> cases = {
      {"barabasi_albert(2^12, 4)",
       graph::barabasi_albert(std::size_t{1} << 12, 4, ba_rng), false, 4.0,
       0xb309d3cec520f17fULL, 1, 4, 20,
       {{"exponentiate.fetch", 23},
        {"exponentiate.init", 2},
        {"layering.peel", 6},
        {"orient.estimate_k", 1},
        {"orient.finalize", 1},
        {"partial_layering.min_project", 3}}},
      {"relabelled gnm(2^12, 2^15), distributed Level-1",
       graph::relabel_randomly(
           graph::gnm(std::size_t{1} << 12, std::size_t{1} << 15, gnm_draw),
           gnm_relabel),
       true, 4.0, 0x8e43f458531cf3caULL, 1, 11, 11,
       {{"layering.peel", 8},
        {"orient.estimate_k", 1},
        {"orient.finalize", 1}}},
      {"relabelled gnm(2^10, 2^14), high_k_factor = 1 (Lemma 2.1 parts)",
       graph::relabel_randomly(
           graph::gnm(std::size_t{1} << 10, std::size_t{1} << 14, dense_draw),
           dense_relabel),
       false, 1.0, 0xcc1732172b495011ULL, 3, 23, 105,
       {{"exponentiate.fetch", 17},
        {"exponentiate.init", 1},
        {"layering.peel", 7},
        {"orient.edge_partition", 1},
        {"orient.estimate_k", 1},
        {"orient.finalize", 1},
        {"partial_layering.min_project", 2}}},
  };
  for (const GoldenOrientation& want : cases) {
    SCOPED_TRACE(want.name);
    auto cfg = mpc::ClusterConfig::for_problem(want.g.num_vertices(),
                                               want.g.num_edges(), 0.6);
    cfg.distributed_level1 = want.distributed_level1;
    mpc::RoundLedger ledger(cfg);
    mpc::MpcContext ctx(cfg, &ledger);
    OrientationParams params;
    params.high_k_factor = want.high_k_factor;
    const MpcOrientationResult got = mpc_orient(want.g, params, ctx);
    EXPECT_EQ(fnv1a_orientation(got.orientation), want.bits_fnv1a);
    EXPECT_EQ(got.parts, want.parts);
    EXPECT_EQ(got.k_used, want.k_used);
    EXPECT_EQ(got.outdegree_bound, want.outdegree_bound);
    EXPECT_EQ(ledger.rounds_by_label(), want.rounds_by_label);
  }
}

}  // namespace
}  // namespace arbor::core
