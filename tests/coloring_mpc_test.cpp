// End-to-end tests for Theorem 1.2 (MPC coloring): properness, palette
// size O(λ log log n), the vertex-partition path, determinism, the
// block/tail round accounting, and golden outputs pinned bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "core/coloring_mpc.hpp"
#include "graph/arboricity.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "mpc/ledger.hpp"
#include "util/rng.hpp"

namespace arbor::core {
namespace {

using graph::Graph;

mpc::MpcContext make_ctx(const Graph& g, mpc::RoundLedger*& ledger_out,
                         double delta = 0.6) {
  const auto cfg = mpc::ClusterConfig::for_problem(
      g.num_vertices(), g.num_edges(), delta);
  static thread_local std::vector<std::unique_ptr<mpc::RoundLedger>> keep;
  keep.push_back(std::make_unique<mpc::RoundLedger>(cfg));
  ledger_out = keep.back().get();
  return mpc::MpcContext(cfg, ledger_out);
}

TEST(MpcColor, ProperOnForestUnions) {
  util::SplitRng rng(1);
  for (std::size_t lambda : {1u, 2u, 4u}) {
    const Graph g = graph::forest_union(600, lambda, rng);
    mpc::RoundLedger* ledger = nullptr;
    auto ctx = make_ctx(g, ledger);
    const MpcColoringResult result = mpc_color(g, {}, ctx);
    const auto check = graph::check_coloring(g, result.colors);
    EXPECT_TRUE(check.proper) << "λ=" << lambda;
    EXPECT_LE(check.colors_used, result.palette_size);
  }
}

TEST(MpcColor, PaletteIsLambdaLogLogShaped) {
  util::SplitRng rng(2);
  for (std::size_t lambda : {1u, 2u, 4u, 8u}) {
    const Graph g = graph::forest_union(800, lambda, rng);
    mpc::RoundLedger* ledger = nullptr;
    auto ctx = make_ctx(g, ledger);
    const MpcColoringResult result = mpc_color(g, {}, ctx);
    const double loglog =
        std::log2(std::log2(static_cast<double>(g.num_vertices())));
    EXPECT_LE(static_cast<double>(result.palette_size),
              3.0 * 24.0 * static_cast<double>(lambda) * loglog)
        << "λ=" << lambda;
  }
}

TEST(MpcColor, StarUsesFewColorsDespiteHugeDegree) {
  // The paper's motivating example: Δ = n-1 but λ = 1, so the palette must
  // stay tiny even though a Δ-based algorithm would use ~n colors.
  const Graph g = graph::star(2000);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcColoringResult result = mpc_color(g, {}, ctx);
  EXPECT_TRUE(graph::check_coloring(g, result.colors).proper);
  EXPECT_LE(result.palette_size, 64u);  // vs Δ+1 = 2000
}

TEST(MpcColor, HighArboricityTakesVertexPartitionPath) {
  const Graph g = graph::clique(200);  // λ = 100
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcColoringResult result = mpc_color(g, {}, ctx);
  EXPECT_GT(result.parts, 1u);
  const auto check = graph::check_coloring(g, result.colors);
  EXPECT_TRUE(check.proper);
  // A clique needs ≥ n colors; sanity: palette covers it but stays O(n).
  EXPECT_GE(result.palette_size, 200u);
  EXPECT_LE(result.palette_size, 200u * 24u);
}

TEST(MpcColor, GnmProper) {
  util::SplitRng rng(3);
  const Graph g = graph::gnm(1000, 4000, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcColoringResult result = mpc_color(g, {}, ctx);
  EXPECT_TRUE(graph::check_coloring(g, result.colors).proper);
}

TEST(MpcColor, DeterministicForFixedSeed) {
  util::SplitRng rng(4);
  const Graph g = graph::forest_union(400, 3, rng);
  mpc::RoundLedger* l1 = nullptr;
  auto c1 = make_ctx(g, l1);
  const auto r1 = mpc_color(g, {}, c1);
  mpc::RoundLedger* l2 = nullptr;
  auto c2 = make_ctx(g, l2);
  const auto r2 = mpc_color(g, {}, c2);
  EXPECT_EQ(r1.colors, r2.colors);
  EXPECT_EQ(l1->total_rounds(), l2->total_rounds());
}

TEST(MpcColor, SeedChangesColoring) {
  util::SplitRng rng(5);
  const Graph g = graph::gnm(500, 1500, rng);
  mpc::RoundLedger* l1 = nullptr;
  auto c1 = make_ctx(g, l1);
  ColoringParams p1;
  p1.seed = 111;
  const auto r1 = mpc_color(g, p1, c1);
  mpc::RoundLedger* l2 = nullptr;
  auto c2 = make_ctx(g, l2);
  ColoringParams p2;
  p2.seed = 222;
  const auto r2 = mpc_color(g, p2, c2);
  EXPECT_NE(r1.colors, r2.colors);
  EXPECT_TRUE(graph::check_coloring(g, r1.colors).proper);
  EXPECT_TRUE(graph::check_coloring(g, r2.colors).proper);
}

TEST(MpcColor, BlockAndTailAccountingPopulated) {
  util::SplitRng rng(6);
  const Graph g = graph::forest_union(5000, 2, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcColoringResult result = mpc_color(g, {}, ctx);
  EXPECT_TRUE(graph::check_coloring(g, result.colors).proper);
  // A graph with > tail_threshold layers must have used at least one block.
  EXPECT_GE(result.blocks, 1u);
  EXPECT_GT(result.local_rounds_replayed, 0u);
  EXPECT_GT(ledger->rounds_by_label().count("color.block_gather"), 0u);
}

TEST(MpcColor, EmptyAndEdgelessGraphs) {
  mpc::RoundLedger* ledger = nullptr;
  const Graph none = graph::GraphBuilder(0).build();
  auto c0 = make_ctx(none, ledger);
  EXPECT_TRUE(mpc_color(none, {}, c0).colors.empty());

  const Graph isolated = graph::GraphBuilder(7).build();
  auto c1 = make_ctx(isolated, ledger);
  const auto result = mpc_color(isolated, {}, c1);
  EXPECT_TRUE(graph::check_coloring(isolated, result.colors).proper);
}

TEST(MpcColor, PaletteFactorIsHonored) {
  util::SplitRng rng(7);
  const Graph g = graph::forest_union(300, 2, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  ColoringParams params;
  params.palette_factor = 5.0;
  const MpcColoringResult result = mpc_color(g, params, ctx);
  EXPECT_TRUE(graph::check_coloring(g, result.colors).proper);
  EXPECT_GE(result.palette_size, 5u * result.layering_outdegree);
}

/// mpc_color on gnm(2000, 8000) with one hostile factor must throw an
/// InvariantError naming `field`, not reinterpret the value.
void expect_rejected(const ColoringParams& params, const std::string& field) {
  util::SplitRng rng(14);
  const Graph g = graph::gnm(2000, 8000, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  try {
    mpc_color(g, params, ctx);
    ADD_FAILURE() << field << " was accepted";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(MpcColor, RejectsNegativePaletteFactor) {
  ColoringParams params;
  params.palette_factor = -1.0;
  expect_rejected(params, "ColoringParams.palette_factor");
}

TEST(MpcColor, RejectsNanPaletteFactor) {
  ColoringParams params;
  params.palette_factor = std::nan("");
  expect_rejected(params, "ColoringParams.palette_factor");
}

TEST(MpcColor, RejectsPaletteFactorOverflowingColorRange) {
  // Finite, but ⌈f·d⌉ colors do not fit below the kUncolored sentinel.
  ColoringParams params;
  params.palette_factor = 1e300;
  expect_rejected(params, "ColoringParams.palette_factor");
}

TEST(MpcColor, RejectsNegativeBlockFraction) {
  ColoringParams params;
  params.block_fraction = -0.5;
  expect_rejected(params, "ColoringParams.block_fraction");
}

TEST(MpcColor, RejectsNanBlockFraction) {
  ColoringParams params;
  params.block_fraction = std::nan("");
  expect_rejected(params, "ColoringParams.block_fraction");
}

TEST(MpcColor, RejectsBlockFractionAboveOne) {
  ColoringParams params;
  params.block_fraction = 3.0;
  expect_rejected(params, "ColoringParams.block_fraction");
}

TEST(MpcColor, RejectsNanHighKFactor) {
  ColoringParams params;
  params.high_k_factor = std::nan("");
  expect_rejected(params, "ColoringParams.high_k_factor");
}

/// FNV-1a (64-bit) over each colour's four bytes, low byte first.
std::uint64_t fnv1a_colors(const std::vector<graph::Color>& colors) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (graph::Color c : colors) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (c >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct GoldenOutputs {
  std::string name;
  Graph g;
  ColoringParams params;
  std::uint64_t colors_fnv1a;
  std::size_t palette_size;
  std::size_t blocks;
  std::size_t local_rounds_replayed;
  std::size_t tail_mpc_rounds;
  std::size_t max_sampled_cone_nodes;
  std::size_t total_rounds;
  std::map<std::string, std::size_t> rounds_by_label;
};

TEST(MpcColor, GoldenOutputsBitIdentical) {
  // Pinned literals: a faster descent must reproduce the colours, the cone
  // gauge and the ledger bit for bit.
  util::SplitRng ba_rng(11);
  util::SplitRng gnm_draw(12);
  util::SplitRng gnm_relabel(13);
  util::SplitRng forest_rng(6);
  util::SplitRng ba_rng_again(11);
  util::SplitRng gnm_draw_again(12);
  util::SplitRng gnm_relabel_again(13);
  util::SplitRng ba_rng_wide(11);
  ColoringParams one_sample;
  one_sample.cone_sample = 1;
  ColoringParams lane_groups;  // three lane groups, the last one partial
  lane_groups.cone_sample = 130;
  ColoringParams wide_blocks;
  wide_blocks.block_fraction = 0.5;
  const std::vector<GoldenOutputs> cases = {
      {"barabasi_albert(2^12, 4)",
       graph::barabasi_albert(std::size_t{1} << 12, 4, ba_rng), {},
       0xd574b8f43ddb82ffULL, 60, 4, 8, 4, 1187, 85,
       {{"color.block_gather", 45},
        {"color.estimate_k", 1},
        {"color.measure_d", 1},
        {"color.tail", 4},
        {"exponentiate.fetch", 23},
        {"exponentiate.init", 2},
        {"layering.peel", 6},
        {"partial_layering.min_project", 3}}},
      {"relabelled gnm(2^12, 2^15)",
       graph::relabel_randomly(
           graph::gnm(std::size_t{1} << 12, std::size_t{1} << 15, gnm_draw),
           gnm_relabel),
       {}, 0x144c7f159a40b2ccULL, 33, 3, 11, 7, 1558, 62,
       {{"color.block_gather", 45},
        {"color.estimate_k", 1},
        {"color.measure_d", 1},
        {"color.tail", 7},
        {"layering.peel", 8}}},
      {"forest_union(5000, 2)", graph::forest_union(5000, 2, forest_rng),
       {}, 0xc27bed3b945b8ce5ULL, 9, 3, 4, 13, 17, 52,
       {{"color.block_gather", 24},
        {"color.estimate_k", 1},
        {"color.measure_d", 1},
        {"color.tail", 13},
        {"exponentiate.fetch", 6},
        {"exponentiate.init", 1},
        {"layering.peel", 5},
        {"partial_layering.min_project", 1}}},
      {"clique(200)", graph::clique(200), {}, 0x1eeff5aa1b7e1985ULL, 519, 0,
       0, 3, 0, 5,
       {{"color.estimate_k", 1},
        {"color.measure_d", 1},
        {"color.tail", 3},
        {"color.vertex_partition", 1},
        {"layering.peel", 1}}},
      {"barabasi_albert(2^12, 4), cone_sample = 1",
       graph::barabasi_albert(std::size_t{1} << 12, 4, ba_rng_again),
       one_sample, 0xd574b8f43ddb82ffULL, 60, 4, 8, 4, 1184, 85,
       {{"color.block_gather", 45},
        {"color.estimate_k", 1},
        {"color.measure_d", 1},
        {"color.tail", 4},
        {"exponentiate.fetch", 23},
        {"exponentiate.init", 2},
        {"layering.peel", 6},
        {"partial_layering.min_project", 3}}},
      {"relabelled gnm(2^12, 2^15), cone_sample = 130",
       graph::relabel_randomly(
           graph::gnm(std::size_t{1} << 12, std::size_t{1} << 15,
                      gnm_draw_again),
           gnm_relabel_again),
       lane_groups, 0x144c7f159a40b2ccULL, 33, 3, 11, 7, 1558, 62,
       {{"color.block_gather", 45},
        {"color.estimate_k", 1},
        {"color.measure_d", 1},
        {"color.tail", 7},
        {"layering.peel", 8}}},
      {"barabasi_albert(2^12, 4), block_fraction = 0.5",
       graph::barabasi_albert(std::size_t{1} << 12, 4, ba_rng_wide),
       wide_blocks, 0xd574b8f43ddb82ffULL, 60, 2, 8, 4, 840, 70,
       {{"color.block_gather", 30},
        {"color.estimate_k", 1},
        {"color.measure_d", 1},
        {"color.tail", 4},
        {"exponentiate.fetch", 23},
        {"exponentiate.init", 2},
        {"layering.peel", 6},
        {"partial_layering.min_project", 3}}},
  };
  for (const GoldenOutputs& want : cases) {
    SCOPED_TRACE(want.name);
    mpc::RoundLedger* ledger = nullptr;
    auto ctx = make_ctx(want.g, ledger);
    const MpcColoringResult got = mpc_color(want.g, want.params, ctx);
    EXPECT_EQ(fnv1a_colors(got.colors), want.colors_fnv1a);
    EXPECT_EQ(got.palette_size, want.palette_size);
    EXPECT_EQ(got.blocks, want.blocks);
    EXPECT_EQ(got.local_rounds_replayed, want.local_rounds_replayed);
    EXPECT_EQ(got.tail_mpc_rounds, want.tail_mpc_rounds);
    EXPECT_EQ(got.max_sampled_cone_nodes, want.max_sampled_cone_nodes);
    EXPECT_EQ(ledger->total_rounds(), want.total_rounds);
    EXPECT_EQ(ledger->rounds_by_label(), want.rounds_by_label);
  }
}

}  // namespace
}  // namespace arbor::core
