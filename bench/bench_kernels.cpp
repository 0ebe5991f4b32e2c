// Microbenchmarks (google-benchmark) for the computational kernels:
// LocalPrune, tree attachment, the full exponentiation step, degeneracy
// peeling, list coloring, and the exact densest-subgraph oracle. These are
// wall-clock numbers for the simulator itself (the paper's claims are
// about MPC rounds, covered by E1..E10); they document what a user pays to
// run the reproduction.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/exponentiate.hpp"
#include "core/local_prune.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "local/list_coloring.hpp"
#include "mpc/ledger.hpp"
#include "util/rng.hpp"

namespace {

using namespace arbor;

graph::Graph bench_graph(std::size_t n) {
  util::SplitRng rng(123);
  return graph::gnm(n, 4 * n, rng);
}

void BM_LocalPrune(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = bench_graph(n);
  // A depth-2 tree at the max-degree vertex (the heaviest realistic input).
  graph::VertexId center = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > g.degree(center)) center = v;
  const core::TreeView star =
      core::TreeView::star(center, g.neighbors(center));
  core::TreeView tree;
  {
    // Attach every leaf's star from its wire format, as Algorithm 2 does.
    std::vector<std::vector<std::uint64_t>> stars;
    std::vector<core::TreeView::Attachment> attachments;
    const auto leaves = star.leaves_at_depth(1);
    stars.reserve(leaves.size());
    for (auto leaf : leaves) {
      const graph::VertexId u = star.vertex_of(leaf);
      stars.push_back(core::TreeView::star(u, g.neighbors(u)).serialize());
      attachments.push_back({leaf, stars.back()});
    }
    star.attach(attachments, tree);
  }
  // The output arena is reused across iterations, as across vertices and
  // steps in Algorithm 2.
  core::TreeView pruned;
  for (auto _ : state) {
    core::local_prune(tree, 4, pruned);
    benchmark::DoNotOptimize(pruned.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tree.size()));
}
BENCHMARK(BM_LocalPrune)->Arg(1 << 10)->Arg(1 << 14);

void BM_ExponentiateStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = bench_graph(n);
  const mpc::ClusterConfig cfg{64, 4096};
  // Items are tree nodes held after each step, summed over the steps: the
  // unit the exponentiation's cost scales with.
  std::size_t nodes = 0;
  for (auto _ : state) {
    mpc::RoundLedger ledger(cfg);
    mpc::MpcContext ctx(cfg, &ledger);
    core::ExponentiateParams p{/*budget=*/64, /*prune_k=*/4, /*steps=*/2};
    const core::ExponentiateResult result =
        core::exponentiate_and_local_prune(g, p, ctx);
    for (const core::ExponentiateStepStats& step : result.per_step)
      nodes += step.total_tree_nodes;
    benchmark::DoNotOptimize(result.trees.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_ExponentiateStep)->Arg(1 << 10)->Arg(1 << 12);

void BM_Degeneracy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = bench_graph(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::degeneracy(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_Degeneracy)->Arg(1 << 12)->Arg(1 << 16);

void BM_ListColoring(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = bench_graph(n);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t v = 0; v < n; ++v) keys[v] = v;
  // One shared range [0, Δ+1), no exclusions.
  const std::vector<std::size_t> no_exclusions(n + 1, 0);
  const local::RangePalettes palettes{0, g.max_degree() + 1, no_exclusions,
                                      {}};
  const util::StatelessCoin coin(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(local::list_color(local::ConflictView::of(g),
                                               keys, palettes, coin,
                                               state.iterations()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ListColoring)->Arg(1 << 10)->Arg(1 << 14);

void BM_ExactDensestSubgraph(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::SplitRng rng(5);
  const graph::Graph g = graph::planted_clique(n, 2 * n, 24, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::exact_densest_subgraph(g));
  }
}
BENCHMARK(BM_ExactDensestSubgraph)->Arg(1 << 8)->Arg(1 << 10);

}  // namespace

BENCHMARK_MAIN();
