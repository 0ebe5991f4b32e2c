// Microbenchmarks (google-benchmark) for the computational kernels:
// LocalPrune, tree attachment, the full exponentiation step, the
// degeneracy peel and the core decomposition, the layer-rule orientation
// finalize, list coloring, the Theorem 1.2 colouring (layering and blocked
// descent), the exact densest-subgraph
// oracle, the per-machine record sort under the Level-0 sample sort, and
// the embedded threshold peel.
// These are wall-clock numbers for the simulator itself (the paper's
// claims are about MPC rounds, covered by E1..E10); they document what a
// user pays to run the reproduction.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/coloring_mpc.hpp"
#include "core/density_estimate.hpp"
#include "core/exponentiate.hpp"
#include "core/layering_pipeline.hpp"
#include "core/local_prune.hpp"
#include "engine/records.hpp"
#include "graph/arboricity.hpp"
#include "graph/coreness.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"
#include "local/list_coloring.hpp"
#include "local/mpc_embedding.hpp"
#include "mpc/cluster.hpp"
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
  const core::TreeForest star =
      core::TreeForest::star(center, g.neighbors(center));
  core::TreeForest tree;
  {
    // Attach every leaf's star from its wire format, as Algorithm 2 does.
    std::vector<std::vector<std::uint64_t>> stars;
    std::vector<core::TreeForest::Attachment> attachments;
    const auto leaves = star.tree(0).leaves_at_depth(1);
    stars.reserve(leaves.size());
    for (auto leaf : leaves) {
      const graph::VertexId u = star.tree(0).vertex_of(leaf);
      stars.push_back(
          core::TreeForest::star(u, g.neighbors(u)).tree(0).serialize());
      attachments.push_back({leaf, stars.back()});
    }
    tree.append_attached(star.tree(0), attachments);
  }
  // The output forest is reused across iterations, as across steps in
  // Algorithm 2.
  core::TreeForest pruned;
  for (auto _ : state) {
    core::local_prune(tree, 4, pruned);
    benchmark::DoNotOptimize(pruned.total_nodes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tree.total_nodes()));
}
BENCHMARK(BM_LocalPrune)->Arg(1 << 10)->Arg(1 << 14);

void BM_ExponentiateStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = bench_graph(n);
  const mpc::ClusterConfig cfg{64, 4096};
  // Items are tree nodes held after each step, summed over the steps: the
  // unit the exponentiation's cost scales with.
  // One result and scratch for every call, as the layering keeps them.
  std::size_t nodes = 0;
  core::ExponentiateScratch scratch;
  core::ExponentiateResult result;
  for (auto _ : state) {
    mpc::RoundLedger ledger(cfg);
    mpc::MpcContext ctx(cfg, &ledger);
    core::ExponentiateParams p{/*budget=*/64, /*prune_k=*/4, /*steps=*/2};
    core::exponentiate_and_local_prune(g, p, ctx, scratch, result);
    for (const core::ExponentiateStepStats& step : result.per_step)
      nodes += step.total_tree_nodes;
    benchmark::DoNotOptimize(result.trees.total_nodes());
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

// The bin sort behind core numbers and the degeneracy order, on the same
// graphs as BM_Degeneracy.
void BM_CoreDecomposition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = bench_graph(n);
  for (auto _ : state) {
    const graph::CoreDecomposition cores = graph::core_decomposition(g);
    benchmark::DoNotOptimize(cores.order.data());
    benchmark::DoNotOptimize(cores.degeneracy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_CoreDecomposition)->Arg(1 << 12)->Arg(1 << 16);

// graph::orient_by_layers, the one-round finalize of Theorem 1.1, on its
// own layering. Arg 0: relabelled gnm(2^16, 2^19), perfbench gnm_dist's
// graph; arg 1: BA(2^16, 4), ba_central's. The layering is the single-part
// complete layering mpc_orient would build, with k from the oracle.
void BM_OrientByLayers(benchmark::State& state) {
  util::SplitRng draw(31);
  util::SplitRng relabel(32);
  constexpr std::size_t n = std::size_t{1} << 16;
  const graph::Graph g =
      state.range(0) == 0
          ? graph::relabel_randomly(graph::gnm(n, 8 * n, draw), relabel)
          : graph::barabasi_albert(n, 4, draw);
  mpc::ClusterConfig cfg =
      mpc::ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), 0.6);
  cfg.execution = mpc::ExecutionPolicy::serial();
  mpc::RoundLedger ledger(cfg);
  mpc::MpcContext ctx(cfg, &ledger);
  const core::CompleteLayeringResult layering = core::complete_layering(
      g,
      core::PipelineParams::practical(core::estimate_density_parameter(g)),
      ctx);
  for (auto _ : state) {
    const graph::Orientation o =
        graph::orient_by_layers(g, layering.assignment.layer);
    benchmark::DoNotOptimize(o.words().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_OrientByLayers)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Arg 1 is the palette size, raised to Δ+1 when smaller: 0 gives the
// tightest palette (one mask word on these graphs), 130 one of three words.
void BM_ListColoring(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = bench_graph(n);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t v = 0; v < n; ++v) keys[v] = v;
  // One shared range [0, count), no exclusions.
  const std::vector<std::size_t> no_exclusions(n + 1, 0);
  const local::RangePalettes palettes{
      0,
      std::max<std::size_t>(g.max_degree() + 1,
                            static_cast<std::size_t>(state.range(1))),
      no_exclusions,
      {}};
  const util::StatelessCoin coin(9);
  // One scratch and colour array for every call, as the descent keeps them.
  local::ListColoringScratch scratch;
  std::vector<graph::Color> colors(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        local::list_color(local::ConflictView::of(g), keys, palettes, coin,
                          state.iterations(), 512, scratch, colors)
            .rounds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ListColoring)
    ->Args({1 << 10, 0})
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 130});

// core::mpc_color on a relabelled gnm(n, 8n), serial, central Level-1, k
// supplied so the k-oracle stays out of the loop: the layering plus the
// blocked colour descent, as raw wall time (the shape of perfbench
// gnm_dist's colour job).
void BM_MpcColor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::SplitRng draw(31);
  util::SplitRng relabel(32);
  const graph::Graph g =
      graph::relabel_randomly(graph::gnm(n, 8 * n, draw), relabel);
  mpc::ClusterConfig cfg =
      mpc::ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), 0.7);
  cfg.execution = mpc::ExecutionPolicy::serial();
  cfg.distributed_level1 = false;
  core::ColoringParams params;
  params.k = core::estimate_density_parameter(g);
  for (auto _ : state) {
    mpc::RoundLedger ledger(cfg);
    mpc::MpcContext ctx(cfg, &ledger);
    benchmark::DoNotOptimize(core::mpc_color(g, params, ctx).colors.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MpcColor)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_ExactDensestSubgraph(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::SplitRng rng(5);
  const graph::Graph g = graph::planted_clique(n, 2 * n, 24, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::exact_densest_subgraph(g));
  }
}
BENCHMARK(BM_ExactDensestSubgraph)->Arg(1 << 8)->Arg(1 << 10);

// engine::stable_sort_records on whole-key slabs, one call per simulated
// machine as the sample sort's data rounds make it. Arg 2: 8000 slabs of
// 125 (key, index) records, keys below 62501 and indices 125·slab + i —
// the per-machine sorts of perfbench level0_inproc's 1M-record sort.
// Arg 1: 256 slabs of 256 30-bit words, bench_engine_scaling's word sort.
// Each iteration refills the slabs from the unsorted inputs (a copy the
// sort then reads from cache) and sorts every one.
void BM_StableSortRecords(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  const std::size_t slabs = width == 2 ? 8000 : 256;
  const std::size_t records = width == 2 ? 125 : 256;
  util::SplitRng rng(7);
  std::vector<std::vector<engine::Word>> inputs(slabs);
  for (std::size_t m = 0; m < slabs; ++m) {
    for (std::size_t i = 0; i < records; ++i) {
      if (width == 2) {
        inputs[m].push_back(rng.next_below(62501));
        inputs[m].push_back(m * records + i);
      } else {
        inputs[m].push_back(rng.next_below(1u << 30));
      }
    }
  }
  std::vector<std::vector<engine::Word>> arenas(slabs);
  for (auto _ : state) {
    for (std::size_t m = 0; m < slabs; ++m) {
      arenas[m].assign(inputs[m].begin(), inputs[m].end());
      engine::stable_sort_records(arenas[m], width, width);
    }
    benchmark::DoNotOptimize(arenas.back().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(slabs * records));
}
BENCHMARK(BM_StableSortRecords)->Arg(2)->Arg(1)->Unit(benchmark::kMillisecond);

// local::embedded_threshold_peeling on a relabelled BA(2^17, 4) over 64
// machines of 2^18 words, threshold 5, serial in-process: the shape of
// perfbench level0_inproc's peel job (16 one-round passes).
void BM_EmbeddedPeeling(benchmark::State& state) {
  util::SplitRng draw(2);
  util::SplitRng relabel(1);
  const graph::Graph g = graph::relabel_randomly(
      graph::barabasi_albert(std::size_t{1} << 17, 4, draw), relabel);
  mpc::ClusterConfig cfg{64, std::size_t{1} << 18};
  cfg.execution = mpc::ExecutionPolicy::serial();
  mpc::Cluster cluster(cfg, nullptr);
  for (auto _ : state) {
    cluster.reset_inboxes();
    benchmark::DoNotOptimize(
        local::embedded_threshold_peeling(g, 5, cluster, 1000).layer.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_EmbeddedPeeling)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
