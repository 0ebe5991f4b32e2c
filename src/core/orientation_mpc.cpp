#include "core/orientation_mpc.hpp"

#include <algorithm>
#include <cmath>

#include "core/density_estimate.hpp"
#include "core/partitioning.hpp"
#include "graph/arboricity.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace arbor::core {

std::size_t estimate_density_parameter(const graph::Graph& g) {
  return std::max<std::size_t>(1, graph::degeneracy(g));
}

MpcOrientationResult mpc_orient(const graph::Graph& g,
                                const OrientationParams& params,
                                mpc::MpcContext& ctx) {
  // A NaN factor would compare false and silently skip the Lemma 2.1
  // partition; a negative one would always take it. Both are rejected.
  ARBOR_CHECK_MSG(std::isfinite(params.high_k_factor) &&
                      params.high_k_factor >= 0.0,
                  "OrientationParams.high_k_factor must be finite and >= 0");
  trace::Span stage_span = trace::Tracer::global().span("mpc", "orientation");
  const std::size_t n = g.num_vertices();
  std::size_t k = params.k;
  if (k == 0) {
    if (params.estimator == KEstimator::kParallelGuess) {
      k = estimate_density_mpc(g, ctx).k;
    } else {
      k = estimate_density_parameter(g);
      // The paper's guess-in-parallel costs an extra O(log n) global
      // factor; charge it so memory accounting doesn't flatter the oracle.
      const auto log_n = static_cast<std::size_t>(std::ceil(
          std::log2(static_cast<double>(std::max<std::size_t>(n, 2)))));
      ctx.charge(1, "orient.estimate_k");
      ctx.note_global_words((n + g.num_edges()) * log_n);
    }
  }

  MpcOrientationResult result{
      graph::Orientation(g, std::vector<bool>(g.num_edges(), true)),
      {}, 1, k, 0, {}};

  const double log_n =
      std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
  const bool needs_partition =
      static_cast<double>(k) > params.high_k_factor * log_n;

  PipelineParams pipeline = params.pipeline;

  if (!needs_partition) {
    pipeline.k = std::max<std::size_t>(k, 1);
    CompleteLayeringResult layering = complete_layering(g, pipeline, ctx);
    result.outdegree_bound = layering.outdegree_bound;
    result.stats = layering.stats;

    result.orientation = graph::orient_by_layers(
        g, layering.assignment.layer, kInfiniteLayer);
    ctx.charge(1, "orient.finalize");
    result.layering = std::move(layering.assignment);
    return result;
  }

  // ---- Lemma 2.1 path: random edge partition, per-part layering. ----
  util::SplitRng rng(params.seed);
  const std::size_t parts = partition_count(k, n);
  result.parts = parts;
  EdgePartition partition = random_edge_partition(g, parts, rng);
  ctx.charge(1, "orient.edge_partition");

  // Parts run in parallel: each gets a sub-ledger; rounds merge as max.
  // Sub-contexts share the parent's engine so every Level-0 cluster this
  // pipeline spawns reuses one worker pool.
  std::vector<LayerAssignment> part_layering(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    mpc::RoundLedger sub_ledger(ctx.config());
    mpc::MpcContext sub_ctx(ctx.config(), &sub_ledger, ctx.ensure_engine());
    PipelineParams part_pipeline = params.pipeline;
    // Each part has arboricity O(log n) whp (Lemma 2.1).
    part_pipeline.k = std::max<std::size_t>(
        1, estimate_density_parameter(partition.parts[p]));
    CompleteLayeringResult layering =
        complete_layering(partition.parts[p], part_pipeline, sub_ctx);
    result.outdegree_bound += layering.outdegree_bound;
    result.stats.phases =
        std::max(result.stats.phases, layering.stats.phases);
    result.stats.partial_iterations = std::max(
        result.stats.partial_iterations, layering.stats.partial_iterations);
    result.stats.escalations += layering.stats.escalations;
    result.stats.fallback_peel_rounds = std::max(
        result.stats.fallback_peel_rounds,
        layering.stats.fallback_peel_rounds);
    part_layering[p] = std::move(layering.assignment);
    if (ctx.ledger()) ctx.ledger()->absorb_parallel(sub_ledger);
  }

  // Each edge by its own part's layering, with orient_by_layers' rule:
  // toward the higher layer, ties toward v (∞ = kInfiniteLayer is highest).
  const auto edges = g.edges();
  std::vector<bool> towards_v(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto& layering = part_layering[partition.part_of_edge[i]];
    towards_v[i] = layering.layer[edges[i].u] <= layering.layer[edges[i].v];
  }
  ctx.charge(1, "orient.finalize");
  result.orientation = graph::Orientation(g, std::move(towards_v));
  result.layering = std::move(part_layering[0]);
  return result;
}

}  // namespace arbor::core
