#include "core/orientation_mpc.hpp"

#include <algorithm>
#include <cmath>

#include "core/density_estimate.hpp"
#include "core/partitioning.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace arbor::core {

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
  const std::size_t k =
      resolve_density_parameter(g, params.k, ctx, "orient.estimate_k");

  MpcOrientationResult result{
      graph::Orientation(g, std::vector<bool>(g.num_edges(), true)),
      {}, 1, k, 0, {}};

  if (!needs_partition(k, n, params.high_k_factor)) {
    PipelineParams pipeline = params.pipeline;
    pipeline.k = k;
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

  // Out-degree bounds and escalations add across parts; the other stats
  // take the max.
  std::vector<LayerAssignment> part_layering(parts);
  run_parts_in_parallel(
      partition.parts, ctx,
      [&](std::size_t p, std::size_t part_k, mpc::MpcContext& part_ctx) {
        PipelineParams part_pipeline = params.pipeline;
        part_pipeline.k = part_k;
        CompleteLayeringResult layering =
            complete_layering(partition.parts[p], part_pipeline, part_ctx);
        result.outdegree_bound += layering.outdegree_bound;
        result.stats.phases =
            std::max(result.stats.phases, layering.stats.phases);
        result.stats.partial_iterations =
            std::max(result.stats.partial_iterations,
                     layering.stats.partial_iterations);
        result.stats.escalations += layering.stats.escalations;
        result.stats.fallback_peel_rounds =
            std::max(result.stats.fallback_peel_rounds,
                     layering.stats.fallback_peel_rounds);
        part_layering[p] = std::move(layering.assignment);
      });

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
