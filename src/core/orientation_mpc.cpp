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

  if (!needs_partition(k, n, params.high_k_factor)) {
    PipelineParams pipeline = params.pipeline;
    pipeline.k = k;
    CompleteLayeringResult layering = complete_layering(g, pipeline, ctx);
    graph::Orientation orientation =
        graph::orient_by_layers(g, layering.assignment.layer);
    ctx.charge(1, "orient.finalize");
    return {std::move(orientation), std::move(layering.assignment), 1, k,
            layering.outdegree_bound, layering.stats};
  }

  // ---- Lemma 2.1 path: random edge partition, per-part layering. ----
  util::SplitRng rng(params.seed);
  const std::size_t parts = partition_count(k, n);
  EdgePartition partition = random_edge_partition(g, parts, rng);
  ctx.charge(1, "orient.edge_partition");

  // Out-degree bounds and escalations add across parts; the other stats
  // take the max.
  std::size_t outdegree_bound = 0;
  LayeringRunStats stats;
  std::vector<LayerAssignment> part_layering(parts);
  run_parts_in_parallel(
      partition.parts, ctx,
      [&](std::size_t p, std::size_t part_k, mpc::MpcContext& part_ctx) {
        PipelineParams part_pipeline = params.pipeline;
        part_pipeline.k = part_k;
        CompleteLayeringResult layering =
            complete_layering(partition.parts[p], part_pipeline, part_ctx);
        outdegree_bound += layering.outdegree_bound;
        stats.phases = std::max(stats.phases, layering.stats.phases);
        stats.partial_iterations = std::max(
            stats.partial_iterations, layering.stats.partial_iterations);
        stats.escalations += layering.stats.escalations;
        stats.fallback_peel_rounds = std::max(
            stats.fallback_peel_rounds, layering.stats.fallback_peel_rounds);
        part_layering[p] = std::move(layering.assignment);
      });

  // Each edge by its own part's layering, with orient_by_layers' rule:
  // toward the higher layer, ties toward v (∞ = kInfiniteLayer is highest).
  graph::Orientation orientation = graph::Orientation::pack(
      g, [&](std::size_t i, const graph::Edge& e) {
        const std::vector<Layer>& layer =
            part_layering[partition.part_of_edge[i]].layer;
        return layer[e.u] <= layer[e.v];
      });
  ctx.charge(1, "orient.finalize");
  return {std::move(orientation), std::move(part_layering[0]), parts, k,
          outdegree_bound, stats};
}

}  // namespace arbor::core
