#include "core/coloring_mpc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/cone_gauge.hpp"
#include "core/density_estimate.hpp"
#include "core/orientation_mpc.hpp"
#include "core/partitioning.hpp"
#include "local/list_coloring.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/epoch_marks.hpp"
#include "util/rng.hpp"

namespace arbor::core {

namespace {

constexpr graph::Color kUncolored = 0xffffffffu;

using util::EpochMarks;

/// Scratch of one colour descent, owned by its color_single_part call and
/// reused across layers and blocks.
struct DescentScratch {
  explicit DescentScratch(std::size_t n) : local_id(n) {}

  /// parent id -> id in the current layer (or block, for the gauge)
  std::vector<graph::VertexId> local_id;
  std::vector<std::uint64_t> keys;       // coin keys in layer-local ids
  std::vector<graph::EdgeId> offsets;    // same-layer conflict CSR
  std::vector<graph::VertexId> targets;
  std::vector<std::size_t> exclusion_offsets;  // higher-layer colours
  std::vector<graph::Color> exclusions;        // inside the palette range
  EpochMarks excluded;  // dedupes one vertex's exclusions
  ConeGauge gauge;
};

struct LayerColoringOutcome {
  std::size_t local_rounds = 0;
};

/// Color the vertices of one layer given the committed colors of all
/// strictly higher layers. Palette: [palette_base, palette_base+C) minus
/// higher-layer neighbor colors. One pass over the members' neighbours
/// lays out the same-layer conflict CSR and each member's distinct
/// in-range higher-layer colours; writes into `colors`.
LayerColoringOutcome color_one_layer(
    const graph::Graph& g, const LayerAssignment& layering, Layer j,
    const std::vector<graph::VertexId>& members, graph::Color palette_base,
    std::size_t palette_count, const std::vector<std::uint64_t>& global_keys,
    const util::StatelessCoin& coin, std::size_t trials,
    std::vector<graph::Color>& colors, DescentScratch& scratch) {
  LayerColoringOutcome outcome;
  if (members.empty()) return outcome;

  for (std::size_t i = 0; i < members.size(); ++i)
    scratch.local_id[members[i]] = static_cast<graph::VertexId>(i);
  scratch.keys.resize(members.size());
  scratch.offsets.assign(1, 0);
  scratch.targets.clear();
  scratch.exclusion_offsets.assign(1, 0);
  scratch.exclusions.clear();
  scratch.excluded.grow_to(palette_count);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const graph::VertexId v = members[i];
    scratch.keys[i] = global_keys[v];
    scratch.excluded.next_epoch();
    for (graph::VertexId w : g.neighbors(v)) {
      const Layer lw = layering.layer[w];
      if (lw == j) {
        scratch.targets.push_back(scratch.local_id[w]);
      } else if (lw > j && colors[w] != kUncolored) {
        // A color below palette_base wraps past palette_count; colors
        // outside the palette cannot shrink it.
        const graph::Color offset = colors[w] - palette_base;
        if (offset < palette_count && scratch.excluded.mark(offset))
          scratch.exclusions.push_back(colors[w]);
      }
    }
    scratch.offsets.push_back(scratch.targets.size());
    scratch.exclusion_offsets.push_back(scratch.exclusions.size());
  }

  const local::ListColoringResult colored = local::list_color(
      {scratch.offsets, scratch.targets}, scratch.keys,
      {palette_base, palette_count, scratch.exclusion_offsets,
       scratch.exclusions},
      coin, /*phase_tag=*/j, /*max_rounds=*/trials);
  ARBOR_CHECK_MSG(colored.complete,
                  "layer list-coloring did not converge — raise trials");
  for (std::size_t i = 0; i < members.size(); ++i)
    colors[members[i]] = colored.colors[i];
  outcome.local_rounds = colored.rounds;
  return outcome;
}

struct SinglePartResult {
  std::vector<graph::Color> colors;
  std::size_t palette_size = 0;
  std::size_t layering_outdegree = 0;
  std::size_t blocks = 0;
  std::size_t local_rounds_replayed = 0;
  std::size_t tail_mpc_rounds = 0;
  std::size_t max_sampled_cone_nodes = 0;
};

/// Color one low-arboricity (sub)graph. `global_keys[v]` gives the stable
/// coin identity of vertex v (original ids when g is an induced part).
SinglePartResult color_single_part(const graph::Graph& g,
                                   const ColoringParams& params,
                                   std::size_t k, graph::Color palette_base,
                                   const std::vector<std::uint64_t>&
                                       global_keys,
                                   mpc::MpcContext& ctx) {
  SinglePartResult result;
  const std::size_t n = g.num_vertices();
  result.colors.assign(n, kUncolored);
  if (n == 0) return result;

  // ---- Layering (Lemma 3.15). ----
  PipelineParams pipeline = params.pipeline;
  pipeline.k = std::max<std::size_t>(k, 1);
  const CompleteLayeringResult layering = complete_layering(g, pipeline, ctx);
  const std::size_t d = std::max<std::size_t>(
      1, assignment_outdegree(g, layering.assignment));
  ctx.charge(1, "color.measure_d");  // one aggregate to publish d
  result.layering_outdegree = d;

  const double palette = std::ceil(params.palette_factor *
                                   static_cast<double>(d));
  ARBOR_CHECK_MSG(palette < static_cast<double>(kUncolored - palette_base),
                  "ColoringParams.palette_factor: a palette of ⌈f·d⌉ colors "
                  "overflows the color range");
  const auto palette_count = static_cast<std::size_t>(palette);
  result.palette_size = palette_count;

  const util::StatelessCoin coin(params.seed);
  const Layer top = layering.assignment.num_layers;

  // Bucket vertices by layer once; layers are complete, so every vertex
  // lands in [1, top].
  std::vector<std::vector<graph::VertexId>> layer_members(top + 1);
  for (graph::VertexId v = 0; v < n; ++v) {
    const Layer lv = layering.assignment.layer[v];
    ARBOR_CHECK(lv >= 1 && lv <= top);
    layer_members[lv].push_back(v);
  }

  util::SplitRng sample_rng(params.seed ^ 0x5a3b1e50ULL);
  DescentScratch scratch(n);

  // ---- Blocked descent with directed exponentiation. ----
  Layer j = top;
  while (j > params.tail_threshold) {
    const auto width = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(
               params.block_fraction * static_cast<double>(j))));
    const Layer j_lo = static_cast<Layer>(
        std::max<std::size_t>(params.tail_threshold + 1,
                              j >= width ? j - width + 1 : 1));
    ++result.blocks;

    // Gather cost: exponentiation along outgoing edges to reach radius R.
    std::vector<graph::VertexId> block_members;
    std::size_t block_words = 0;
    for (Layer layer = j_lo; layer <= j; ++layer) {
      for (graph::VertexId v : layer_members[layer]) {
        block_members.push_back(v);
        block_words += 1 + g.degree(v);
      }
    }
    std::size_t block_local_rounds = 0;
    for (Layer layer = j; layer >= j_lo && layer >= 1; --layer) {
      const LayerColoringOutcome outcome = color_one_layer(
          g, layering.assignment, layer, layer_members[layer], palette_base,
          palette_count, global_keys, coin, params.trials_per_layer,
          result.colors, scratch);
      block_local_rounds += outcome.local_rounds;
    }
    result.local_rounds_replayed += block_local_rounds;

    // Influence radius actually realized by the replay: every LOCAL round
    // propagates one hop, plus one hop per layer hand-off.
    const std::size_t radius =
        block_local_rounds + (j - j_lo + 1);
    const std::size_t per_fetch =
        2 * ctx.sort_rounds(std::max<std::size_t>(block_words, 2)) + 1;
    const auto doublings = static_cast<std::size_t>(
        std::ceil(std::log2(static_cast<double>(radius) + 1.0)));
    ctx.charge(std::max<std::size_t>(1, doublings) * per_fetch,
               "color.block_gather");

    // Cone gauge on a sample of block vertices: the starts are drawn in
    // order on sample_rng as block-local ids (local id l is
    // block_members[l]) and gauged together, one bit lane each.
    if (!block_members.empty()) {
      scratch.gauge.build(g, layering.assignment.layer, block_members, j,
                          scratch.local_id);
      std::vector<graph::VertexId> starts(
          std::min(params.cone_sample, block_members.size()));
      for (graph::VertexId& start : starts)
        start = static_cast<graph::VertexId>(
            sample_rng.next_below(block_members.size()));
      for (std::size_t cone : scratch.gauge.cone_sizes(starts, radius))
        result.max_sampled_cone_nodes =
            std::max(result.max_sampled_cone_nodes, cone);
      ctx.note_local_words(result.max_sampled_cone_nodes);
    }

    j = j_lo - 1;
  }

  // ---- Tail: direct LOCAL simulation, one MPC round per LOCAL round. ----
  for (Layer layer = j; layer >= 1; --layer) {
    const LayerColoringOutcome outcome = color_one_layer(
        g, layering.assignment, layer, layer_members[layer], palette_base,
        palette_count, global_keys, coin, params.trials_per_layer,
        result.colors, scratch);
    result.tail_mpc_rounds += outcome.local_rounds;
    ctx.charge(outcome.local_rounds, "color.tail");
  }

  for (graph::Color c : result.colors) ARBOR_CHECK(c != kUncolored);
  return result;
}

}  // namespace

MpcColoringResult mpc_color(const graph::Graph& g,
                            const ColoringParams& params,
                            mpc::MpcContext& ctx) {
  // Hostile factors are rejected by name: a negative or NaN factor would
  // otherwise be cast to size_t or silently compare false.
  ARBOR_CHECK_MSG(std::isfinite(params.palette_factor) &&
                      params.palette_factor > 0.0,
                  "ColoringParams.palette_factor must be finite and > 0");
  ARBOR_CHECK_MSG(std::isfinite(params.block_fraction) &&
                      params.block_fraction >= 0.0 &&
                      params.block_fraction <= 1.0,
                  "ColoringParams.block_fraction must be finite in [0, 1]");
  ARBOR_CHECK_MSG(std::isfinite(params.high_k_factor) &&
                      params.high_k_factor >= 0.0,
                  "ColoringParams.high_k_factor must be finite and >= 0");
  trace::Span stage_span = trace::Tracer::global().span("mpc", "coloring");
  const std::size_t n = g.num_vertices();
  MpcColoringResult result;
  result.colors.assign(n, kUncolored);
  if (n == 0) return result;

  std::size_t k = params.k;
  if (k == 0) {
    if (params.estimator == KEstimator::kParallelGuess) {
      k = estimate_density_mpc(g, ctx).k;
    } else {
      k = estimate_density_parameter(g);
      const auto log_n = static_cast<std::size_t>(std::ceil(
          std::log2(static_cast<double>(std::max<std::size_t>(n, 2)))));
      ctx.charge(1, "color.estimate_k");
      ctx.note_global_words((n + g.num_edges()) * log_n);
    }
  }
  result.k_used = k;

  std::vector<std::uint64_t> identity_keys(n);
  for (graph::VertexId v = 0; v < n; ++v) identity_keys[v] = v;

  const double log_n =
      std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
  const bool needs_partition =
      static_cast<double>(k) > params.high_k_factor * log_n;

  if (!needs_partition) {
    SinglePartResult part = color_single_part(g, params, k,
                                              /*palette_base=*/0,
                                              identity_keys, ctx);
    result.colors = std::move(part.colors);
    result.palette_size = part.palette_size;
    result.layering_outdegree = part.layering_outdegree;
    result.blocks = part.blocks;
    result.local_rounds_replayed = part.local_rounds_replayed;
    result.tail_mpc_rounds = part.tail_mpc_rounds;
    result.max_sampled_cone_nodes = part.max_sampled_cone_nodes;
    return result;
  }

  // ---- Lemma 2.2 path: vertex partition, disjoint palettes. ----
  util::SplitRng rng(params.seed);
  const std::size_t parts = partition_count(k, n);
  result.parts = parts;
  VertexPartition partition = random_vertex_partition(g, parts, rng);
  ctx.charge(1, "color.vertex_partition");

  graph::Color palette_base = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const graph::Graph& part_graph = partition.parts[p];
    mpc::RoundLedger sub_ledger(ctx.config());
    // Shares the parent's worker pool (one engine per pipeline run).
    mpc::MpcContext sub_ctx(ctx.config(), &sub_ledger, ctx.ensure_engine());
    std::vector<std::uint64_t> part_keys(part_graph.num_vertices());
    for (graph::VertexId sv = 0; sv < part_graph.num_vertices(); ++sv)
      part_keys[sv] = partition.to_original[p][sv];
    const std::size_t part_k = std::max<std::size_t>(
        1, estimate_density_parameter(part_graph));
    SinglePartResult part = color_single_part(part_graph, params, part_k,
                                              palette_base, part_keys,
                                              sub_ctx);
    for (graph::VertexId sv = 0; sv < part_graph.num_vertices(); ++sv)
      result.colors[partition.to_original[p][sv]] = part.colors[sv];
    palette_base += static_cast<graph::Color>(part.palette_size);
    result.layering_outdegree =
        std::max(result.layering_outdegree, part.layering_outdegree);
    result.blocks = std::max(result.blocks, part.blocks);
    result.local_rounds_replayed =
        std::max(result.local_rounds_replayed, part.local_rounds_replayed);
    result.tail_mpc_rounds =
        std::max(result.tail_mpc_rounds, part.tail_mpc_rounds);
    result.max_sampled_cone_nodes =
        std::max(result.max_sampled_cone_nodes, part.max_sampled_cone_nodes);
    if (ctx.ledger()) ctx.ledger()->absorb_parallel(sub_ledger);
  }
  result.palette_size = palette_base;

  for (graph::Color c : result.colors) ARBOR_CHECK(c != kUncolored);
  return result;
}

}  // namespace arbor::core
