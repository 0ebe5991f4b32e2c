#include "core/coloring_mpc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "core/cone_gauge.hpp"
#include "core/density_estimate.hpp"
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
/// reused across layers and blocks. `targets` and `exclusions` are written
/// past their in-use length (slack), so their sizes are high-water marks.
struct DescentScratch {
  std::vector<graph::EdgeId> offsets;    // same-layer conflict CSR
  std::vector<graph::VertexId> targets;  // in layer-local ids
  std::vector<std::size_t> exclusion_offsets;  // higher-layer colours
  std::vector<graph::Color> exclusions;        // inside the palette range
  EpochMarks excluded;  // dedupes one vertex's exclusions
  local::ListColoringScratch coloring;  // palette masks, active list
  ConeGauge gauge;
};

struct LayerColoringOutcome {
  std::size_t local_rounds = 0;
  std::size_t words = 0;  // members plus their neighbour-list lengths
};

/// buffer.data() once buffer holds at least `size` elements.
template <typename T>
T* room_for(std::vector<T>& buffer, std::size_t size) {
  if (buffer.size() < size)
    buffer.resize(std::max(size, 2 * buffer.size()));
  return buffer.data();
}

/// Color layer j, ranks [lo, hi) of `order`, given the committed colors of
/// all strictly higher layers in `color_by_rank` (every lower rank is still
/// kUncolored). Palette: [palette_base, palette_base+C) minus higher-layer
/// neighbor colors. One pass over the members' neighbours, one rank lookup
/// each, lays out the same-layer conflict CSR (targets t − lo for
/// lo ≤ t < hi) and each member's distinct in-range higher-layer colours;
/// in a block, the same pass builds the members' rows of `gauge`'s open
/// block view (null in the tail). list_color then writes the layer's
/// colours straight into color_by_rank, its buffers in `scratch`.
LayerColoringOutcome color_one_layer(
    const graph::Graph& g, const LayerRankOrder& order, Layer j,
    graph::Color palette_base, std::size_t palette_count,
    std::span<const std::uint64_t> keys_by_rank,
    const util::StatelessCoin& coin, std::size_t trials,
    std::vector<graph::Color>& color_by_rank, DescentScratch& scratch,
    ConeGauge* gauge) {
  LayerColoringOutcome outcome;
  const graph::VertexId lo = order.start[j];
  const graph::VertexId hi = order.start[j + 1];
  if (lo == hi) return outcome;

  scratch.offsets.assign(1, 0);
  scratch.exclusion_offsets.assign(1, 0);
  scratch.excluded.grow_to(palette_count + 1);  // + mark_below's sink
  std::size_t num_targets = 0;
  std::size_t num_exclusions = 0;
  for (graph::VertexId r = lo; r < hi; ++r) {
    const auto neighbors = g.neighbors(order.vert[r]);
    outcome.words += 1 + neighbors.size();
    // Branch-free: every neighbour writes a slot in each output, and an
    // output advances only when it keeps the entry. Each has room for a
    // whole row.
    graph::VertexId* const targets =
        room_for(scratch.targets, num_targets + neighbors.size());
    graph::Color* const exclusions =
        room_for(scratch.exclusions, num_exclusions + neighbors.size());
    scratch.excluded.next_epoch();
    if (gauge != nullptr) gauge->open_row(lo, neighbors.size());
    for (graph::VertexId w : neighbors) {
      const graph::VertexId t = order.rank[w];
      targets[num_targets] = t - lo;
      num_targets += t - lo < hi - lo;
      // Only higher layers hold colours: kUncolored (every rank below hi)
      // lies past palette_count from palette_base, and so does a colour
      // below palette_base. Colours outside the palette cannot shrink it.
      const graph::Color c = color_by_rank[t];
      exclusions[num_exclusions] = c;
      num_exclusions += scratch.excluded.mark_below(c - palette_base,
                                                    palette_count);
      if (gauge != nullptr) gauge->forward(t);
    }
    scratch.offsets.push_back(num_targets);
    scratch.exclusion_offsets.push_back(num_exclusions);
    if (gauge != nullptr) gauge->end_row(r);
  }

  const local::ListColoringRun colored = local::list_color(
      {scratch.offsets, std::span(scratch.targets).first(num_targets)},
      keys_by_rank.subspan(lo, hi - lo),
      {palette_base, palette_count, scratch.exclusion_offsets,
       std::span(scratch.exclusions).first(num_exclusions)},
      coin, /*phase_tag=*/j, /*max_rounds=*/trials, scratch.coloring,
      std::span(color_by_rank).subspan(lo, hi - lo));
  ARBOR_CHECK_MSG(colored.complete,
                  "layer list-coloring did not converge — raise trials");
  outcome.local_rounds = colored.rounds;
  return outcome;
}

/// Color one low-arboricity (sub)graph. `global_keys[v]` gives the stable
/// coin identity of vertex v (original ids when g is an induced part).
/// Fills every field but `parts` and `k_used`.
MpcColoringResult color_single_part(const graph::Graph& g,
                                    const ColoringParams& params,
                                    std::size_t k, graph::Color palette_base,
                                    const std::vector<std::uint64_t>&
                                        global_keys,
                                    mpc::MpcContext& ctx) {
  MpcColoringResult result;
  const std::size_t n = g.num_vertices();
  if (n == 0) return result;

  // ---- Layering (Lemma 3.15). ----
  PipelineParams pipeline = params.pipeline;
  pipeline.k = k;
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

  // The whole descent runs in rank order (layer, then id): a layer and a
  // block are rank ranges, and coin keys and colours are stored by rank.
  const LayerRankOrder order = LayerRankOrder::of(layering.assignment);
  std::vector<std::uint64_t> keys_by_rank(n);
  for (graph::VertexId r = 0; r < n; ++r)
    keys_by_rank[r] = global_keys[order.vert[r]];
  std::vector<graph::Color> color_by_rank(n, kUncolored);

  util::SplitRng sample_rng(params.seed ^ 0x5a3b1e50ULL);
  DescentScratch scratch;

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

    // The block's layer passes, top-down, also lay out its gauge view.
    const graph::VertexId block_begin = order.start[j_lo];
    const graph::VertexId block_end = order.start[j + 1];
    scratch.gauge.begin_block(block_begin, block_end);
    std::size_t block_words = 0;
    std::size_t block_local_rounds = 0;
    for (Layer layer = j; layer >= j_lo && layer >= 1; --layer) {
      const LayerColoringOutcome outcome = color_one_layer(
          g, order, layer, palette_base, palette_count, keys_by_rank, coin,
          params.trials_per_layer, color_by_rank, scratch, &scratch.gauge);
      block_local_rounds += outcome.local_rounds;
      block_words += outcome.words;
    }
    result.local_rounds_replayed += block_local_rounds;

    // Gather cost: exponentiation along outgoing edges to reach radius R.
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
    // order on sample_rng as block-local ids (local id l is rank
    // block_begin + l) and gauged together, one bit lane each.
    const std::size_t block_size = block_end - block_begin;
    if (block_size != 0) {
      std::vector<graph::VertexId> starts(
          std::min(params.cone_sample, block_size));
      for (graph::VertexId& start : starts)
        start = static_cast<graph::VertexId>(
            sample_rng.next_below(block_size));
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
        g, order, layer, palette_base, palette_count, keys_by_rank, coin,
        params.trials_per_layer, color_by_rank, scratch, /*gauge=*/nullptr);
    result.tail_mpc_rounds += outcome.local_rounds;
    ctx.charge(outcome.local_rounds, "color.tail");
  }

  result.colors.resize(n);
  for (graph::VertexId r = 0; r < n; ++r) {
    ARBOR_CHECK(color_by_rank[r] != kUncolored);
    result.colors[order.vert[r]] = color_by_rank[r];
  }
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
  if (n == 0) return {};

  const std::size_t k =
      resolve_density_parameter(g, params.k, ctx, "color.estimate_k");

  if (!needs_partition(k, n, params.high_k_factor)) {
    std::vector<std::uint64_t> identity_keys(n);
    for (graph::VertexId v = 0; v < n; ++v) identity_keys[v] = v;
    MpcColoringResult result = color_single_part(
        g, params, k, /*palette_base=*/0, identity_keys, ctx);
    result.k_used = k;
    return result;
  }

  // ---- Lemma 2.2 path: vertex partition, disjoint palettes. ----
  MpcColoringResult result;
  result.colors.assign(n, kUncolored);
  result.k_used = k;
  util::SplitRng rng(params.seed);
  const std::size_t parts = partition_count(k, n);
  result.parts = parts;
  VertexPartition partition = random_vertex_partition(g, parts, rng);
  ctx.charge(1, "color.vertex_partition");

  // Each part's palette starts where the previous one ends; its colors map
  // back through to_original, and the stats take the max over parts.
  run_parts_in_parallel(
      partition.parts, ctx,
      [&](std::size_t p, std::size_t part_k, mpc::MpcContext& part_ctx) {
        const std::vector<graph::VertexId>& to_original =
            partition.to_original[p];
        const std::vector<std::uint64_t> part_keys(to_original.begin(),
                                                   to_original.end());
        const MpcColoringResult part = color_single_part(
            partition.parts[p], params, part_k,
            static_cast<graph::Color>(result.palette_size), part_keys,
            part_ctx);
        for (std::size_t sv = 0; sv < to_original.size(); ++sv)
          result.colors[to_original[sv]] = part.colors[sv];
        result.palette_size += part.palette_size;
        result.layering_outdegree =
            std::max(result.layering_outdegree, part.layering_outdegree);
        result.blocks = std::max(result.blocks, part.blocks);
        result.local_rounds_replayed = std::max(
            result.local_rounds_replayed, part.local_rounds_replayed);
        result.tail_mpc_rounds =
            std::max(result.tail_mpc_rounds, part.tail_mpc_rounds);
        result.max_sampled_cone_nodes = std::max(
            result.max_sampled_cone_nodes, part.max_sampled_cone_nodes);
      });

  for (graph::Color c : result.colors) ARBOR_CHECK(c != kUncolored);
  return result;
}

}  // namespace arbor::core
