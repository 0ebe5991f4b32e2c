#include "core/coloring_mpc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/density_estimate.hpp"
#include "core/orientation_mpc.hpp"
#include "core/partitioning.hpp"
#include "local/list_coloring.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace arbor::core {

namespace {

constexpr graph::Color kUncolored = 0xffffffffu;

/// Membership marks over [0, size) that clear in O(1): a slot is marked
/// when it holds the current epoch, so `next_epoch()` unmarks everything.
class EpochMarks {
 public:
  /// Grows to at least `size` slots; new slots start unmarked.
  void grow_to(std::size_t size) {
    if (stamps_.size() < size) stamps_.resize(size, 0);
  }

  void next_epoch() {
    // After 2^32 epochs the counter wraps to 0, the value every fresh slot
    // holds, and stale stamps from old epochs would read as marked. Zero
    // the stamps and restart at epoch 1.
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  bool marked(std::size_t i) const noexcept { return stamps_[i] == epoch_; }

  /// Marks slot i; true when it was not yet marked this epoch.
  bool mark(std::size_t i) noexcept {
    if (stamps_[i] == epoch_) return false;
    stamps_[i] = epoch_;
    return true;
  }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 0;  // 0 is never current: call next_epoch() first
};

/// The cone gauge of one block of layers. `build` lays out a forward view
/// over the block's members in block-local ids (local id i is members[i]):
/// for each member v, its neighbours w with layer[v] ≤ layer[w] ≤ block_hi,
/// in neighbour order, plus the number of v's neighbours above block_hi.
/// Sampled cones then walk the view with no layer lookups; the scratch is
/// reused across samples and blocks.
class ConeGauge {
 public:
  explicit ConeGauge(std::size_t n) : local_id_(n) {}

  void build(const graph::Graph& g, const std::vector<Layer>& layer,
             const std::vector<graph::VertexId>& members, Layer block_hi) {
    for (std::size_t i = 0; i < members.size(); ++i)
      local_id_[members[i]] = static_cast<graph::VertexId>(i);
    offsets_.assign(1, 0);
    targets_.clear();
    above_.assign(members.size(), 0);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const Layer lv = layer[members[i]];
      for (graph::VertexId w : g.neighbors(members[i])) {
        const Layer lw = layer[w];
        if (lw < lv) continue;  // influence flows along non-decreasing layers
        if (lw > block_hi) {
          ++above_[i];
        } else {
          targets_.push_back(local_id_[w]);  // lv ≤ lw ≤ block_hi: a member
        }
      }
      offsets_.push_back(targets_.size());
    }
    seen_.grow_to(members.size());
  }

  /// Size (in tree-of-influence nodes) of the cone of local vertex `start`:
  /// block vertices reachable along paths whose layers never decrease, up to
  /// `radius` hops, plus one word per edge from an expanded vertex to a
  /// layer above the block (their colors are inputs to the replay).
  std::size_t cone_size(graph::VertexId start, std::size_t radius) {
    seen_.next_epoch();
    seen_.mark(start);
    queue_.assign(1, start);
    std::size_t boundary = 0;
    // The FIFO holds whole BFS levels back to back; [head, level_end) is
    // the level `dist` hops out, expanded while dist < radius.
    std::size_t head = 0;
    for (std::size_t dist = 0; dist < radius && head < queue_.size();
         ++dist) {
      const std::size_t level_end = queue_.size();
      for (; head < level_end; ++head) {
        const graph::VertexId v = queue_[head];
        boundary += above_[v];
        for (std::size_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
          const graph::VertexId w = targets_[e];
          if (seen_.mark(w)) queue_.push_back(w);
        }
      }
    }
    return queue_.size() + boundary;
  }

 private:
  std::vector<graph::VertexId> local_id_;  // parent id -> block-local id
  std::vector<std::size_t> offsets_;       // forward CSR over local ids
  std::vector<graph::VertexId> targets_;
  std::vector<std::size_t> above_;  // neighbours above block_hi
  EpochMarks seen_;
  std::vector<graph::VertexId> queue_;  // BFS FIFO, one level after another
};

struct LayerColoringOutcome {
  std::size_t local_rounds = 0;
};

/// Color the vertices of one layer given the committed colors of all
/// strictly higher layers. Palette: [palette_base, palette_base+C) minus
/// higher-layer neighbor colors. Writes into `colors`. `forbidden` is
/// scratch reused across layers.
LayerColoringOutcome color_one_layer(
    const graph::Graph& g, const LayerAssignment& layering, Layer j,
    const std::vector<graph::VertexId>& members, graph::Color palette_base,
    std::size_t palette_count, const std::vector<std::uint64_t>& global_keys,
    const util::StatelessCoin& coin, std::size_t trials,
    std::vector<graph::Color>& colors, EpochMarks& forbidden) {
  LayerColoringOutcome outcome;
  if (members.empty()) return outcome;

  const auto sub = g.induced(members);
  std::vector<std::vector<graph::Color>> palettes(members.size());
  std::vector<std::uint64_t> keys(members.size());
  forbidden.grow_to(palette_count);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const graph::VertexId v = sub.to_original[i];
    keys[i] = global_keys[v];
    forbidden.next_epoch();
    for (graph::VertexId w : g.neighbors(v)) {
      if (layering.layer[w] <= j || colors[w] == kUncolored) continue;
      // A color below palette_base wraps past palette_count; colors outside
      // the palette cannot shrink it.
      const graph::Color offset = colors[w] - palette_base;
      if (offset < palette_count) forbidden.mark(offset);
    }
    palettes[i].reserve(palette_count);
    for (std::size_t c = 0; c < palette_count; ++c) {
      if (!forbidden.marked(c))
        palettes[i].push_back(static_cast<graph::Color>(palette_base + c));
    }
  }

  const local::ListColoringResult colored = local::list_color(
      sub.graph, keys, palettes, coin, /*phase_tag=*/j, /*max_rounds=*/trials);
  ARBOR_CHECK_MSG(colored.complete,
                  "layer list-coloring did not converge — raise trials");
  for (std::size_t i = 0; i < members.size(); ++i)
    colors[sub.to_original[i]] = colored.colors[i];
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

  const auto palette_count = static_cast<std::size_t>(
      std::ceil(params.palette_factor * static_cast<double>(d)));
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
  ConeGauge gauge(n);
  EpochMarks forbidden;

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
          result.colors, forbidden);
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

    // Cone gauge on a sample of block vertices.
    if (!block_members.empty()) {
      gauge.build(g, layering.assignment.layer, block_members, j);
      const std::size_t samples =
          std::min(params.cone_sample, block_members.size());
      for (std::size_t i = 0; i < samples; ++i) {
        // The gauge's local id l is block_members[l].
        const auto local = static_cast<graph::VertexId>(
            sample_rng.next_below(block_members.size()));
        const std::size_t cone = gauge.cone_size(local, radius);
        result.max_sampled_cone_nodes =
            std::max(result.max_sampled_cone_nodes, cone);
      }
      ctx.note_local_words(result.max_sampled_cone_nodes);
    }

    j = j_lo - 1;
  }

  // ---- Tail: direct LOCAL simulation, one MPC round per LOCAL round. ----
  for (Layer layer = j; layer >= 1; --layer) {
    const LayerColoringOutcome outcome = color_one_layer(
        g, layering.assignment, layer, layer_members[layer], palette_base,
        palette_count, global_keys, coin, params.trials_per_layer,
        result.colors, forbidden);
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
