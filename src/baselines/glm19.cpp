#include "baselines/glm19.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_set>

#include "core/orientation_mpc.hpp"
#include "local/peeling.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace arbor::baselines {

namespace {

/// Size of v's T'-hop neighborhood restricted to vertices below `cap`
/// residual degree (the sparsified subgraph a phase gathers).
std::size_t sparsified_ball_size(const graph::Graph& g,
                                 const local::ThresholdPeel& peel,
                                 graph::VertexId start, std::size_t cap,
                                 std::size_t hops) {
  std::unordered_set<graph::VertexId> seen{start};
  std::deque<std::pair<graph::VertexId, std::size_t>> queue{{start, 0}};
  while (!queue.empty()) {
    const auto [v, dist] = queue.front();
    queue.pop_front();
    if (dist == hops) continue;
    for (graph::VertexId w : g.neighbors(v)) {
      if (peel.residual_degree(w) > cap) continue;  // peeled or too dense
      if (seen.insert(w).second) queue.emplace_back(w, dist + 1);
    }
  }
  return seen.size();
}

}  // namespace

Glm19Result glm19_orient(const graph::Graph& g, std::size_t k, double epsilon,
                         mpc::MpcContext& ctx) {
  if (k == 0) k = core::estimate_density_parameter(g);
  const std::size_t n = g.num_vertices();
  const std::size_t threshold = local::be08_threshold(k, epsilon);

  const double log_n =
      std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
  const auto phase_length = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(std::sqrt(log_n))));

  // Everything but the orientation, which the finalize builds last.
  core::LayerAssignment layering;
  std::size_t mpc_rounds = 0;
  std::size_t phases = 0;
  std::size_t local_rounds = 0;
  std::size_t max_sampled_neighborhood = 0;

  local::ThresholdPeel peel(g);
  layering.layer.assign(n, core::kInfiniteLayer);
  std::uint32_t round = 0;
  util::SplitRng rng(0x61a19ULL);

  // Neighborhoods gathered in a phase live in the degree ≤ threshold·2^{T'}
  // sparsified subgraph. Capped at the max degree, the cap selects the same
  // live vertices and no parked one.
  const double cap_raw = static_cast<double>(threshold) *
                         std::pow(2.0, static_cast<double>(phase_length));
  const auto degree_cap = static_cast<std::size_t>(
      std::min(cap_raw, static_cast<double>(g.max_degree())));

  while (peel.remaining() > 0) {
    ++phases;

    // Memory gauge: sample a few low-degree vertices' balls before running
    // the phase (what one machine would gather).
    std::vector<graph::VertexId> low;
    for (graph::VertexId v = 0; v < n && low.size() < 4096; ++v)
      if (peel.residual_degree(v) <= degree_cap) low.push_back(v);
    for (std::size_t i = 0; i < std::min<std::size_t>(16, low.size()); ++i) {
      const graph::VertexId v =
          low[static_cast<std::size_t>(rng.next_below(low.size()))];
      max_sampled_neighborhood = std::max(
          max_sampled_neighborhood,
          sparsified_ball_size(g, peel, v, degree_cap, phase_length));
    }

    // Simulate T' peel rounds locally (after one gather).
    bool progressed = false;
    for (std::size_t t = 0; t < phase_length && peel.remaining() > 0; ++t) {
      ++round;
      ++local_rounds;
      const auto peeled = peel.round(threshold);
      if (peeled.empty()) break;
      progressed = true;
      for (graph::VertexId v : peeled) layering.layer[v] = round;
    }
    ARBOR_CHECK_MSG(progressed,
                    "GLM19 peeling stalled: threshold below arboricity?");

    // Phase cost: gather T'-hop neighborhoods by exponentiation —
    // ⌈log2(T'+1)⌉ doubling rounds.
    const auto gather_rounds = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               std::log2(static_cast<double>(phase_length + 1)))));
    ctx.charge(gather_rounds, "glm19.phase_gather");
    mpc_rounds += gather_rounds;
  }

  ctx.note_balanced(2 * g.num_edges() + n);

  layering.num_layers = round;
  graph::Orientation orientation = graph::orient_by_layers(g, layering.layer);
  ctx.charge(1, "glm19.finalize");
  return {std::move(orientation), std::move(layering), mpc_rounds + 1,
          phases, phase_length, local_rounds, max_sampled_neighborhood};
}

}  // namespace arbor::baselines
