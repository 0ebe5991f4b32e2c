#include "core/layering_pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "local/peeling.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace arbor::core {

namespace {

double log2_safe(double x) { return std::log2(std::max(x, 2.0)); }

/// Overflow-safe integer power with saturation at `cap`.
std::size_t pow_clamped(std::size_t base, double exponent, std::size_t cap) {
  const double value =
      std::pow(static_cast<double>(std::max<std::size_t>(base, 2)), exponent);
  if (!(value < static_cast<double>(cap))) return cap;
  return static_cast<std::size_t>(value);
}

}  // namespace

PipelineParams PipelineParams::practical(std::size_t k) {
  PipelineParams p;
  p.k = std::max<std::size_t>(k, 1);
  return p;
}

PipelineParams PipelineParams::paper(std::size_t k) {
  PipelineParams p;
  p.k = std::max<std::size_t>(k, 1);
  p.budget_exponent = 100.0;
  p.layer_fraction = 0.1;
  p.steps_loglog_factor = 10.0;
  p.peel_rounds_factor = 100.0;
  p.boost_exponent = 100.0;
  return p;
}

void PipelineParams::validate() const {
  // Each of these is cast to an integer somewhere below; a NaN, infinite or
  // negative value would make that cast undefined. Too large a finite
  // value is caught where its count is derived.
  const auto check = [](double value, const char* message) {
    ARBOR_CHECK_MSG(std::isfinite(value) && value >= 0.0, message);
  };
  check(budget_exponent,
        "PipelineParams.budget_exponent must be finite and >= 0");
  check(layer_fraction, "PipelineParams.layer_fraction must be finite and >= 0");
  check(steps_loglog_factor,
        "PipelineParams.steps_loglog_factor must be finite and >= 0");
  check(peel_rounds_factor,
        "PipelineParams.peel_rounds_factor must be finite and >= 0");
  check(boost_exponent, "PipelineParams.boost_exponent must be finite and >= 0");
}

std::size_t PipelineParams::derive_budget(
    std::size_t words_per_machine) const {
  validate();
  const std::size_t cap =
      budget_cap != 0 ? budget_cap
                      : std::max<std::size_t>(words_per_machine, min_budget);
  const std::size_t raw = pow_clamped(k, budget_exponent, cap);
  return std::clamp(raw, std::min(min_budget, cap), cap);
}

Layer PipelineParams::derive_layers(std::size_t budget) const {
  validate();
  const double base = static_cast<double>(std::max<std::size_t>(k, 2));
  const double l =
      layer_fraction * std::log(static_cast<double>(std::max<std::size_t>(
                           budget, 2))) /
      std::log(base);
  ARBOR_CHECK_MSG(std::ceil(l) < static_cast<double>(kInfiniteLayer),
                  "PipelineParams.layer_fraction gives L >= 2^32 - 1 layers");
  return std::max<Layer>(1, static_cast<Layer>(std::ceil(l)));
}

std::size_t PipelineParams::derive_steps(std::size_t n, Layer layers) const {
  validate();
  // Lemma 3.7 requires s > log2 L; the paper sets s = ⌈10·log log n⌉.
  const double loglog = std::ceil(
      steps_loglog_factor *
      log2_safe(log2_safe(static_cast<double>(std::max<std::size_t>(n, 4)))));
  ARBOR_CHECK_MSG(loglog < 64.0,
                  "PipelineParams.steps_loglog_factor gives s >= 64 steps");
  const auto from_loglog = static_cast<std::size_t>(loglog);
  const auto from_layers = static_cast<std::size_t>(
      std::floor(std::log2(static_cast<double>(std::max<Layer>(layers, 1))))) +
                           1;
  return std::max({from_loglog, from_layers, std::size_t{2}});
}

std::size_t PipelineParams::derive_peel_rounds() const {
  validate();
  const double rounds = std::ceil(
      peel_rounds_factor * std::log2(static_cast<double>(k + 1) + 1.0));
  ARBOR_CHECK_MSG(rounds < 0x1p63,
                  "PipelineParams.peel_rounds_factor gives >= 2^63 Stage-1 "
                  "rounds");
  return static_cast<std::size_t>(rounds);
}

PartialLayeringResult run_partial_once(const graph::Graph& g,
                                       const PipelineParams& p,
                                       std::size_t budget,
                                       mpc::MpcContext& ctx,
                                       PartialLayeringScratch* scratch) {
  p.validate();
  PartialLayeringParams params;
  params.budget = std::max<std::size_t>(budget, 4);
  params.prune_k = std::max<std::size_t>(p.k, 1);
  params.num_layers = p.derive_layers(params.budget);
  params.steps = p.derive_steps(g.num_vertices(), params.num_layers);
  return partial_layer_assignment(g, params, ctx, scratch);
}

PartialPipelineResult run_partial_iterated(const graph::Graph& g,
                                           const PipelineParams& p,
                                           std::size_t budget,
                                           mpc::MpcContext& ctx,
                                           PartialLayeringScratch* scratch) {
  p.validate();
  PartialLayeringScratch own;
  PartialLayeringScratch& work = scratch != nullptr ? *scratch : own;
  trace::Span stage_span =
      trace::Tracer::global().span("mpc", "layering.partial_iterated");
  const std::size_t n = g.num_vertices();
  PartialPipelineResult result;
  result.assignment.layer.assign(n, kInfiniteLayer);
  result.assignment.num_layers = 0;

  // Unassigned residue, as original vertex ids (ascending). The first
  // iteration's residue is every vertex: it runs on `g` itself, later ones
  // on the subgraph the residue induces.
  std::vector<graph::VertexId> residue(n);
  for (graph::VertexId v = 0; v < n; ++v) residue[v] = v;
  graph::InducedSubgraph sub;

  Layer offset = 0;
  PipelineParams current = p;
  for (std::size_t iter = 0; iter < p.max_phases && !residue.empty();
       ++iter) {
    ++result.stats.partial_iterations;
    if (iter > 0) sub = g.induced(residue);
    const graph::Graph& h = iter > 0 ? sub.graph : g;
    const PartialLayeringResult partial =
        run_partial_once(h, current, budget, ctx, &work);
    result.outdegree_bound =
        std::max(result.outdegree_bound, partial.outdegree_bound);

    std::vector<graph::VertexId> next_residue;
    for (graph::VertexId sv = 0; sv < h.num_vertices(); ++sv) {
      const Layer l = partial.assignment.layer[sv];
      if (l == kInfiniteLayer)
        next_residue.push_back(residue[sv]);
      else
        result.assignment.layer[residue[sv]] = offset + l;
    }
    offset += partial.assignment.num_layers;

    if (next_residue.size() == residue.size()) {
      // Stall: no vertex assigned. Escalate (the termination fallback of
      // layering_pipeline.hpp): double the pruning parameter first; if the
      // subgraph's min degree still beats the budget, the caller's fallback
      // peeling will clear it.
      ++result.stats.escalations;
      current.k = std::max<std::size_t>(current.k * 2, current.k + 1);
    }
    residue = std::move(next_residue);
  }

  result.assignment.num_layers = offset;
  return result;
}

CompleteLayeringResult complete_layering(const graph::Graph& g,
                                         const PipelineParams& p,
                                         mpc::MpcContext& ctx) {
  p.validate();
  const std::size_t n = g.num_vertices();
  CompleteLayeringResult result;
  result.assignment.layer.assign(n, kInfiniteLayer);
  result.assignment.num_layers = 0;

  Layer offset = 0;
  // A vertex is assigned iff its layer is finite; it is then parked here.
  local::ThresholdPeel peel(g);

  // One synchronous threshold-peel round over the unassigned residue:
  // assigns layer `offset+1` to all residue vertices of residual degree
  // ≤ threshold. Charged as one MPC round (it is one LOCAL round simulated
  // directly). Returns the number of vertices assigned.
  const auto peel_round = [&](std::size_t threshold) -> std::size_t {
    const auto peeled = peel.round(threshold);
    if (peeled.empty()) return 0;
    ++offset;
    for (graph::VertexId v : peeled) result.assignment.layer[v] = offset;
    ctx.charge(1, "layering.peel");
    return peeled.size();
  };

  const std::size_t budget_cap =
      p.budget_cap != 0
          ? p.budget_cap
          : std::max<std::size_t>(ctx.config().words_per_machine,
                                  p.min_budget);
  // Every phase derives L from a budget of at most max(cap, 4) and s from
  // at most n vertices, and both grow with their input: deriving them here
  // rejects, before any round runs, a field that would overflow in some
  // phase.
  (void)p.derive_steps(
      n, p.derive_layers(std::max<std::size_t>(budget_cap, 4)));

  // ---- Stage 1: initial peeling, ⌈f·log2(k+2)⌉ rounds at threshold k. ----
  const std::size_t stage1_rounds = p.derive_peel_rounds();
  for (std::size_t r = 0; r < stage1_rounds && peel.remaining() > 0; ++r) {
    ++result.stats.fallback_peel_rounds;  // Stage-1 peels counted here too
    peel_round(p.k);
  }

  // ---- Stage 2: Lemma 3.14 phases with budget boosting. ----
  std::size_t budget = p.derive_budget(ctx.config().words_per_machine);
  PartialLayeringScratch scratch;  // both forests, kept across phases
  std::size_t peel_threshold = std::max<std::size_t>(p.k, 1);

  for (std::size_t phase = 0; phase < p.max_phases && peel.remaining() > 0;
       ++phase) {
    ++result.stats.phases;
    result.stats.max_budget_used = std::max(result.stats.max_budget_used,
                                            budget);

    std::vector<graph::VertexId> residue;
    residue.reserve(peel.remaining());
    for (graph::VertexId v = 0; v < n; ++v)
      if (result.assignment.layer[v] == kInfiniteLayer) residue.push_back(v);

    const auto sub = g.induced(residue);
    const PartialPipelineResult partial =
        run_partial_iterated(sub.graph, p, budget, ctx, &scratch);
    result.outdegree_bound =
        std::max(result.outdegree_bound, partial.outdegree_bound);
    result.stats.partial_iterations += partial.stats.partial_iterations;
    result.stats.escalations += partial.stats.escalations;

    const std::size_t unassigned = peel.remaining();
    for (graph::VertexId sv = 0; sv < sub.graph.num_vertices(); ++sv) {
      const Layer l = partial.assignment.layer[sv];
      if (l == kInfiniteLayer) continue;
      const graph::VertexId v = sub.to_original[sv];
      result.assignment.layer[v] = offset + l;
      peel.park(v);  // residual degrees stay exact for fallback peeling
    }
    offset += partial.assignment.num_layers;

    if (peel.remaining() == unassigned) {
      // Stall fallback: explicit peel rounds, raising the threshold until
      // one makes progress. Terminates because the threshold eventually
      // reaches the max residual degree.
      ++result.stats.escalations;
      while (peel.remaining() > 0) {
        ++result.stats.fallback_peel_rounds;
        if (peel_round(peel_threshold) > 0) break;
        peel_threshold *= 2;
      }
    }

    budget = std::min(
        pow_clamped(budget, p.boost_exponent, budget_cap), budget_cap);
  }

  // Hard guarantee of completeness: exhaust any remainder with doubling
  // threshold peeling (only reachable when max_phases is set very low).
  while (peel.remaining() > 0) {
    ++result.stats.fallback_peel_rounds;
    if (peel_round(peel_threshold) == 0) peel_threshold *= 2;
  }

  result.assignment.num_layers = offset;
  ARBOR_CHECK(result.assignment.is_complete());
  // The orientation bound also covers fallback peel layers: a vertex peeled
  // at threshold t has at most t unassigned neighbors at that moment, i.e.
  // at most t neighbors in its own or later layers.
  result.outdegree_bound =
      std::max({result.outdegree_bound, peel_threshold, p.k});
  return result;
}

}  // namespace arbor::core
