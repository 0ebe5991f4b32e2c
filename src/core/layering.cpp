#include "core/layering.hpp"

#include <algorithm>
#include <numeric>

#include "local/peeling.hpp"
#include "util/assert.hpp"

namespace arbor::core {

std::size_t LayerAssignment::assigned_count() const {
  std::size_t count = 0;
  for (Layer l : layer)
    if (l != kInfiniteLayer) ++count;
  return count;
}

bool LayerAssignment::is_complete() const {
  return assigned_count() == layer.size();
}

std::size_t assignment_outdegree(const graph::Graph& g,
                                 const LayerAssignment& assignment) {
  ARBOR_CHECK(assignment.layer.size() == g.num_vertices());
  std::size_t worst = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const Layer lv = assignment.layer[v];
    if (lv == kInfiniteLayer) continue;
    std::size_t count = 0;
    for (graph::VertexId u : g.neighbors(v))
      if (assignment.layer[u] >= lv) ++count;  // ∞ = 0xffff… sorts highest
    worst = std::max(worst, count);
  }
  return worst;
}

bool is_valid_partial_assignment(const graph::Graph& g,
                                 const LayerAssignment& assignment,
                                 std::size_t d) {
  if (assignment.layer.size() != g.num_vertices()) return false;
  for (Layer l : assignment.layer) {
    if (l == kInfiniteLayer) continue;
    if (l < 1 || l > assignment.num_layers) return false;
  }
  return assignment_outdegree(g, assignment) <= d;
}

LayerAssignment min_combine(const LayerAssignment& a,
                            const LayerAssignment& b) {
  ARBOR_CHECK(a.layer.size() == b.layer.size());
  LayerAssignment out;
  out.num_layers = std::max(a.num_layers, b.num_layers);
  out.layer.resize(a.layer.size());
  for (std::size_t i = 0; i < a.layer.size(); ++i)
    out.layer[i] = std::min(a.layer[i], b.layer[i]);  // ∞ is the max value
  return out;
}

std::vector<std::size_t> tail_layer_counts(const LayerAssignment& assignment) {
  const Layer l_max = assignment.num_layers;
  std::vector<std::size_t> tail(l_max + 2, 0);
  for (Layer l : assignment.layer) {
    const Layer effective = (l == kInfiniteLayer) ? l_max + 1 : l;
    // v contributes to every j ≤ effective; accumulate as histogram then
    // suffix-sum.
    ARBOR_CHECK(effective <= l_max + 1);
    ++tail[effective];
  }
  for (std::size_t j = tail.size() - 1; j >= 2; --j) tail[j - 1] += tail[j];
  return tail;  // tail[j] = |{v : ℓ(v) ≥ j}| for j in [1, L+1]
}

namespace {

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t sum = a + b;
  return sum < a ? ~std::uint64_t{0} : sum;
}

/// Shared DP: paths are strictly monotone in ℓ, so processing vertices
/// sorted by layer is a topological order. `incoming_smaller` selects the
/// NumPathsIn recurrence (sum over lower-layer neighbors) vs NumPathsOut
/// (sum over higher-layer neighbors, processed in reverse).
std::vector<std::uint64_t> count_paths(const graph::Graph& g,
                                       const LayerAssignment& assignment,
                                       bool incoming_smaller) {
  ARBOR_CHECK(assignment.layer.size() == g.num_vertices());
  std::vector<graph::VertexId> order;
  order.reserve(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    if (assignment.layer[v] != kInfiniteLayer) order.push_back(v);
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::VertexId a, graph::VertexId b) {
                     return assignment.layer[a] < assignment.layer[b];
                   });
  if (!incoming_smaller) std::reverse(order.begin(), order.end());

  std::vector<std::uint64_t> count(g.num_vertices(), 0);
  for (graph::VertexId v : order) {
    const Layer lv = assignment.layer[v];
    std::uint64_t total = 1;  // the single-vertex path
    for (graph::VertexId u : g.neighbors(v)) {
      const Layer lu = assignment.layer[u];
      if (lu == kInfiniteLayer) continue;
      const bool feeds = incoming_smaller ? (lu < lv) : (lu > lv);
      if (feeds) total = saturating_add(total, count[u]);
    }
    count[v] = total;
  }
  return count;
}

}  // namespace

std::vector<std::uint64_t> num_paths_in(const graph::Graph& g,
                                        const LayerAssignment& assignment) {
  return count_paths(g, assignment, /*incoming_smaller=*/true);
}

std::vector<std::uint64_t> num_paths_out(const graph::Graph& g,
                                         const LayerAssignment& assignment) {
  return count_paths(g, assignment, /*incoming_smaller=*/false);
}

LayerAssignment reference_peeling_layering(const graph::Graph& g,
                                           std::size_t k,
                                           std::size_t max_rounds) {
  local::PeelingResult peel = local::peel_by_threshold(g, k, max_rounds);
  LayerAssignment out{std::move(peel.layer), peel.num_layers};
  std::replace(out.layer.begin(), out.layer.end(), Layer{0}, kInfiniteLayer);
  return out;
}

}  // namespace arbor::core
