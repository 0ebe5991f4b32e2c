#include "local/peeling.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/assert.hpp"

namespace arbor::local {

ThresholdPeel::ThresholdPeel(const graph::Graph& g)
    : g_(g),
      max_degree_(static_cast<std::uint32_t>(
          std::min<std::size_t>(g.max_degree(), kParked))),
      degree_(g.num_vertices()),
      peeled_(g.num_vertices()),
      remaining_(g.num_vertices()) {
  ARBOR_CHECK_MSG(max_degree_ < kParked / 2,
                  "ThresholdPeel: max degree must be below 2^30");
  for (graph::VertexId v = 0; v < degree_.size(); ++v)
    degree_[v] = static_cast<std::uint32_t>(g.degree(v));
}

std::span<const graph::VertexId> ThresholdPeel::round(std::size_t threshold) {
  const auto t = static_cast<std::uint32_t>(
      std::min<std::size_t>(threshold, max_degree_));
  graph::VertexId* const out = peeled_.data();
  std::size_t count = 0;
  std::uint32_t highest = 0;
  for (graph::VertexId v = 0; v < degree_.size(); ++v) {
    out[count] = v;
    count += degree_[v] <= t ? 1 : 0;
    highest = std::max(highest, degree_[v]);
  }
  ARBOR_CHECK_MSG(highest <= kParked,
                  "ThresholdPeel: a residual degree was decremented below 0");
  for (std::size_t i = 0; i < count; ++i) degree_[out[i]] = kParked;
  for (std::size_t i = 0; i < count; ++i)
    for (graph::VertexId w : g_.neighbors(out[i])) --degree_[w];
  remaining_ -= count;
  return {out, count};
}

void ThresholdPeel::park(graph::VertexId v) {
  ARBOR_CHECK_MSG(degree_[v] <= max_degree_, "ThresholdPeel: parked twice");
  degree_[v] = kParked;
  for (graph::VertexId w : g_.neighbors(v)) --degree_[w];
  --remaining_;
}

PeelingResult peel_by_threshold(const graph::Graph& g, std::size_t threshold,
                                std::size_t max_rounds) {
  PeelingResult result;
  result.layer.assign(g.num_vertices(), 0);
  ThresholdPeel peel(g);
  std::uint32_t round = 0;
  while (peel.remaining() > 0 && round < max_rounds) {
    const auto peeled = peel.round(threshold);
    if (peeled.empty()) break;  // threshold below the residue's min degree
    ++round;
    for (graph::VertexId v : peeled) result.layer[v] = round;
  }
  result.num_layers = round;
  result.rounds = round;
  result.complete = peel.remaining() == 0;
  return result;
}

std::size_t be08_threshold(std::size_t k, double epsilon) {
  const double threshold = std::ceil(
      (2.0 + epsilon) * static_cast<double>(std::max<std::size_t>(k, 1)));
  ARBOR_CHECK_MSG(std::isfinite(epsilon) && epsilon > 0.0 &&
                      threshold < 0x1p63,
                  "be08_threshold: epsilon must be finite and > 0, with "
                  "⌈(2+epsilon)·k⌉ < 2^63");
  return static_cast<std::size_t>(threshold);
}

PeelingResult be08_h_partition(const graph::Graph& g, std::size_t k,
                               double epsilon) {
  const std::size_t threshold = be08_threshold(k, epsilon);
  // 4·log_{1+eps/...} n is a loose upper bound; peeling halts early anyway.
  const auto max_rounds =
      static_cast<std::size_t>(8 * std::bit_width(g.num_vertices() | 1) + 8);
  PeelingResult result = peel_by_threshold(g, threshold, max_rounds);
  ARBOR_CHECK_MSG(result.complete,
                  "BE08 peeling did not complete: threshold below arboricity?");
  return result;
}

}  // namespace arbor::local
