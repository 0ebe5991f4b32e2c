#include "core/partitioning.hpp"

#include <algorithm>
#include <cmath>

#include "core/density_estimate.hpp"
#include "graph/builder.hpp"
#include "mpc/ledger.hpp"
#include "util/assert.hpp"

namespace arbor::core {

namespace {

double log2_n(std::size_t n) {
  return std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
}

}  // namespace

std::size_t partition_count(std::size_t k, std::size_t n) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(static_cast<double>(k) / log2_n(n))));
}

bool needs_partition(std::size_t k, std::size_t n, double high_k_factor) {
  return static_cast<double>(k) > high_k_factor * log2_n(n);
}

void run_parts_in_parallel(const std::vector<graph::Graph>& parts,
                           mpc::MpcContext& ctx, const PartBody& body) {
  for (std::size_t p = 0; p < parts.size(); ++p) {
    mpc::RoundLedger part_ledger(ctx.config());
    mpc::MpcContext part_ctx(ctx.config(), &part_ledger,
                             ctx.ensure_engine());
    body(p, estimate_density_parameter(parts[p]), part_ctx);
    if (ctx.ledger()) ctx.ledger()->absorb_parallel(part_ledger);
  }
}

EdgePartition random_edge_partition(const graph::Graph& g, std::size_t parts,
                                    util::SplitRng& rng) {
  ARBOR_CHECK(parts >= 1);
  EdgePartition result;
  result.part_of_edge.resize(g.num_edges());
  std::vector<graph::GraphBuilder> builders(
      parts, graph::GraphBuilder(g.num_vertices()));
  const auto edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto p = static_cast<std::uint32_t>(rng.next_below(parts));
    result.part_of_edge[i] = p;
    builders[p].add_edge(edges[i].u, edges[i].v);
  }
  result.parts.reserve(parts);
  for (auto& b : builders) result.parts.push_back(b.build_and_clear());
  return result;
}

VertexPartition random_vertex_partition(const graph::Graph& g,
                                        std::size_t parts,
                                        util::SplitRng& rng) {
  ARBOR_CHECK(parts >= 1);
  VertexPartition result;
  result.part_of_vertex.resize(g.num_vertices());
  std::vector<std::vector<graph::VertexId>> members(parts);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto p = static_cast<std::uint32_t>(rng.next_below(parts));
    result.part_of_vertex[v] = p;
    members[p].push_back(v);
  }
  result.parts.reserve(parts);
  result.to_original.reserve(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    auto sub = g.induced(members[p]);
    result.parts.push_back(std::move(sub.graph));
    result.to_original.push_back(std::move(sub.to_original));
  }
  return result;
}

}  // namespace arbor::core
