// Tests for Lemmas 2.1/2.2: random edge/vertex partitioning reduces
// per-part arboricity, validated with the degeneracy oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/assert.hpp"
#include "core/partitioning.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "mpc/ledger.hpp"
#include "util/rng.hpp"

namespace arbor::core {
namespace {

using graph::Graph;
using graph::VertexId;

TEST(PartitionCount, Formula) {
  EXPECT_EQ(partition_count(1, 1024), 1u);       // ⌈1/10⌉
  EXPECT_EQ(partition_count(10, 1024), 1u);      // ⌈10/10⌉
  EXPECT_EQ(partition_count(25, 1024), 3u);      // ⌈25/10⌉
  EXPECT_EQ(partition_count(100, 1 << 20), 5u);  // ⌈100/20⌉
}

TEST(NeedsPartition, StrictlyAboveFactorTimesLogN) {
  EXPECT_FALSE(needs_partition(40, 1024, 4.0));  // 40 = 4 · 10
  EXPECT_TRUE(needs_partition(41, 1024, 4.0));
  EXPECT_FALSE(needs_partition(1, 1, 1.0));      // log2 clamps n to 2
  EXPECT_TRUE(needs_partition(2, 1, 1.0));
  EXPECT_FALSE(needs_partition(0, 1024, 0.0));
  EXPECT_TRUE(needs_partition(1, 1024, 0.0));
}

TEST(RunPartsInParallel, PartsGetOracleKAndMergeAsMax) {
  util::SplitRng rng(7);
  const std::vector<Graph> parts = {graph::forest_union(300, 2, rng),
                                    graph::forest_union(300, 5, rng)};
  const mpc::ClusterConfig cfg{16, 4096};
  mpc::RoundLedger ledger(cfg);
  mpc::MpcContext ctx(cfg, &ledger);
  std::vector<std::size_t> seen_k(parts.size(), 0);
  run_parts_in_parallel(
      parts, ctx,
      [&](std::size_t p, std::size_t part_k, mpc::MpcContext& part_ctx) {
        EXPECT_NE(part_ctx.ledger(), ctx.ledger());
        EXPECT_EQ(part_ctx.ensure_engine(), ctx.ensure_engine());
        seen_k[p] = part_k;
        part_ctx.charge(3 + 2 * p, "part.work");
      });
  for (std::size_t p = 0; p < parts.size(); ++p)
    EXPECT_EQ(seen_k[p],
              std::max<std::size_t>(1, graph::degeneracy(parts[p])));
  EXPECT_EQ(ledger.rounds_by_label().at("part.work"), 5u);
  EXPECT_EQ(ledger.total_rounds(), 5u);
}

TEST(EdgePartition, EdgesPreservedExactlyOnce) {
  util::SplitRng rng(1);
  const Graph g = graph::gnm(200, 1000, rng);
  const EdgePartition partition = random_edge_partition(g, 4, rng);
  ASSERT_EQ(partition.parts.size(), 4u);
  ASSERT_EQ(partition.part_of_edge.size(), g.num_edges());
  std::size_t total = 0;
  for (const Graph& part : partition.parts) {
    total += part.num_edges();
    EXPECT_EQ(part.num_vertices(), g.num_vertices());  // ids preserved
  }
  EXPECT_EQ(total, g.num_edges());
  // Edge i must actually be present in its assigned part.
  const auto edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_TRUE(partition.parts[partition.part_of_edge[i]].has_edge(
        edges[i].u, edges[i].v));
  }
}

TEST(EdgePartition, Lemma21ReducesArboricity) {
  // Dense planted graph: λ ≈ 40. Partition into ⌈k/log n⌉ parts and check
  // every part's degeneracy is O(log n) with a generous constant.
  util::SplitRng rng(2);
  const std::size_t n = 512;
  const Graph g = graph::planted_clique(n, 2000, 80, rng);  // λ ≥ 39
  const std::size_t k = graph::degeneracy(g);
  ASSERT_GE(k, 39u);
  const std::size_t parts = partition_count(k, n);
  ASSERT_GE(parts, 2u);
  const EdgePartition partition = random_edge_partition(g, parts, rng);
  const double log_n = std::log2(static_cast<double>(n));
  for (const Graph& part : partition.parts) {
    EXPECT_LE(static_cast<double>(graph::degeneracy(part)), 4.0 * log_n)
        << "Lemma 2.1: part arboricity should be O(log n)";
  }
}

TEST(VertexPartition, DisjointCover) {
  util::SplitRng rng(3);
  const Graph g = graph::gnm(300, 900, rng);
  const VertexPartition partition = random_vertex_partition(g, 5, rng);
  ASSERT_EQ(partition.parts.size(), 5u);
  std::vector<int> seen(g.num_vertices(), 0);
  for (std::size_t p = 0; p < 5; ++p) {
    EXPECT_EQ(partition.parts[p].num_vertices(),
              partition.to_original[p].size());
    for (VertexId v : partition.to_original[p]) {
      ++seen[v];
      EXPECT_EQ(partition.part_of_vertex[v], p);
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(VertexPartition, PartEdgesAreInducedEdges) {
  util::SplitRng rng(4);
  const Graph g = graph::gnm(100, 400, rng);
  const VertexPartition partition = random_vertex_partition(g, 3, rng);
  for (std::size_t p = 0; p < 3; ++p) {
    const Graph& part = partition.parts[p];
    for (const auto& e : part.edges()) {
      EXPECT_TRUE(g.has_edge(partition.to_original[p][e.u],
                             partition.to_original[p][e.v]));
    }
  }
}

TEST(VertexPartition, Lemma22ReducesArboricity) {
  util::SplitRng rng(5);
  const std::size_t n = 512;
  const Graph g = graph::planted_clique(n, 2000, 80, rng);
  const std::size_t k = graph::degeneracy(g);
  const std::size_t parts = partition_count(k, n);
  ASSERT_GE(parts, 2u);
  const VertexPartition partition = random_vertex_partition(g, parts, rng);
  const double log_n = std::log2(static_cast<double>(n));
  for (const Graph& part : partition.parts) {
    EXPECT_LE(static_cast<double>(graph::degeneracy(part)), 4.0 * log_n)
        << "Lemma 2.2: part arboricity should be O(log n)";
  }
}

TEST(Partitioning, SinglePartIsIdentity) {
  util::SplitRng rng(6);
  const Graph g = graph::gnm(50, 100, rng);
  const EdgePartition ep = random_edge_partition(g, 1, rng);
  EXPECT_EQ(ep.parts[0].num_edges(), g.num_edges());
  const VertexPartition vp = random_vertex_partition(g, 1, rng);
  EXPECT_EQ(vp.parts[0].num_vertices(), g.num_vertices());
  EXPECT_EQ(vp.parts[0].num_edges(), g.num_edges());
}

}  // namespace
}  // namespace arbor::core
