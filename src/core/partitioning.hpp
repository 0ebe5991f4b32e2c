// Random edge/vertex partitioning — Lemmas 2.1 and 2.2.
//
// Both lemmas reduce arboricity-k graphs to parts of arboricity O(log n)
// whp, by partitioning edges (for orientation) or vertices (for coloring)
// uniformly into L = ⌈k / log n⌉ parts. The proofs ride on a Chernoff bound
// over the out-edges of any fixed O(k)-out-degree orientation; the benches
// of E5 validate the concentration empirically via the exact arboricity
// oracle.
//
// Theorems 1.1 and 1.2 share the reduction's control flow: needs_partition
// decides when it applies, and run_parts_in_parallel runs one theorem body
// per part with the parts' rounds merged as a max.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/primitives.hpp"
#include "util/rng.hpp"

namespace arbor::core {

/// Lemma 2.1 part count: ⌈k / log2(n)⌉, at least 1.
std::size_t partition_count(std::size_t k, std::size_t n);

/// Whether the reduction applies: k > high_k_factor · log2(n).
bool needs_partition(std::size_t k, std::size_t n, double high_k_factor);

/// One part's theorem body: part index, the part's own k and its context.
using PartBody = std::function<void(std::size_t part, std::size_t part_k,
                                    mpc::MpcContext& part_ctx)>;

/// Runs `body` on every part as if in parallel. Part p gets its own
/// RoundLedger, an MpcContext sharing ctx's engine (one worker pool per
/// pipeline run) and part_k = the degeneracy oracle of parts[p] (arboricity
/// O(log n) whp by Lemmas 2.1/2.2); its ledger then merges into ctx's as a
/// max (the ledger's parallel merge).
void run_parts_in_parallel(const std::vector<graph::Graph>& parts,
                           mpc::MpcContext& ctx, const PartBody& body);

struct EdgePartition {
  /// Part index per edge of the source graph (aligned with g.edges()).
  std::vector<std::uint32_t> part_of_edge;
  /// One graph per part, on the full original vertex set (ids preserved).
  std::vector<graph::Graph> parts;
};

EdgePartition random_edge_partition(const graph::Graph& g, std::size_t parts,
                                    util::SplitRng& rng);

struct VertexPartition {
  std::vector<std::uint32_t> part_of_vertex;
  /// Induced subgraph per part, with the mapping back to original ids.
  std::vector<graph::Graph> parts;
  std::vector<std::vector<graph::VertexId>> to_original;
};

VertexPartition random_vertex_partition(const graph::Graph& g,
                                        std::size_t parts,
                                        util::SplitRng& rng);

}  // namespace arbor::core
