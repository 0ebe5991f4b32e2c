// LOCAL-in-MPC embedding, executed on the Level-0 cluster.
//
// The baselines charge "one MPC round per LOCAL round" when simulating
// simple LOCAL algorithms directly (BE08 peeling, the paper's §1.2
// observation). This module grounds that charge: threshold peeling runs as
// an actual message-passing program — vertices are block-assigned to
// machines, each LOCAL round is exactly one cluster round in which every
// machine peels its sub-threshold vertices and notifies the machines
// hosting their neighbors — under the cluster's per-machine traffic caps.
// A pass costs only its reads and its messages: both sides read adjacency
// through one CSR view (the graph's arrays on the driver, one flat slab per
// worker block), and the step allocates nothing once its per-thread
// outboxes have grown.
// tests/mpc_embedding_test.cpp checks the result matches the reference
// peeling bit-for-bit and that the round counts agree, across machine
// counts and executors, and that a worker rejects hostile input by name.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"

namespace arbor::net {
class Registry;
}

namespace arbor::local {

struct EmbeddedPeelingResult {
  /// 1-based removal round per vertex; 0 = never peeled (stalled).
  std::vector<std::uint32_t> layer;
  std::uint32_t num_layers = 0;
  /// Cluster rounds consumed: one per layer, plus one for the pass that
  /// peeled nothing when the run stalls.
  std::size_t cluster_rounds = 0;
  bool complete = false;
};

/// Run threshold peeling distributed over `cluster`'s machines (vertex v
/// lives on machine v / ceil(n/M)). Requires every machine's adjacency
/// slab and worst-case per-round notification volume to fit the cluster's
/// word budget — the cluster throws otherwise (capacity is the point).
EmbeddedPeelingResult embedded_threshold_peeling(const graph::Graph& g,
                                                 std::size_t threshold,
                                                 mpc::Cluster& cluster,
                                                 std::size_t max_rounds);

/// Worker-side factory ("local.embedded_peeling") for the multi-process
/// backend (net::Registry::builtin() calls this). It rejects by name a
/// peel-input neighbour word that is not a vertex id (>= n), a truncated
/// row, and, while running, a notification outside the receiving
/// machine's vertex range.
void register_embedded_peeling_program(net::Registry& registry);

}  // namespace arbor::local
