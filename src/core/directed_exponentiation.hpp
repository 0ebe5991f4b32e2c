// Directed graph exponentiation along non-decreasing-layer edges — the
// gather step of the coloring algorithm (§4; see [LU21, Definition 3.3]
// for the lower-level description the paper defers to).
//
// Given a layer assignment, the influence edges for the block [lo, hi] are
// v → w for w ∈ N(v) with ℓ(v) ≤ ℓ(w) ≤ hi (within-layer edges count in
// both directions; edges toward layers > hi terminate at a boundary
// record whose color is an input). Each doubling iteration makes every
// block vertex learn the reach-sets of everything it currently reaches —
// one Lemma 4.1 bundle fetch — so radius R is covered in ⌈log2 R⌉+1
// fetches. Vertices whose set exceeds `max_set_words` overflow: they stop
// expanding and are reported, mirroring the local-memory constraint
// (E10/EXPERIMENTS.md discusses when that happens at practical n).
//
// core/coloring_mpc.cpp charges this gather analytically and gauges cones
// with the bit-parallel core/cone_gauge; this module is the executable
// counterpart, and its exact reach sets are the gauge's cross-check
// (ConeGauge.MatchesDirectedGatherReachSets).
#pragma once

#include <cstddef>
#include <vector>

#include "core/layering.hpp"
#include "graph/graph.hpp"
#include "mpc/primitives.hpp"

namespace arbor::core {

struct DirectedGatherParams {
  Layer block_lo = 1;
  Layer block_hi = 1;
  std::size_t radius = 1;
  /// Per-vertex reach-set capacity (the machine's words); 0 = unlimited.
  std::size_t max_set_words = 0;
};

struct DirectedGatherResult {
  /// For every graph vertex in the block: the sorted set of block vertices
  /// reachable along non-decreasing-layer paths of length ≤ radius
  /// (includes the vertex itself). Empty for vertices outside the block.
  std::vector<std::vector<graph::VertexId>> reachable;
  std::vector<bool> overflowed;  ///< set exceeded max_set_words
  std::size_t doublings = 0;     ///< fetch iterations executed
  std::size_t max_set_size = 0;
};

DirectedGatherResult directed_gather(const graph::Graph& g,
                                     const LayerAssignment& layering,
                                     const DirectedGatherParams& params,
                                     mpc::MpcContext& ctx);

}  // namespace arbor::core
