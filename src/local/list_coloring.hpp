// Randomized (degree+1)-list coloring in the LOCAL model.
//
// The paper uses state-of-the-art list coloring [HKNT22, GG24b] as a black
// box inside each layer. We substitute the simpler classic trial/commit
// algorithm, which keeps their (degree+1)-list contract but needs O(log n)
// rounds where they need poly(log log n): each round every uncolored vertex
// proposes a uniformly random color from its palette minus the colors of
// already-colored neighbors, and commits unless an uncolored neighbor
// proposed the same color. With |palette(v)| ≥ deg(v)+1 each vertex succeeds with
// constant probability per round, so O(log n) rounds suffice whp.
//
// Palettes are ranges with holes: palette(v) is [base, base+count) minus
// v's exclusions, so the input costs its exclusions, not its count. The
// exclusions are folded once into a bit mask per vertex, ⌈count/64⌉ words
// over [base, base+count) in which a set bit is a colour v may still take;
// its popcount is the |palette| ≥ deg+1 check. Each round then walks an
// active list of the uncoloured vertices, compacted as they commit. A
// proposal draws an index below the mask's popcount and takes that set bit
// in ascending order, O(count/64) words. When v commits colour c, bit c is
// cleared in each conflict neighbour's mask, so a proposal reads neither
// its neighbours nor the whole range. That clearing is why the conflict
// view must be symmetric (see ConflictView). The masks, the active list
// and the proposals live in a ListColoringScratch the caller may keep, so
// repeated instances allocate nothing once it has grown.
//
// Determinism contract: all randomness comes from a StatelessCoin keyed by
// (phase_tag, vertex_key, round), and the draw indexes the available
// colors in ASCENDING order. Re-running any sub-instance whose vertex keys
// and palettes match (e.g. the replay inside a gathered cone in
// core/coloring_mpc) therefore reproduces identical proposals however the
// exclusions or neighbours are listed — this is what makes the MPC
// simulation of §4 consistent across machines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace arbor::local {

/// A conflict graph in CSR form: v's neighbours are
/// targets[offsets[v] .. offsets[v+1]), with offsets.size() = n+1. It must
/// be symmetric: w is in v's row exactly as often as v is in w's, as for
/// ConflictView::of(g) and the same-layer rows of an undirected graph. A
/// commit clears its colour from the masks of its own row's vertices, so
/// an asymmetric view leaves a neighbour free to propose a colour already
/// committed next to it.
struct ConflictView {
  std::span<const graph::EdgeId> offsets;
  std::span<const graph::VertexId> targets;

  static ConflictView of(const graph::Graph& g) {
    return {g.offsets(), g.adjacency()};
  }
};

/// palette(v) = [base, base+count) minus exclusions[exclusion_offsets[v] ..
/// exclusion_offsets[v+1]), with exclusion_offsets.size() = n+1.
/// Exclusions may repeat and may lie outside the range; both are ignored.
struct RangePalettes {
  graph::Color base = 0;
  std::size_t count = 0;
  std::span<const std::size_t> exclusion_offsets;
  std::span<const graph::Color> exclusions;
};

/// How a list_color run ended.
struct ListColoringRun {
  std::size_t rounds = 0;
  bool complete = false;
};

/// Buffers of list_color, kept by a caller that colours many instances
/// (core/coloring_mpc's descent keeps one across layers). Capacities are
/// high-water marks.
struct ListColoringScratch {
  std::vector<std::uint64_t> masks;       ///< n × ⌈count/64⌉ palette words
  std::vector<graph::VertexId> active;    ///< uncoloured vertices
  std::vector<graph::Color> proposal;     ///< this round's proposals
};

/// Color the conflict graph so that color[v] ∈ palette(v) and no edge is
/// monochromatic, writing color[v] into `colors` (size n); a vertex left
/// uncoloured after max_rounds holds 0xffffffff. `vertex_keys[v]` is the
/// stable identity used for coin keys (the original graph id when the
/// view is a subgraph). Requires |palette(v)| ≥ deg(v) + 1 for every v and
/// base + count ≤ 0xffffffff.
ListColoringRun list_color(const ConflictView& conflicts,
                           std::span<const std::uint64_t> vertex_keys,
                           const RangePalettes& palettes,
                           const util::StatelessCoin& coin,
                           std::uint64_t phase_tag, std::size_t max_rounds,
                           ListColoringScratch& scratch,
                           std::span<graph::Color> colors);

}  // namespace arbor::local
