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
// v's exclusions, so a palette costs its exclusions, not its count. A
// proposal epoch-marks v's exclusions and its neighbours' committed colors
// that fall in the range, draws an index below the unmarked count, and
// walks the range to that unmarked color: O(deg + count) per proposal, no
// allocation.
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

struct ListColoringResult {
  std::vector<graph::Color> colors;
  std::size_t rounds = 0;
  bool complete = false;
};

/// A conflict graph in CSR form: v's neighbours are
/// targets[offsets[v] .. offsets[v+1]), with offsets.size() = n+1.
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

/// Color the conflict graph so that color[v] ∈ palette(v) and no edge is
/// monochromatic. `vertex_keys[v]` is the stable identity used for coin
/// keys (the original graph id when the view is a subgraph). Requires
/// |palette(v)| ≥ deg(v) + 1 for every v.
ListColoringResult list_color(const ConflictView& conflicts,
                              std::span<const std::uint64_t> vertex_keys,
                              const RangePalettes& palettes,
                              const util::StatelessCoin& coin,
                              std::uint64_t phase_tag,
                              std::size_t max_rounds = 512);

}  // namespace arbor::local
