// Theorem 1.2: the end-to-end scalable-MPC coloring algorithm.
//
// Pipeline (paper §4):
//  1. if k = Θ(λ) exceeds Θ(log n), randomly partition the VERTICES into
//     ⌈k/log n⌉ parts (Lemma 2.2) and color each part with a disjoint
//     palette — parts run in parallel (run_parts_in_parallel), cross-part
//     edges are bichromatic for free. k comes as in Theorem 1.1
//     (core/orientation_mpc.hpp, step 1);
//  2. per part: compute the complete layering of Lemma 3.15 (out-degree
//     d = O(λ log log n)), then color layer by layer from the TOP (highest
//     layer first) with palette size 3d: a vertex avoids the committed
//     colors of its ≤ d higher-or-equal-layer neighbors and list-colors the
//     ≤ d-degree graph induced by its own layer (degree+1 list coloring,
//     palette slack 2d). One pass over a layer's neighbour lists lays out
//     its same-layer conflict CSR and, per vertex, the distinct higher-
//     layer colors inside the palette range; the palette is that range
//     minus those exclusions, never a stored list of its 3d colors.
//     list_color (local/list_coloring.hpp) folds each vertex's exclusions
//     once into a ⌈3d/64⌉-word bit mask over the range and clears a
//     committed colour from its same-layer neighbours' masks; the masks,
//     its active list and its proposals are scratch the descent keeps
//     across layers, and colours land straight in the descent's array;
//  3. MPC speed-up: instead of paying one MPC round per LOCAL round, whole
//     BLOCKS of layers are colored at once. Each node in a block gathers —
//     via directed graph exponentiation along non-decreasing-layer edges
//     (the Lemma 4.1 primitive, O(log R) rounds for reach R) — everything
//     that can influence its color, then replays the LOCAL algorithm
//     locally. Replays agree across machines because all coins come from a
//     StatelessCoin keyed by (layer, vertex, trial) — see
//     local/list_coloring.hpp. Once the remaining top layer index falls
//     below the tail threshold (paper: Θ(log^{2.67} log n)), blocks stop
//     paying off and the LOCAL algorithm runs directly, one MPC round per
//     LOCAL round.
//
// Cone-size accounting: the influence cone of v is its reachable set along
// paths with non-decreasing layers inside the block, up to the block's
// realized radius (LOCAL rounds replayed plus one hop per layer), plus one
// word per edge into a layer above the block (core/cone_gauge.hpp). The
// descent runs in one rank order — layer ascending, then id — so a layer
// and a block are each a contiguous rank range, and a block's local ids
// are its ranks minus its first rank. The layer passes feed the gauge: as
// a block member's neighbours are read for its conflict row and
// exclusions, each one at or above the member's layer also goes into the
// member's forward row of the block view (in-block neighbours as local
// ids, neighbours above the block as a count), so a block's neighbour
// lists are read once. The gauge then measures `cone_sample` sampled cones
// as one bit-parallel multi-source BFS over that view: each sample owns
// one bit lane of a uint64 mask per block vertex, every level expands only
// the vertices some lane reached at the previous level, and samples beyond
// 64 run in further lane groups. A block costs O(levels × active edges)
// per 64 samples on top of its layer passes. Cones are sampled rather than
// computed exactly for every vertex because exact cones would cost more
// than the coloring itself (they overlap, so their total size far exceeds
// the block's); the sample maximum gauges the local-memory envelope. E10
// (bench/bench_cone_sizes.cpp) sweeps this.
#pragma once

#include <cstdint>
#include <vector>

#include "core/layering_pipeline.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "mpc/primitives.hpp"

namespace arbor::core {

struct ColoringParams {
  std::size_t k = 0;  ///< density parameter; 0 → the charged degeneracy
                      ///< oracle (core/density_estimate.hpp)
  PipelineParams pipeline = PipelineParams::practical(1);
  double palette_factor = 3.0;      ///< palette = ⌈f·d⌉ colors (paper: 3d);
                                    ///< finite, > 0
  std::size_t trials_per_layer = 64;///< LOCAL round cap per layer
  double high_k_factor = 4.0;       ///< vertex partition when k > f·log2 n;
                                    ///< finite, ≥ 0
  std::size_t tail_threshold = 4;   ///< direct LOCAL below this layer index
  double block_fraction = 0.25;     ///< block width ≈ max(1, f·j); finite,
                                    ///< in [0, 1]
  std::size_t cone_sample = 64;     ///< cones measured per block
  std::uint64_t seed = 0xc0105ULL;
};

struct MpcColoringResult {
  std::vector<graph::Color> colors;
  std::size_t palette_size = 0;  ///< total palette budget across parts
  std::size_t parts = 1;
  std::size_t k_used = 0;
  std::size_t layering_outdegree = 0;  ///< measured d of the layering
  std::size_t blocks = 0;              ///< gather-and-replay phases
  std::size_t local_rounds_replayed = 0;  ///< LOCAL rounds inside cones
  std::size_t tail_mpc_rounds = 0;        ///< direct-simulation rounds
  std::size_t max_sampled_cone_nodes = 0;
};

/// Throws InvariantError naming the field when a ColoringParams factor
/// breaks its rule above (checked before any work, even on an empty graph).
MpcColoringResult mpc_color(const graph::Graph& g,
                            const ColoringParams& params,
                            mpc::MpcContext& ctx);

}  // namespace arbor::core
