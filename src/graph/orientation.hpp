// Edge orientations and their quality measures.
//
// An Orientation assigns each undirected edge of a Graph a direction. The
// paper's Theorem 1.1 quality target is max out-degree O(λ log log n); the
// functions here recompute out-degrees from scratch so algorithm output is
// never trusted, only measured.
//
// Storage is one packed bitset: edge i's direction is bit i % 64 of word
// i / 64, and the bits past m are zero. Orientation::pack fills it a word
// at a time from the canonical edge list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace arbor::graph {

class Orientation {
 public:
  /// Bit i % 64 of `towards_v[i / 64]` set means edge i (canonical (u,v),
  /// u < v) is oriented u -> v. Throws InvariantError unless there are
  /// exactly ⌈m/64⌉ words and every bit past m is zero.
  Orientation(const Graph& g, std::vector<std::uint64_t> towards_v);

  /// The orientation whose edge i points u -> v iff
  /// `towards_v(i, g.edges()[i])`, written in canonical edge order: 64
  /// answers are OR-ed into a register and each word is stored once.
  template <typename TowardsV>
  static Orientation pack(const Graph& g, TowardsV&& towards_v);

  /// Direction of edge index i in g.edges().
  bool oriented_towards_v(std::size_t edge_index) const {
    return (words_[edge_index / 64] >> (edge_index % 64)) & 1u;
  }

  std::size_t num_edges() const noexcept { return num_edges_; }

  /// The packed bits, ⌈m/64⌉ words.
  std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// Out-degree of every vertex, recomputed from the edge list.
  std::vector<std::size_t> outdegrees(const Graph& g) const;

  std::size_t max_outdegree(const Graph& g) const;

  /// Out-neighbor lists (head of each out-edge per vertex).
  std::vector<std::vector<VertexId>> out_neighbors(const Graph& g) const;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t num_edges_ = 0;
};

template <typename TowardsV>
Orientation Orientation::pack(const Graph& g, TowardsV&& towards_v) {
  const std::span<const Edge> edges = g.edges();
  std::vector<std::uint64_t> words((edges.size() + 63) / 64);
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t first = 64 * w;
    const std::size_t last = std::min(edges.size(), first + 64);
    std::uint64_t bits = 0;
    for (std::size_t i = first; i < last; ++i)
      bits |= std::uint64_t{towards_v(i, edges[i]) ? 1u : 0u} << (i - first);
    words[w] = bits;
  }
  return Orientation(g, std::move(words));
}

/// Orient every edge toward the endpoint with the larger layer value,
/// breaking ties toward the larger vertex id — exactly the paper's rule:
/// edge (u, v), u < v, points u -> v iff layer[u] <= layer[v]. ℓ = ∞ is
/// UINT32_MAX (core::kInfiniteLayer), which sorts above every finite layer
/// under plain <=; if a partial layering leaves both endpoints at ∞ the
/// tie-break still orients the edge (ids), so the orientation is total.
/// One Orientation::pack pass over the canonical edge list;
/// core::mpc_orient's single-part finalize.
Orientation orient_by_layers(const Graph& g,
                             const std::vector<std::uint32_t>& layer);

/// Sequential reference: orient along a degeneracy elimination order
/// (earlier-eliminated endpoint becomes the tail). Max out-degree equals the
/// degeneracy ≤ 2λ-1 — the quality yardstick for benches.
Orientation orient_by_degeneracy(const Graph& g);

}  // namespace arbor::graph
