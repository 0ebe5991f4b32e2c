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
// Test-only. core/coloring_mpc.cpp charges this gather analytically and
// gauges cones with the bit-parallel core/cone_gauge; this header is the
// executable counterpart, and its exact reach sets are the gauge's
// cross-check (ConeGauge.MatchesDirectedGatherReachSets in
// directed_exponentiation_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/layering.hpp"
#include "graph/graph.hpp"
#include "mpc/bundle_fetch.hpp"
#include "mpc/primitives.hpp"
#include "util/assert.hpp"

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

inline DirectedGatherResult directed_gather(const graph::Graph& g,
                                            const LayerAssignment& layering,
                                            const DirectedGatherParams& params,
                                            mpc::MpcContext& ctx) {
  // Distance-annotated reach set: vertex -> exact hop distance (≤ current
  // horizon). Kept sorted by vertex for deterministic wire format.
  using ReachMap = std::vector<std::pair<graph::VertexId, std::uint32_t>>;
  ARBOR_CHECK(params.block_lo >= 1 && params.block_lo <= params.block_hi);
  ARBOR_CHECK(layering.layer.size() == g.num_vertices());
  const std::size_t n = g.num_vertices();

  DirectedGatherResult result;
  result.reachable.resize(n);
  result.overflowed.assign(n, false);

  const auto in_block = [&](graph::VertexId v) {
    const Layer l = layering.layer[v];
    return l >= params.block_lo && l <= params.block_hi &&
           l != kInfiniteLayer;
  };

  // Base maps: exact distances ≤ 1 (self + allowed influence neighbors).
  std::vector<ReachMap> reach(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (!in_block(v)) continue;
    ReachMap& map = reach[v];
    map.emplace_back(v, 0);
    if (params.radius >= 1) {
      const Layer lv = layering.layer[v];
      for (graph::VertexId w : g.neighbors(v)) {
        const Layer lw = layering.layer[w];
        if (lw >= lv && lw <= params.block_hi && lw != kInfiniteLayer)
          map.emplace_back(w, 1);
      }
    }
    std::sort(map.begin(), map.end());
  }

  // Doubling with exact distances: composing two ≤h-bounded distance maps
  // by min-plus yields the exact ≤2h map, so after ⌈log2 radius⌉ fetches
  // every in-radius vertex carries its true hop count and the final filter
  // `dist ≤ radius` is exact for any radius, not just powers of two.
  std::size_t horizon = 1;
  while (horizon < params.radius) {
    ++result.doublings;
    // Every block vertex's set counts toward the fetch's volume gauges;
    // only requested sets are serialized, as (vertex, distance) pairs.
    std::vector<std::vector<graph::VertexId>> requests(n);
    mpc::BundleArena bundles(n);
    for (graph::VertexId v = 0; v < n; ++v) {
      if (!in_block(v)) continue;
      bundles.set_words(v, 2 * reach[v].size());
      if (result.overflowed[v]) continue;
      requests[v].reserve(reach[v].size());
      for (const auto& [w, d] : reach[v]) requests[v].push_back(w);
    }
    for (graph::VertexId v = 0; v < n; ++v)
      for (graph::VertexId w : requests[v]) {
        if (bundles.has_payload(w)) continue;
        const std::span<mpc::Word> words = bundles.add(w, 2 * reach[w].size());
        for (std::size_t i = 0; i < reach[w].size(); ++i)
          std::tie(words[2 * i], words[2 * i + 1]) = reach[w][i];
      }
    const mpc::BundleFetchResult fetch =
        mpc::fetch_bundles(ctx, bundles, requests, "directed_gather.fetch");

    for (graph::VertexId v = 0; v < n; ++v) {
      if (requests[v].empty()) continue;
      std::unordered_map<graph::VertexId, std::uint32_t> best;
      best.reserve(reach[v].size() * 2);
      for (const auto& [w, d] : reach[v]) best.emplace(w, d);
      for (std::size_t slot = 0; slot < requests[v].size(); ++slot) {
        const std::uint32_t via = reach[v][slot].second;
        const std::span<const mpc::Word> payload = fetch.delivered(v, slot);
        ARBOR_CHECK(payload.size() % 2 == 0);
        for (std::size_t i = 0; i < payload.size(); i += 2) {
          const auto x = static_cast<graph::VertexId>(payload[i]);
          const auto dx = static_cast<std::uint32_t>(payload[i + 1]);
          const std::uint32_t total = via + dx;
          if (total > params.radius) continue;
          auto [it, inserted] = best.emplace(x, total);
          if (!inserted && total < it->second) it->second = total;
        }
      }
      ReachMap merged(best.begin(), best.end());
      std::sort(merged.begin(), merged.end());
      reach[v] = std::move(merged);
      if (params.max_set_words != 0 &&
          2 * reach[v].size() > params.max_set_words)
        result.overflowed[v] = true;
    }
    horizon *= 2;
  }

  for (graph::VertexId v = 0; v < n; ++v) {
    auto& out = result.reachable[v];
    out.reserve(reach[v].size());
    for (const auto& [w, d] : reach[v])
      if (d <= params.radius) out.push_back(w);
    result.max_set_size = std::max(result.max_set_size, out.size());
  }
  return result;
}

}  // namespace arbor::core
