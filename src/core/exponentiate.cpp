#include "core/exponentiate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/local_prune.hpp"
#include "util/assert.hpp"

namespace arbor::core {

void exponentiate_and_local_prune(const graph::Graph& g,
                                  const ExponentiateParams& p,
                                  mpc::MpcContext& ctx,
                                  ExponentiateScratch& scratch,
                                  ExponentiateResult& result) {
  ARBOR_CHECK(p.budget >= 2);
  ARBOR_CHECK_MSG(p.steps < 64, "ExponentiateParams.steps must be < 64");
  const std::size_t n = g.num_vertices();
  const auto sqrt_budget = static_cast<std::size_t>(
      std::floor(std::sqrt(static_cast<double>(p.budget))));

  result.active.assign(n, false);
  result.per_step.clear();
  result.max_tree_nodes = 0;

  // Initialization: star for vertices with degree < B, single node (and
  // inactive) otherwise, copied straight from the CSR rows.
  TreeForest& trees = result.trees;
  trees.assign_stars(g, p.budget);
  for (graph::VertexId v = 0; v < n; ++v)
    result.active[v] = g.degree(v) < p.budget;
  ctx.charge(1, "exponentiate.init");

  // Reused across steps: per vertex L_v, and the scratch's flat arrays.
  // The n small request lists are per call, so their blocks go back to
  // the heap.
  std::vector<std::vector<graph::VertexId>> requests(n);
  auto& [pruned, leaves_begin, leaf_slots, requested, slot_of, bundles,
         attachments] = scratch;
  leaves_begin.resize(n + 1);
  requested.grow_to(n);
  slot_of.resize(n);

  for (std::size_t step = 1; step <= p.steps; ++step) {
    ExponentiateStepStats stats;

    // ---- Local prune phase (no communication). ----
    local_prune(trees, p.prune_k, pruned);
    bundles.reset(n);
    for (graph::VertexId v = 0; v < n; ++v) {
      const std::size_t size = pruned.tree_size(v);
      if (size > sqrt_budget) result.active[v] = false;
      bundles.set_words(v, pruned.tree(v).serialized_words());
    }

    // ---- Exponentiation / attachment phase. ----
    // Frontier leaves sit at distance exactly 2^{step-1}; an active v
    // requests each distinct active vertex they map to once.
    const auto frontier_depth =
        static_cast<std::uint32_t>(std::size_t{1} << (step - 1));
    const std::uint32_t* maps_to = pruned.column(TreeView::kMapsTo);
    const std::uint32_t* depth = pruned.column(TreeView::kDepth);
    const std::uint32_t* child_count = pruned.column(TreeView::kChildCount);
    leaf_slots.clear();
    for (graph::VertexId v = 0; v < n; ++v) {
      leaves_begin[v] = leaf_slots.size();
      requests[v].clear();
      if (!result.active[v]) continue;
      requested.next_epoch();
      // Pruned trees are breadth-first, so depths ascend within a tree and
      // the frontier is one range, found from the tree's end.
      const std::size_t b = pruned.begin(v);
      std::size_t hi = pruned.begin(v + 1);
      ARBOR_DCHECK(std::is_sorted(depth + b, depth + hi));
      while (hi > b && depth[hi - 1] > frontier_depth) --hi;
      std::size_t lo = hi;
      while (lo > b && depth[lo - 1] == frontier_depth) --lo;
      for (std::size_t i = lo; i < hi; ++i) {
        const graph::VertexId u = maps_to[i];
        if (child_count[i] != 0 || !result.active[u])  // active ones expand
          continue;
        if (requested.mark(u)) {
          slot_of[u] = static_cast<std::uint32_t>(requests[v].size());
          requests[v].push_back(u);
        }
        leaf_slots.emplace_back(static_cast<TreeView::NodeId>(i - b),
                                slot_of[u]);
      }
    }
    leaves_begin[n] = leaf_slots.size();

    // Ship the pruned trees through the Lemma 4.1 primitive (every size
    // counts; only requested trees are serialized) and attach from the
    // RECEIVED payloads — never from the pruned forest — so the
    // simulation's data flow matches the distributed algorithm
    // word-for-word.
    for (graph::VertexId v = 0; v < n; ++v)
      for (graph::VertexId u : requests[v])
        if (!bundles.has_payload(u)) {
          const TreeView tree = pruned.tree(u);
          tree.serialize_to(bundles.add(u, tree.serialized_words()));
        }
    const mpc::BundleFetchResult fetch =
        mpc::fetch_bundles(ctx, bundles, requests, "exponentiate.fetch");
    stats.fetch_rounds = fetch.stats.rounds_charged;

    if (leaf_slots.empty()) {
      std::swap(trees, pruned);  // no tree grows: the pruned forest is it
    } else {
      // The new forest's size: each leaf gives way to its pruned tree.
      std::size_t total = pruned.total_nodes();
      for (std::size_t v = 0; v < n; ++v)
        for (std::size_t i = leaves_begin[v]; i < leaves_begin[v + 1]; ++i)
          total += pruned.tree_size(requests[v][leaf_slots[i].second]) - 1;
      // Runs of trees with nothing attached are copied as one block.
      trees.clear();
      trees.reserve(total);
      std::size_t run = 0;  // first tree not yet in `trees`
      for (graph::VertexId v = 0; v < n; ++v) {
        if (leaves_begin[v] == leaves_begin[v + 1]) continue;
        trees.append_trees(pruned, run, v);
        attachments.clear();
        for (std::size_t i = leaves_begin[v]; i < leaves_begin[v + 1]; ++i)
          attachments.push_back(
              {leaf_slots[i].first, fetch.delivered(v, leaf_slots[i].second)});
        trees.append_attached(pruned.tree(v), attachments);
        run = v + 1;
      }
      trees.append_trees(pruned, run, n);
    }
    for (graph::VertexId v = 0; v < n; ++v) {
      const std::size_t sz = trees.tree_size(v);
      // Claim 3.4: the budget holds by construction; enforce it.
      ARBOR_CHECK_MSG(sz <= p.budget,
                      "tree exceeded budget B — Claim 3.4 violated");
      ARBOR_DCHECK(trees.tree(v).is_valid_mapping(g));  // Claim 3.3
      stats.max_tree_nodes = std::max(stats.max_tree_nodes, sz);
      stats.total_tree_nodes += sz;
      if (result.active[v]) ++stats.active_vertices;
    }
    result.max_tree_nodes =
        std::max(result.max_tree_nodes, stats.max_tree_nodes);
    // Claim 3.5 accounting: every vertex's tree lives on its machine.
    ctx.note_global_words(2 * stats.total_tree_nodes + n);
    ctx.note_local_words(2 * stats.max_tree_nodes + 1);
    result.per_step.push_back(stats);
  }
}

}  // namespace arbor::core
