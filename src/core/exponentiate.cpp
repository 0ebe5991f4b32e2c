#include "core/exponentiate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/local_prune.hpp"
#include "mpc/bundle_fetch.hpp"
#include "util/assert.hpp"
#include "util/epoch_marks.hpp"

namespace arbor::core {

ExponentiateResult exponentiate_and_local_prune(const graph::Graph& g,
                                                const ExponentiateParams& p,
                                                mpc::MpcContext& ctx) {
  ARBOR_CHECK(p.budget >= 2);
  const std::size_t n = g.num_vertices();
  const auto sqrt_budget = static_cast<std::size_t>(
      std::floor(std::sqrt(static_cast<double>(p.budget))));

  ExponentiateResult result;
  result.trees.reserve(n);
  result.active.assign(n, false);

  // Initialization: star for vertices with degree < B, single node (and
  // inactive) otherwise.
  for (graph::VertexId v = 0; v < n; ++v) {
    if (g.degree(v) < p.budget) {
      result.trees.push_back(TreeView::star(v, g.neighbors(v)));
      result.active[v] = true;
    } else {
      result.trees.push_back(TreeView::single(v));
    }
  }
  ctx.charge(1, "exponentiate.init");

  // Scratch reused across steps: per vertex a pruned tree, L_v and its
  // frontier leaves as (leaf, request slot) pairs in one flat array.
  std::vector<TreeView> pruned(n);
  std::vector<std::vector<graph::VertexId>> requests(n);
  std::vector<std::size_t> leaves_begin(n + 1, 0);
  std::vector<std::pair<TreeView::NodeId, std::uint32_t>> leaf_slots;
  util::EpochMarks requested;
  requested.grow_to(n);
  std::vector<std::uint32_t> slot_of(n);
  mpc::BundleArena bundles;
  std::vector<TreeView::Attachment> attachments;

  for (std::size_t step = 1; step <= p.steps; ++step) {
    ExponentiateStepStats stats;

    // ---- Local prune phase (no communication). ----
    bundles.reset(n);
    for (graph::VertexId v = 0; v < n; ++v) {
      local_prune(result.trees[v], p.prune_k, pruned[v]);
      if (pruned[v].size() > sqrt_budget) result.active[v] = false;
      bundles.set_words(v, pruned[v].serialized_words());
    }

    // ---- Exponentiation / attachment phase. ----
    // Frontier leaves sit at distance exactly 2^{step-1}; an active v
    // requests each distinct active vertex they map to once.
    const auto frontier_depth =
        static_cast<std::uint32_t>(std::size_t{1} << (step - 1));
    leaf_slots.clear();
    for (graph::VertexId v = 0; v < n; ++v) {
      leaves_begin[v] = leaf_slots.size();
      requests[v].clear();
      if (!result.active[v]) continue;
      const TreeView& tree = pruned[v];
      requested.next_epoch();
      for (TreeView::NodeId x = 0; x < tree.size(); ++x) {
        const graph::VertexId u = tree.vertex_of(x);
        if (tree.depth_of(x) != frontier_depth || tree.child_count(x) != 0 ||
            !result.active[u])  // only active vertices expand
          continue;
        if (requested.mark(u)) {
          slot_of[u] = static_cast<std::uint32_t>(requests[v].size());
          requests[v].push_back(u);
        }
        leaf_slots.emplace_back(x, slot_of[u]);
      }
    }
    leaves_begin[n] = leaf_slots.size();

    // Ship the pruned trees through the Lemma 4.1 primitive (every size
    // counts; only requested trees are serialized) and attach from the
    // RECEIVED payloads — never from pruned[u] — so the simulation's data
    // flow matches the distributed algorithm word-for-word.
    for (graph::VertexId v = 0; v < n; ++v)
      for (graph::VertexId u : requests[v])
        if (!bundles.has_payload(u))
          pruned[u].serialize_to(bundles.add(u, pruned[u].serialized_words()));
    const mpc::BundleFetchResult fetch =
        mpc::fetch_bundles(ctx, bundles, requests, "exponentiate.fetch");
    stats.fetch_rounds = fetch.stats.rounds_charged;

    for (graph::VertexId v = 0; v < n; ++v) {
      attachments.clear();
      for (std::size_t i = leaves_begin[v]; i < leaves_begin[v + 1]; ++i)
        attachments.push_back(
            {leaf_slots[i].first, fetch.delivered(v, leaf_slots[i].second)});
      if (attachments.empty())
        std::swap(result.trees[v], pruned[v]);
      else
        pruned[v].attach(attachments, result.trees[v]);
      const std::size_t sz = result.trees[v].size();
      // Claim 3.4: the budget holds by construction; enforce it.
      ARBOR_CHECK_MSG(sz <= p.budget,
                      "tree exceeded budget B — Claim 3.4 violated");
      ARBOR_DCHECK(result.trees[v].is_valid_mapping(g));  // Claim 3.3
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

  return result;
}

}  // namespace arbor::core
