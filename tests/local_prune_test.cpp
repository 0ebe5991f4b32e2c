// Tests for Algorithm 1 (LocalPrune): exact semantics on hand-built trees,
// plus the paper's guarantees as properties — Claim 3.1 (missing grows by
// ≤ k) and Lemma 3.2 (pruned size ≤ NumPathsIn at the root's vertex).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "core/layering.hpp"
#include "core/local_prune.hpp"
#include "core/tree_view.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace arbor::core {
namespace {

using graph::Graph;
using graph::VertexId;
using NodeId = TreeView::NodeId;

/// The forest of one holding local_prune of `tree`'s only tree.
TreeForest pruned_copy(const TreeForest& tree, std::size_t k) {
  TreeForest out;
  local_prune(tree, k, out);
  return out;
}

/// `tree` (a forest of one) with every depth-`depth` leaf replaced by the
/// star of its vertex.
TreeForest grow_stars(const Graph& g, const TreeForest& tree,
                      std::uint32_t depth) {
  const TreeView view = tree.tree(0);
  std::vector<std::vector<std::uint64_t>> stars;
  std::vector<TreeForest::Attachment> attachments;
  const auto leaves = view.leaves_at_depth(depth);
  stars.reserve(leaves.size());
  for (NodeId leaf : leaves) {
    const VertexId u = view.vertex_of(leaf);
    stars.push_back(TreeForest::star(u, g.neighbors(u)).tree(0).serialize());
    attachments.push_back({leaf, stars.back()});
  }
  TreeForest out;
  out.append_attached(view, attachments);
  return out;
}

TEST(LocalPrune, RootWithAtMostKChildrenBecomesSingleton) {
  const Graph g = graph::star(4);
  const TreeForest t = TreeForest::star(0, g.neighbors(0));  // 3 children
  EXPECT_EQ(pruned_copy(t, 3).tree(0).size(), 1u);
  EXPECT_EQ(pruned_copy(t, 5).tree(0).size(), 1u);
}

TEST(LocalPrune, RootAboveKDropsKLargest) {
  const Graph g = graph::star(6);
  const TreeForest t = TreeForest::star(0, g.neighbors(0));  // 5 children
  // All child subtrees have size 1; pruning k=2 keeps 3 of them.
  const TreeForest pruned_forest = pruned_copy(t, 2);
  const TreeView pruned = pruned_forest.tree(0);
  EXPECT_EQ(pruned.size(), 4u);
  EXPECT_EQ(pruned.child_count(0), 3u);
  EXPECT_TRUE(pruned.is_valid_mapping(g));
}

TEST(LocalPrune, PrunesHeaviestSubtreesFirst) {
  // Root 0 (on a star+path graph) with three children: one child carries a
  // long chain below it (heavy), two are bare leaves. k=1 must drop the
  // heavy one... but note each child subtree is pruned FIRST, and a chain
  // node has ≤ 1 child ≤ k, so the chain collapses to a single node before
  // the root compares sizes. This is exactly Algorithm 1's bottom-up
  // semantics — verify the collapse.
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  const Graph g = b.build();

  // Tree: root(0) -> {1, 2, 3}; 3 -> 4 -> 5.
  // Wire format: (maps_to, parent) per node in arena order.
  const TreeForest t = TreeForest::deserialize(std::vector<std::uint64_t>{
      6, 0, TreeView::kNoNode, 1, 0, 2, 0, 3, 0, 4, 3, 5, 4});

  const TreeForest pruned_forest = pruned_copy(t, 1);
  const TreeView pruned = pruned_forest.tree(0);
  // Chain under 3 collapses (each node ≤ 1 child = k → singleton), so all
  // three child subtrees have size 1; k=1 drops one → root keeps 2.
  EXPECT_EQ(pruned.size(), 3u);
  for (NodeId x = 0; x < pruned.size(); ++x)
    EXPECT_LE(pruned.depth_of(x), 1u);
}

TEST(LocalPrune, DeterministicTieBreaks) {
  const Graph g = graph::star(8);
  const TreeForest t = TreeForest::star(0, g.neighbors(0));
  const TreeForest p1_forest = pruned_copy(t, 3);
  const TreeForest p2_forest = pruned_copy(t, 3);
  const TreeView p1 = p1_forest.tree(0);
  const TreeView p2 = p2_forest.tree(0);
  ASSERT_EQ(p1.size(), p2.size());
  for (NodeId x = 0; x < p1.size(); ++x)
    EXPECT_EQ(p1.vertex_of(x), p2.vertex_of(x));
  // star(8): root has 7 children (vertices 1..7), all subtrees size 1.
  // The documented order (size desc, then mapped id asc) puts 1,2,3 first,
  // so those three are dropped and {4,5,6,7} survive.
  std::set<VertexId> kept;
  for (NodeId x = 1; x < p1.size(); ++x) kept.insert(p1.vertex_of(x));
  EXPECT_EQ(kept, (std::set<VertexId>{4, 5, 6, 7}));
}

/// "(v f1 f2 ...)" over the sorted child forms: two trees have equal forms
/// iff they are the same rooted, vertex-labelled tree, whatever their
/// arena order.
std::string form(VertexId v, std::vector<std::string> children) {
  std::sort(children.begin(), children.end());
  std::string out = "(";
  out += std::to_string(v);
  for (const std::string& child : children) {
    out += ' ';
    out += child;
  }
  out += ')';
  return out;
}

std::string canonical(const TreeView& t, NodeId x) {
  std::vector<std::string> children;
  for (NodeId c : t.children(x)) children.push_back(canonical(t, c));
  return form(t.vertex_of(x), std::move(children));
}

/// Algorithm 1 as written: recurse, FULLY sort the pruned child subtrees
/// (size desc, mapped vertex asc, node id asc), drop the first k. Returns
/// the form of the pruned subtree and sets its size.
std::string reference_prune(const TreeView& t, NodeId x, std::size_t k,
                            std::size_t& size) {
  size = 1;
  if (t.child_count(x) <= k) return form(t.vertex_of(x), {});
  struct Sub {
    std::size_t size;
    VertexId v;
    NodeId id;
    std::string form;
  };
  std::vector<Sub> subs;
  for (NodeId c : t.children(x)) {
    Sub sub{0, t.vertex_of(c), c, {}};
    sub.form = reference_prune(t, c, k, sub.size);
    subs.push_back(std::move(sub));
  }
  std::sort(subs.begin(), subs.end(), [](const Sub& a, const Sub& b) {
    if (a.size != b.size) return a.size > b.size;
    return a.v != b.v ? a.v < b.v : a.id < b.id;
  });
  std::vector<std::string> kept;
  for (std::size_t i = k; i < subs.size(); ++i) {
    size += subs[i].size;
    kept.push_back(subs[i].form);
  }
  return form(t.vertex_of(x), std::move(kept));
}

/// Random breadth-first wire payloads, each pruned with k = k_of(trial),
/// must prune exactly as the full sort of Algorithm 1 does: the root gets
/// up to max_fan - 1 children, other nodes up to max_fan - 3, labelled from
/// a small vertex range so labels and pruned sizes repeat among siblings.
template <typename KOf>
void expect_matches_reference(std::uint64_t seed, int trials,
                              std::uint64_t max_fan, KOf k_of) {
  util::SplitRng rng(seed);
  TreeForest pruned;  // one output arena reused across every call
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<std::uint64_t> words{0, rng.next_below(4),
                                     TreeView::kNoNode};
    std::uint64_t count = 1;
    for (std::uint64_t y = 0; y < count && count < 200; ++y) {
      const std::uint64_t fan = rng.next_below(y == 0 ? max_fan : max_fan - 2);
      for (std::uint64_t c = 0; c < fan; ++c, ++count) {
        words.push_back(rng.next_below(4));
        words.push_back(y);
      }
    }
    words[0] = count;
    const TreeForest t = TreeForest::deserialize(words);
    const std::size_t k = k_of(trial);
    local_prune(t, k, pruned);
    std::size_t want_size = 0;
    EXPECT_EQ(canonical(pruned.tree(0), 0),
              reference_prune(t.tree(0), 0, k, want_size))
        << "trial " << trial;
    EXPECT_EQ(pruned.tree(0).size(), want_size);
    EXPECT_TRUE(pruned.tree(0).structurally_sound());
  }
}

// The selection of the k heaviest children must prune exactly as the full
// sort of Algorithm 1 does, ties included: random trees whose siblings
// often share a vertex and a pruned size.
TEST(LocalPrune, MatchesFullSortReference) {
  expect_matches_reference(9, 300, 7, [](int trial) { return trial % 4; });
}

// The same at larger k: fans up to 23 around k = 7..12.
TEST(LocalPrune, MatchesFullSortReferenceAtLargeK) {
  expect_matches_reference(11, 120, 24,
                           [](int trial) { return 7 + trial % 6; });
}

// One pass over a forest prunes each tree exactly as a forest of one does,
// whatever trees sit before it and whatever the output held.
TEST(LocalPrune, ForestPassMatchesTreeByTree) {
  util::SplitRng rng(10);
  const Graph g = graph::gnm(60, 240, rng);
  for (std::size_t k : {1u, 2u, 3u}) {
    TreeForest forest;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const TreeForest one =
          v % 3 == 0 ? TreeForest::single(v)
                     : grow_stars(g, TreeForest::star(v, g.neighbors(v)), 1);
      forest.append_attached(one.tree(0), {});
    }
    TreeForest pruned = TreeForest::star(0, g.neighbors(0));  // overwritten
    local_prune(forest, k, pruned);
    ASSERT_EQ(pruned.num_trees(), forest.num_trees());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      TreeForest one;
      one.append_attached(forest.tree(v), {});
      EXPECT_EQ(pruned.tree(v).serialize(),
                pruned_copy(one, k).tree(0).serialize())
          << "k " << k << ", tree " << v;
    }
  }
}

// Claim 3.1 as a property: for every surviving node,
// missing_after ≤ missing_before + k.
TEST(LocalPrune, Claim31MissingGrowsByAtMostK) {
  util::SplitRng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::gnm(60, 180, rng);
    // Grow a random tree view by repeated star attachment (valid by
    // construction).
    const auto start = static_cast<VertexId>(rng.next_below(60));
    TreeForest tree = TreeForest::star(start, g.neighbors(start));
    for (int grow = 0; grow < 2; ++grow) {
      tree = grow_stars(g, tree, tree.tree(0).height());
      if (tree.total_nodes() > 4000) break;
    }
    const TreeView t = tree.tree(0);
    ASSERT_TRUE(t.is_valid_mapping(g));

    const std::size_t k = 1 + trial % 4;
    // Record missing-before keyed by (vertex path signature): we compare
    // node-wise via the pruned tree's correspondence — prune preserves node
    // identity only implicitly, so compare by matching root-to-node paths.
    // Simpler sound check: missing is determined by (maps_to, #children);
    // children only shrink during pruning, and Claim 3.1 says by ≤ k.
    const TreeForest pruned_forest = pruned_copy(tree, k);
    const TreeView pruned = pruned_forest.tree(0);
    ASSERT_TRUE(pruned.is_valid_mapping(g));

    // Walk both trees in parallel from the roots: children of a pruned
    // node are a subset of the original node's children (by mapped vertex).
    std::vector<std::pair<NodeId, NodeId>> stack{{0, 0}};  // (orig, pruned)
    while (!stack.empty()) {
      const auto [ox, px] = stack.back();
      stack.pop_back();
      const std::size_t missing_before = t.missing_count(g, ox);
      const std::size_t missing_after = pruned.missing_count(g, px);
      EXPECT_LE(missing_after, missing_before + k)
          << "Claim 3.1 violated (trial " << trial << ")";
      std::map<VertexId, NodeId> orig_children;
      for (NodeId c : t.children(ox)) orig_children[t.vertex_of(c)] = c;
      for (NodeId pc : pruned.children(px)) {
        const auto it = orig_children.find(pruned.vertex_of(pc));
        ASSERT_NE(it, orig_children.end())
            << "pruned tree has a child not present in the original";
        stack.emplace_back(it->second, pc);
      }
    }
  }
}

// Lemma 3.2 as a property: with a partial layer assignment of out-degree
// d ≤ k whose root vertex has a finite layer, |pruned| ≤ NumPathsIn(root).
TEST(LocalPrune, Lemma32SizeBoundedByPathCount) {
  util::SplitRng rng(2);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::forest_union(80, 2, rng);
    const LayerAssignment ell = reference_peeling_layering(g, 8);
    ASSERT_TRUE(ell.is_complete());
    const std::size_t d = assignment_outdegree(g, ell);
    const auto paths_in = num_paths_in(g, ell);

    const auto start = static_cast<VertexId>(rng.next_below(80));
    // One round of star expansion to create depth-2 trees.
    const TreeForest t =
        grow_stars(g, TreeForest::star(start, g.neighbors(start)), 1);

    const std::size_t k = std::max<std::size_t>(d, 1);
    const TreeForest pruned = pruned_copy(t, k);
    EXPECT_LE(pruned.tree(0).size(), paths_in[start])
        << "Lemma 3.2 violated at vertex " << start << " (trial " << trial
        << ")";
  }
}

}  // namespace
}  // namespace arbor::core
