// Tests for TreeView and TreeForest: Definitions 2.3 (valid mappings), 2.5
// (attachment), 2.6 (missing neighbors), 2.7 (monotone reachability), the
// arena invariants, the forest layout, and the wire format (round trips
// and hostile payloads).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"
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
using Words = std::vector<std::uint64_t>;

/// A hand-built tree (a forest of one) from its wire format: one
/// (maps_to, parent) per node in arena order, the root's parent kNoNode.
TreeForest tree_of(std::initializer_list<std::pair<VertexId, NodeId>> nodes) {
  Words words{nodes.size()};
  for (const auto& [v, parent] : nodes) {
    words.push_back(v);
    words.push_back(parent);
  }
  return TreeForest::deserialize(words);
}

/// `words` must be rejected with an InvariantError naming `rule`.
void expect_rejected(const Words& words, const std::string& rule) {
  try {
    (void)TreeForest::deserialize(words);
    ADD_FAILURE() << "accepted a payload that breaks: " << rule;
  } catch (const arbor::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(rule), std::string::npos)
        << e.what();
  }
}

constexpr NodeId kRoot = TreeView::kNoNode;

TEST(TreeView, SingleNode) {
  const TreeForest t_forest = TreeForest::single(7);
  const TreeView t = t_forest.tree(0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.root_vertex(), 7u);
  EXPECT_EQ(t.height(), 0u);
  EXPECT_TRUE(t.structurally_sound());
}

TEST(TreeView, StarShape) {
  const Graph g = graph::star(5);
  const TreeForest t_forest = TreeForest::star(0, g.neighbors(0));
  const TreeView t = t_forest.tree(0);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.child_count(0), 4u);
  EXPECT_TRUE(t.is_valid_mapping(g));
  EXPECT_TRUE(t.structurally_sound());
}

TEST(TreeView, LeavesAtDepth) {
  const Graph g = graph::star(4);
  const TreeForest t_forest = TreeForest::star(0, g.neighbors(0));
  const TreeView t = t_forest.tree(0);
  EXPECT_EQ(t.leaves_at_depth(1).size(), 3u);
  EXPECT_TRUE(t.leaves_at_depth(0).empty());  // root has children
  EXPECT_TRUE(t.leaves_at_depth(2).empty());
  const TreeForest s_forest = TreeForest::single(2);
  const TreeView s = s_forest.tree(0);
  EXPECT_EQ(s.leaves_at_depth(0).size(), 1u);  // lone root is a leaf
}

TEST(TreeView, MissingCountEqualsDegreeMinusChildren) {
  // Path 0-1-2; star tree rooted at 1 has children {0, 2}: missing = 0.
  const Graph g = graph::path(3);
  const TreeForest t_forest = TreeForest::star(1, g.neighbors(1));
  const TreeView t = t_forest.tree(0);
  EXPECT_EQ(t.missing_count(g, 0), 0u);
  // Leaves have no children: leaf mapping to 0 has degree 1 → missing 1.
  EXPECT_EQ(t.missing_count(g, 1), 1u);
}

TEST(TreeView, AttachReplacesLeafAndExtendsDepth) {
  // Graph: path 0-1-2-3. Tree A = star at 1 (children 0,2); tree B = star
  // at 2 (children 1,3). Attach B at A's leaf mapping to 2.
  const Graph g = graph::path(4);
  const TreeForest a_forest = TreeForest::star(1, g.neighbors(1));
  const TreeView a = a_forest.tree(0);
  const TreeForest b_forest = TreeForest::star(2, g.neighbors(2));
  const TreeView b = b_forest.tree(0);

  NodeId leaf_to_2 = TreeView::kNoNode;
  for (NodeId x : a.leaves_at_depth(1))
    if (a.vertex_of(x) == 2) leaf_to_2 = x;
  ASSERT_NE(leaf_to_2, TreeView::kNoNode);

  const Words b_words = b.serialize();
  const std::vector<TreeForest::Attachment> attachments{{leaf_to_2, b_words}};
  TreeForest merged_forest;
  merged_forest.append_attached(a, attachments);
  const TreeView merged = merged_forest.tree(0);
  EXPECT_EQ(merged.size(), a.size() + b.size() - 1);  // leaf slot reused
  EXPECT_EQ(merged.height(), 2u);
  EXPECT_TRUE(merged.is_valid_mapping(g));
  EXPECT_TRUE(merged.structurally_sound());
  // The leaf now has B's children (mapping to 1 and 3).
  EXPECT_EQ(merged.child_count(leaf_to_2), 2u);
}

TEST(TreeView, AttachRejectsMismatchedRoot) {
  const Graph g = graph::path(3);
  const TreeForest a_forest = TreeForest::star(1, g.neighbors(1));
  const TreeView a = a_forest.tree(0);
  const TreeForest wrong_forest = TreeForest::single(0);
  const TreeView wrong = wrong_forest.tree(0);
  NodeId leaf_to_2 = TreeView::kNoNode;
  for (NodeId x : a.leaves_at_depth(1))
    if (a.vertex_of(x) == 2) leaf_to_2 = x;
  const Words wrong_words = wrong.serialize();
  const std::vector<TreeForest::Attachment> attachments{
      {leaf_to_2, wrong_words}};
  TreeForest out;
  EXPECT_THROW(out.append_attached(a, attachments), arbor::InvariantError);
}

TEST(TreeView, AttachRejectsNonLeaf) {
  const Graph g = graph::path(3);
  const TreeForest a_forest = TreeForest::star(1, g.neighbors(1));
  const TreeView a = a_forest.tree(0);
  const TreeForest b_forest = TreeForest::single(1);
  const TreeView b = b_forest.tree(0);
  const Words b_words = b.serialize();
  const std::vector<TreeForest::Attachment> attachments{
      {a.root(), b_words}};  // root is not a leaf here
  TreeForest out;
  EXPECT_THROW(out.append_attached(a, attachments), arbor::InvariantError);
}

TEST(TreeView, AttachRejectsDuplicateLeaf) {
  const Graph g = graph::path(3);
  const TreeForest a_forest = TreeForest::star(1, g.neighbors(1));
  const TreeView a = a_forest.tree(0);
  const TreeForest b_forest = TreeForest::single(2);
  const TreeView b = b_forest.tree(0);
  NodeId leaf_to_2 = TreeView::kNoNode;
  for (NodeId x : a.leaves_at_depth(1))
    if (a.vertex_of(x) == 2) leaf_to_2 = x;
  const Words b_words = b.serialize();
  const std::vector<TreeForest::Attachment> attachments{{leaf_to_2, b_words},
                                                      {leaf_to_2, b_words}};
  TreeForest out;
  EXPECT_THROW(out.append_attached(a, attachments), arbor::InvariantError);
}

TEST(TreeView, ValidMappingDetectsNonEdges) {
  // Tree claims an edge 0-2 that does not exist in the path 0-1-2.
  const TreeForest t_forest = tree_of({{0, kRoot}, {2, 0}});
  const TreeView t = t_forest.tree(0);
  EXPECT_FALSE(t.is_valid_mapping(graph::path(3)));
  // On a triangle the same tree IS valid (0-2 exists there).
  EXPECT_TRUE(t.is_valid_mapping(graph::cycle(3)));
}

TEST(TreeView, ValidMappingDetectsDuplicateSiblings) {
  // Root 1 with two children both mapping to 0 (0-1 is an edge of path(2)).
  const TreeForest t_forest = tree_of({{1, kRoot}, {0, 0}, {0, 0}});
  const TreeView t = t_forest.tree(0);
  EXPECT_FALSE(t.is_valid_mapping(graph::path(2)));
}

TEST(TreeView, DeserializeRejectsNonContiguousSiblings) {
  // Root 0 -> {1, 3}, 1 -> {2}: node 3 is the root's child but node 2
  // sits between its siblings, so the root has no single child range.
  expect_rejected({4, 0, kRoot, 1, 0, 2, 1, 3, 0},
                  "siblings must be contiguous");
  // The same tree laid out breadth-first is a valid arena.
  const TreeForest t_forest = tree_of({{0, kRoot}, {1, 0}, {3, 0}, {2, 1}});
  const TreeView t = t_forest.tree(0);
  EXPECT_TRUE(t.structurally_sound());
  EXPECT_EQ(t.child_count(0), 2u);
  EXPECT_EQ(t.depth_of(3), 2u);
}

TEST(TreeView, MonotoneReachability) {
  // Chain tree: root→a→b mapping to vertices 2,1,0 of path(3) with layers
  // ℓ(0)=1 < ℓ(1)=2 < ℓ(2)=3. Reading each node's path UP to the root must
  // be strictly increasing — true for all three nodes here.
  const TreeForest t_forest = tree_of({{2, kRoot}, {1, 0}, {0, 1}});
  const TreeView t = t_forest.tree(0);
  LayerAssignment a;
  a.layer = {1, 2, 3};
  a.num_layers = 3;
  const auto reach = t.monotonically_reachable(a);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_TRUE(reach[2]);

  // Break monotonicity: make ℓ(1) = 3 (equal to root's vertex layer).
  a.layer = {1, 3, 3};
  const auto reach2 = t.monotonically_reachable(a);
  EXPECT_TRUE(reach2[0]);
  EXPECT_FALSE(reach2[1]);
  EXPECT_FALSE(reach2[2]);  // blocked by its ancestor
}

TEST(TreeView, MonotoneReachabilityInfinityBlocks) {
  const TreeForest t_forest = tree_of({{1, kRoot}, {0, 0}});
  const TreeView t = t_forest.tree(0);
  LayerAssignment a;
  a.layer = {kInfiniteLayer, 2};
  a.num_layers = 2;
  const auto reach = t.monotonically_reachable(a);
  EXPECT_TRUE(reach[0]);
  EXPECT_FALSE(reach[1]);  // maps to an ∞ vertex

  a.layer = {1, kInfiniteLayer};
  const auto reach2 = t.monotonically_reachable(a);
  EXPECT_FALSE(reach2[0]);  // root itself at ∞
}

TEST(TreeView, SerializedWords) {
  EXPECT_EQ(TreeForest::single(0).tree(0).serialized_words(), 3u);
  const Graph g = graph::star(4);
  EXPECT_EQ(TreeForest::star(0, g.neighbors(0)).tree(0).serialized_words(),
            9u);
}

// ---------------- forest layout ----------------

TEST(TreeForest, TreesSitBackToBack) {
  // path 0-1-2-3: star at 1, a lone root at 3, then star at 2 with the
  // star at 1 attached at its leaf mapping to 1.
  const Graph g = graph::path(4);
  TreeForest f;
  f.append_attached(TreeForest::star(1, g.neighbors(1)).tree(0), {});
  f.append_attached(TreeForest::single(3).tree(0), {});
  const TreeForest two = TreeForest::star(2, g.neighbors(2));
  const Words star_1 = f.tree(0).serialize();
  const TreeForest::Attachment at_1{0, star_1};
  ASSERT_EQ(two.tree(0).vertex_of(1), 1u);
  const TreeForest::Attachment at_leaf{1, star_1};
  f.append_attached(two.tree(0), {&at_leaf, 1});
  EXPECT_THROW(f.append_attached(two.tree(0), {&at_1, 1}),
               arbor::InvariantError);  // the root is not a leaf

  ASSERT_EQ(f.num_trees(), 3u);
  EXPECT_EQ(f.begin(0), 0u);
  EXPECT_EQ(f.begin(1), 3u);
  EXPECT_EQ(f.begin(2), 4u);
  EXPECT_EQ(f.tree_size(2), 5u);  // 3 + 3 - 1: the leaf slot is reused
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_TRUE(f.tree(t).structurally_sound()) << "tree " << t;
    EXPECT_TRUE(f.tree(t).is_valid_mapping(g)) << "tree " << t;
  }
  EXPECT_EQ(f.tree(1).size(), 1u);
  EXPECT_EQ(f.tree(1).root_vertex(), 3u);
  EXPECT_EQ(f.tree(2).height(), 2u);
  // Node ids are local: tree 2's node 1 is the column entry begin(2) + 1.
  EXPECT_EQ(f.column(TreeView::kMapsTo)[f.begin(2) + 1],
            f.tree(2).vertex_of(1));
  EXPECT_EQ(f.tree(2).parent_of(1), 0u);
}

/// Tree `got` has every column of tree `want`.
void expect_same_tree(const TreeView& got, const TreeView& want) {
  ASSERT_EQ(got.size(), want.size());
  for (NodeId x = 0; x < want.size(); ++x) {
    EXPECT_EQ(got.vertex_of(x), want.vertex_of(x)) << "node " << x;
    EXPECT_EQ(got.parent_of(x), want.parent_of(x)) << "node " << x;
    EXPECT_EQ(got.depth_of(x), want.depth_of(x)) << "node " << x;
    EXPECT_EQ(got.child_count(x), want.child_count(x)) << "node " << x;
    if (want.child_count(x) != 0) {
      EXPECT_EQ(*got.children(x).begin(), *want.children(x).begin())
          << "node " << x;
    }
  }
}

TEST(TreeForest, GrowingKeepsEveryTree) {
  // Appending past the reserved room moves the buffer; the trees already
  // in it must come through unchanged, every column. Odd trees are copied
  // out of the middle of another forest.
  const Graph g = graph::star(6);
  TreeForest all;
  std::vector<TreeForest> want;
  for (VertexId v = 0; v < 6; ++v) {
    want.push_back(TreeForest::star(v, g.neighbors(v)));
    all.append_attached(want.back().tree(0), {});
  }
  TreeForest f;
  f.reserve(2);
  for (VertexId v = 0; v < 6; ++v) {
    if (v % 2 == 0) {
      f.append_attached(want[v].tree(0), {});
    } else {
      f.append_trees(all, v, v + 1);
    }
  }
  ASSERT_EQ(f.num_trees(), 6u);
  EXPECT_EQ(f.total_nodes(), 6u + 2 * g.num_edges());
  for (VertexId v = 0; v < 6; ++v) {
    SCOPED_TRACE(v);
    expect_same_tree(f.tree(v), want[v].tree(0));
  }
  f.clear();
  EXPECT_EQ(f.num_trees(), 0u);
  EXPECT_EQ(f.total_nodes(), 0u);

  // A cleared forest's buffer still holds the old columns: trees written
  // over them must not inherit any child range. Path 0-1-2: the star at 1
  // with the star at 2 attached at its leaf mapping to 2.
  const Graph p = graph::path(3);
  const TreeForest one = TreeForest::star(1, p.neighbors(1));
  const Words two = TreeForest::star(2, p.neighbors(2)).tree(0).serialize();
  const TreeForest::Attachment at_leaf{2, two};
  ASSERT_EQ(one.tree(0).vertex_of(2), 2u);
  // A chain: every node but the last has a child, so stale counts are 1.
  const TreeForest chain =
      tree_of({{0, kRoot}, {1, 0}, {2, 1}, {3, 2}, {4, 3}});
  f.append_trees(chain, 0, 1);
  f.clear();
  f.append_attached(one.tree(0), {&at_leaf, 1});
  TreeForest fresh;
  fresh.append_attached(one.tree(0), {&at_leaf, 1});
  EXPECT_TRUE(f.tree(0).structurally_sound());
  expect_same_tree(f.tree(0), fresh.tree(0));
}

TEST(TreeForest, AssignStarsCopiesRows) {
  // Tree v is v's star below the degree cut and a lone root from it on; a
  // second, smaller assignment reuses the buffer and leaves nothing behind.
  util::SplitRng rng(3);
  const Graph big = graph::gnm(50, 200, rng);
  const Graph small = graph::path(4);
  TreeForest f;
  for (const Graph* g : {&big, &small}) {
    const std::size_t cut = g == &big ? 9 : 3;
    f.assign_stars(*g, cut);
    ASSERT_EQ(f.num_trees(), g->num_vertices());
    for (VertexId v = 0; v < g->num_vertices(); ++v) {
      SCOPED_TRACE(v);
      const TreeForest want = g->degree(v) < cut
                                  ? TreeForest::star(v, g->neighbors(v))
                                  : TreeForest::single(v);
      expect_same_tree(f.tree(v), want.tree(0));
    }
  }
}

TEST(TreeForest, AttachRejectsOutputHoldingTheTree) {
  const Graph g = graph::path(3);
  TreeForest f = TreeForest::star(1, g.neighbors(1));
  try {
    f.append_attached(f.tree(0), {});
    ADD_FAILURE() << "appended a tree into its own forest";
  } catch (const arbor::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("output aliases the tree"),
              std::string::npos)
        << e.what();
  }
}

// ---------------- wire format ----------------

TEST(TreeViewSerialization, RoundTripsStarAndPruned) {
  const Graph g = graph::star(8);
  const TreeForest star_forest = TreeForest::star(0, g.neighbors(0));
  const TreeView star = star_forest.tree(0);
  const auto words = star.serialize();
  EXPECT_EQ(words.size(), star.serialized_words());
  const TreeForest back_forest = TreeForest::deserialize(words);
  const TreeView back = back_forest.tree(0);
  ASSERT_EQ(back.size(), star.size());
  for (NodeId x = 0; x < star.size(); ++x) {
    EXPECT_EQ(back.vertex_of(x), star.vertex_of(x));
    EXPECT_EQ(back.parent_of(x), star.parent_of(x));
    EXPECT_EQ(back.depth_of(x), star.depth_of(x));
    EXPECT_EQ(back.child_count(x), star.child_count(x));
  }
  EXPECT_TRUE(back.is_valid_mapping(g));

  TreeForest pruned_forest;
  local_prune(star_forest, 3, pruned_forest);
  const TreeView pruned = pruned_forest.tree(0);
  const TreeForest back_pruned = TreeForest::deserialize(pruned.serialize());
  const TreeView pruned_back = back_pruned.tree(0);
  EXPECT_EQ(pruned_back.size(), pruned.size());
  EXPECT_TRUE(pruned_back.structurally_sound());
  EXPECT_EQ(pruned_back.serialize(), pruned.serialize());
}

TEST(TreeViewSerialization, SingleNode) {
  const TreeForest t_forest = TreeForest::single(5);
  const TreeView t = t_forest.tree(0);
  const TreeForest back_forest = TreeForest::deserialize(t.serialize());
  const TreeView back = back_forest.tree(0);
  EXPECT_EQ(back.size(), 1u);
  EXPECT_EQ(back.root_vertex(), 5u);
}

TEST(TreeViewSerialization, RejectsCorruptPayloads) {
  const TreeForest t_forest = TreeForest::single(5);
  const TreeView t = t_forest.tree(0);
  auto words = t.serialize();
  words.push_back(0);  // wrong length
  EXPECT_THROW(TreeForest::deserialize(words), arbor::InvariantError);

  std::vector<std::uint64_t> empty;
  EXPECT_THROW(TreeForest::deserialize(empty), arbor::InvariantError);

  // Parent pointing forward (child before parent).
  std::vector<std::uint64_t> forward{2, /*root*/ 3, 0xffffffffu,
                                     /*node1 parent=5*/ 4, 5};
  EXPECT_THROW(TreeForest::deserialize(forward), arbor::InvariantError);
}

TEST(TreeViewSerialization, RejectsCountWhoseLengthOverflows) {
  // 2·2^63 + 1 wraps to 1 = the payload's length; the count must still be
  // rejected, by name, rather than sizing an allocation from it.
  expect_rejected({std::uint64_t{1} << 63}, "node count overflows");
  expect_rejected({(std::uint64_t{1} << 63) + 1, 7, kRoot},
                  "node count overflows");
}

TEST(TreeViewSerialization, RejectsWordsAbove32Bits) {
  // maps_to 2^32 + 5 would truncate to vertex 5.
  expect_rejected({1, (std::uint64_t{1} << 32) + 5, kRoot},
                  "maps_to word above 32 bits");
  // parent 2^32 would truncate to the root.
  expect_rejected({2, 3, kRoot, 4, std::uint64_t{1} << 32},
                  "parent word above 32 bits");
}

TEST(TreeViewSerialization, RejectsRootWithParent) {
  expect_rejected({1, 5, 0}, "root parent is not kNoNode");
  expect_rejected({2, 3, 1, 4, 0}, "root parent is not kNoNode");
}

}  // namespace
}  // namespace arbor::core
