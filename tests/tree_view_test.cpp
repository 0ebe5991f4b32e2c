// Tests for TreeView: Definitions 2.3 (valid mappings), 2.5 (attachment),
// 2.6 (missing neighbors), 2.7 (monotone reachability), the arena
// invariants, and the wire format (round trips and hostile payloads).
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

namespace arbor::core {
namespace {

using graph::Graph;
using graph::VertexId;
using NodeId = TreeView::NodeId;
using Words = std::vector<std::uint64_t>;

/// A hand-built tree from its wire format: one (maps_to, parent) per node
/// in arena order, the root's parent kNoNode.
TreeView tree_of(std::initializer_list<std::pair<VertexId, NodeId>> nodes) {
  Words words{nodes.size()};
  for (const auto& [v, parent] : nodes) {
    words.push_back(v);
    words.push_back(parent);
  }
  return TreeView::deserialize(words);
}

/// `words` must be rejected with an InvariantError naming `rule`.
void expect_rejected(const Words& words, const std::string& rule) {
  try {
    (void)TreeView::deserialize(words);
    ADD_FAILURE() << "accepted a payload that breaks: " << rule;
  } catch (const arbor::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(rule), std::string::npos)
        << e.what();
  }
}

constexpr NodeId kRoot = TreeView::kNoNode;

TEST(TreeView, SingleNode) {
  const TreeView t = TreeView::single(7);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.root_vertex(), 7u);
  EXPECT_EQ(t.height(), 0u);
  EXPECT_TRUE(t.structurally_sound());
}

TEST(TreeView, StarShape) {
  const Graph g = graph::star(5);
  const TreeView t = TreeView::star(0, g.neighbors(0));
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.child_count(0), 4u);
  EXPECT_TRUE(t.is_valid_mapping(g));
  EXPECT_TRUE(t.structurally_sound());
}

TEST(TreeView, LeavesAtDepth) {
  const Graph g = graph::star(4);
  const TreeView t = TreeView::star(0, g.neighbors(0));
  EXPECT_EQ(t.leaves_at_depth(1).size(), 3u);
  EXPECT_TRUE(t.leaves_at_depth(0).empty());  // root has children
  EXPECT_TRUE(t.leaves_at_depth(2).empty());
  const TreeView s = TreeView::single(2);
  EXPECT_EQ(s.leaves_at_depth(0).size(), 1u);  // lone root is a leaf
}

TEST(TreeView, MissingCountEqualsDegreeMinusChildren) {
  // Path 0-1-2; star tree rooted at 1 has children {0, 2}: missing = 0.
  const Graph g = graph::path(3);
  const TreeView t = TreeView::star(1, g.neighbors(1));
  EXPECT_EQ(t.missing_count(g, 0), 0u);
  // Leaves have no children: leaf mapping to 0 has degree 1 → missing 1.
  EXPECT_EQ(t.missing_count(g, 1), 1u);
}

TEST(TreeView, AttachReplacesLeafAndExtendsDepth) {
  // Graph: path 0-1-2-3. Tree A = star at 1 (children 0,2); tree B = star
  // at 2 (children 1,3). Attach B at A's leaf mapping to 2.
  const Graph g = graph::path(4);
  const TreeView a = TreeView::star(1, g.neighbors(1));
  const TreeView b = TreeView::star(2, g.neighbors(2));

  NodeId leaf_to_2 = TreeView::kNoNode;
  for (NodeId x : a.leaves_at_depth(1))
    if (a.vertex_of(x) == 2) leaf_to_2 = x;
  ASSERT_NE(leaf_to_2, TreeView::kNoNode);

  const Words b_words = b.serialize();
  const std::vector<TreeView::Attachment> attachments{{leaf_to_2, b_words}};
  TreeView merged;
  a.attach(attachments, merged);
  EXPECT_EQ(merged.size(), a.size() + b.size() - 1);  // leaf slot reused
  EXPECT_EQ(merged.height(), 2u);
  EXPECT_TRUE(merged.is_valid_mapping(g));
  EXPECT_TRUE(merged.structurally_sound());
  // The leaf now has B's children (mapping to 1 and 3).
  EXPECT_EQ(merged.child_count(leaf_to_2), 2u);
}

TEST(TreeView, AttachRejectsMismatchedRoot) {
  const Graph g = graph::path(3);
  const TreeView a = TreeView::star(1, g.neighbors(1));
  const TreeView wrong = TreeView::single(0);
  NodeId leaf_to_2 = TreeView::kNoNode;
  for (NodeId x : a.leaves_at_depth(1))
    if (a.vertex_of(x) == 2) leaf_to_2 = x;
  const Words wrong_words = wrong.serialize();
  const std::vector<TreeView::Attachment> attachments{
      {leaf_to_2, wrong_words}};
  TreeView out;
  EXPECT_THROW(a.attach(attachments, out), arbor::InvariantError);
}

TEST(TreeView, AttachRejectsNonLeaf) {
  const Graph g = graph::path(3);
  const TreeView a = TreeView::star(1, g.neighbors(1));
  const TreeView b = TreeView::single(1);
  const Words b_words = b.serialize();
  const std::vector<TreeView::Attachment> attachments{
      {a.root(), b_words}};  // root is not a leaf here
  TreeView out;
  EXPECT_THROW(a.attach(attachments, out), arbor::InvariantError);
}

TEST(TreeView, AttachRejectsDuplicateLeaf) {
  const Graph g = graph::path(3);
  const TreeView a = TreeView::star(1, g.neighbors(1));
  const TreeView b = TreeView::single(2);
  NodeId leaf_to_2 = TreeView::kNoNode;
  for (NodeId x : a.leaves_at_depth(1))
    if (a.vertex_of(x) == 2) leaf_to_2 = x;
  const Words b_words = b.serialize();
  const std::vector<TreeView::Attachment> attachments{{leaf_to_2, b_words},
                                                      {leaf_to_2, b_words}};
  TreeView out;
  EXPECT_THROW(a.attach(attachments, out), arbor::InvariantError);
}

TEST(TreeView, ValidMappingDetectsNonEdges) {
  // Tree claims an edge 0-2 that does not exist in the path 0-1-2.
  const TreeView t = tree_of({{0, kRoot}, {2, 0}});
  EXPECT_FALSE(t.is_valid_mapping(graph::path(3)));
  // On a triangle the same tree IS valid (0-2 exists there).
  EXPECT_TRUE(t.is_valid_mapping(graph::cycle(3)));
}

TEST(TreeView, ValidMappingDetectsDuplicateSiblings) {
  // Root 1 with two children both mapping to 0 (0-1 is an edge of path(2)).
  const TreeView t = tree_of({{1, kRoot}, {0, 0}, {0, 0}});
  EXPECT_FALSE(t.is_valid_mapping(graph::path(2)));
}

TEST(TreeView, DeserializeRejectsNonContiguousSiblings) {
  // Root 0 -> {1, 3}, 1 -> {2}: node 3 is the root's child but node 2
  // sits between its siblings, so the root has no single child range.
  expect_rejected({4, 0, kRoot, 1, 0, 2, 1, 3, 0},
                  "siblings must be contiguous");
  // The same tree laid out breadth-first is a valid arena.
  const TreeView t = tree_of({{0, kRoot}, {1, 0}, {3, 0}, {2, 1}});
  EXPECT_TRUE(t.structurally_sound());
  EXPECT_EQ(t.child_count(0), 2u);
  EXPECT_EQ(t.depth_of(3), 2u);
}

TEST(TreeView, MonotoneReachability) {
  // Chain tree: root→a→b mapping to vertices 2,1,0 of path(3) with layers
  // ℓ(0)=1 < ℓ(1)=2 < ℓ(2)=3. Reading each node's path UP to the root must
  // be strictly increasing — true for all three nodes here.
  const TreeView t = tree_of({{2, kRoot}, {1, 0}, {0, 1}});
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
  const TreeView t = tree_of({{1, kRoot}, {0, 0}});
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
  EXPECT_EQ(TreeView::single(0).serialized_words(), 3u);
  const Graph g = graph::star(4);
  EXPECT_EQ(TreeView::star(0, g.neighbors(0)).serialized_words(), 9u);
}


// ---------------- wire format ----------------

TEST(TreeViewSerialization, RoundTripsStarAndPruned) {
  const Graph g = graph::star(8);
  const TreeView star = TreeView::star(0, g.neighbors(0));
  const auto words = star.serialize();
  EXPECT_EQ(words.size(), star.serialized_words());
  const TreeView back = TreeView::deserialize(words);
  ASSERT_EQ(back.size(), star.size());
  for (NodeId x = 0; x < star.size(); ++x) {
    EXPECT_EQ(back.vertex_of(x), star.vertex_of(x));
    EXPECT_EQ(back.parent_of(x), star.parent_of(x));
    EXPECT_EQ(back.depth_of(x), star.depth_of(x));
    EXPECT_EQ(back.child_count(x), star.child_count(x));
  }
  EXPECT_TRUE(back.is_valid_mapping(g));

  TreeView pruned;
  local_prune(star, 3, pruned);
  const TreeView pruned_back = TreeView::deserialize(pruned.serialize());
  EXPECT_EQ(pruned_back.size(), pruned.size());
  EXPECT_TRUE(pruned_back.structurally_sound());
  EXPECT_EQ(pruned_back.serialize(), pruned.serialize());
}

TEST(TreeViewSerialization, SingleNode) {
  const TreeView t = TreeView::single(5);
  const TreeView back = TreeView::deserialize(t.serialize());
  EXPECT_EQ(back.size(), 1u);
  EXPECT_EQ(back.root_vertex(), 5u);
}

TEST(TreeViewSerialization, RejectsCorruptPayloads) {
  const TreeView t = TreeView::single(5);
  auto words = t.serialize();
  words.push_back(0);  // wrong length
  EXPECT_THROW(TreeView::deserialize(words), arbor::InvariantError);

  std::vector<std::uint64_t> empty;
  EXPECT_THROW(TreeView::deserialize(empty), arbor::InvariantError);

  // Parent pointing forward (child before parent).
  std::vector<std::uint64_t> forward{2, /*root*/ 3, 0xffffffffu,
                                     /*node1 parent=5*/ 4, 5};
  EXPECT_THROW(TreeView::deserialize(forward), arbor::InvariantError);
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
