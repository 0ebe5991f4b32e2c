#include "core/tree_view.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/epoch_marks.hpp"

namespace arbor::core {

namespace {

/// Node count of a serialized tree after checking its header. The length
/// check avoids computing 2·count + 1, which can overflow.
std::size_t wire_count(std::span<const std::uint64_t> words) {
  ARBOR_CHECK_MSG(!words.empty() && words[0] >= 1, "tree wire: no root");
  ARBOR_CHECK_MSG(words[0] <= (words.size() - 1) / 2,
                  "tree wire: node count overflows the payload length");
  ARBOR_CHECK_MSG(words.size() == 2 * words[0] + 1,
                  "tree wire: length mismatch");
  ARBOR_CHECK_MSG(words[2] == TreeView::kNoNode,
                  "tree wire: root parent is not kNoNode");
  return static_cast<std::size_t>(words[0]);
}

/// Word `i` of a serialized tree as the 32-bit id it must be.
std::uint32_t wire_id(std::span<const std::uint64_t> words, std::size_t i) {
  ARBOR_CHECK_MSG(words[i] <= 0xffffffffu,
                  i % 2 == 1 ? "tree wire: maps_to word above 32 bits"
                             : "tree wire: parent word above 32 bits");
  return static_cast<std::uint32_t>(words[i]);
}

}  // namespace

void TreeView::reset(std::size_t size, graph::VertexId v) {
  size_ = size;
  data_.resize(5 * size);
  // The two child-range columns are adjacent: clear both at once.
  std::fill(col(kFirstChild), col(kFirstChild) + 2 * size, 0);
  col(kMapsTo)[0] = v;
  col(kParent)[0] = kNoNode;
  col(kDepth)[0] = 0;
}

TreeView TreeView::star(graph::VertexId v,
                        std::span<const graph::VertexId> neighbors) {
  TreeView t;
  t.reset(neighbors.size() + 1, v);
  for (NodeId x = 1; x < t.size_; ++x) t.link(x, neighbors[x - 1], 0);
  return t;
}

std::uint32_t TreeView::height() const noexcept {
  return size_ == 0 ? 0 : *std::max_element(col(kDepth), col(kDepth) + size_);
}

std::vector<TreeView::NodeId> TreeView::leaves_at_depth(
    std::uint32_t depth) const {
  std::vector<NodeId> out;
  for (NodeId x = 0; x < size_; ++x)
    if (depth_of(x) == depth && child_count(x) == 0) out.push_back(x);
  return out;
}

void TreeView::attach(std::span<const Attachment> attachments,
                      TreeView& out) const {
  // Definition 2.5's preconditions; per-thread marks find duplicate leaves.
  ARBOR_CHECK_MSG(&out != this, "attach: output aliases the tree");
  thread_local util::EpochMarks leaf_marks;
  leaf_marks.grow_to(size_);
  leaf_marks.next_epoch();
  std::size_t total = size_;
  for (const auto& [leaf, tree] : attachments) {
    ARBOR_CHECK_MSG(leaf < size_, "attach: no such node");
    ARBOR_CHECK_MSG(child_count(leaf) == 0, "attach: not a leaf");
    ARBOR_CHECK_MSG(leaf_marks.mark(leaf), "attach: duplicate leaf");
    total += wire_count(tree) - 1;
    ARBOR_CHECK_MSG(wire_id(tree, 1) == vertex_of(leaf),
                    "attach: replacement root maps to different vertex");
  }

  // Copy this arena, then append each replacement's non-root nodes as one
  // block; the leaf's slot stands in for the replacement's root.
  out.reset(total, root_vertex());
  for (Column c : {kMapsTo, kParent, kDepth, kFirstChild, kChildCount})
    std::copy(col(c), col(c) + size_, out.col(c));
  auto next = static_cast<NodeId>(size_);
  for (const auto& [leaf, tree] : attachments) {
    const NodeId base = next - 1;  // replacement node y lands at base + y
    for (std::size_t y = 1; 2 * y + 1 < tree.size(); ++y, ++next) {
      const NodeId p = wire_id(tree, 2 * y + 2);
      ARBOR_CHECK_MSG(p < y, "tree wire: a parent must precede its child");
      out.link(next, wire_id(tree, 2 * y + 1), p == 0 ? leaf : base + p);
    }
  }
  ARBOR_DCHECK(out.structurally_sound());
}

std::size_t TreeView::missing_count(const graph::Graph& g, NodeId x) const {
  ARBOR_CHECK_MSG(x < size_, "missing_count: no such node");
  const std::size_t deg = g.degree(vertex_of(x));
  ARBOR_CHECK_MSG(child_count(x) <= deg,
                  "more children than graph neighbors — invalid mapping");
  return deg - child_count(x);
}

bool TreeView::is_valid_mapping(const graph::Graph& g) const {
  std::vector<graph::VertexId> siblings;
  for (NodeId x = 0; x < size_; ++x) {
    if (vertex_of(x) >= g.num_vertices()) return false;
    // Tree edge must map to a graph edge (Def 2.3 condition 1).
    if (x != 0 && !g.has_edge(vertex_of(x), vertex_of(parent_of(x))))
      return false;
    // Children of x must map to distinct vertices (condition 2).
    siblings.clear();
    for (NodeId c : children(x)) siblings.push_back(vertex_of(c));
    std::sort(siblings.begin(), siblings.end());
    if (std::adjacent_find(siblings.begin(), siblings.end()) != siblings.end())
      return false;
  }
  return true;
}

std::vector<bool> TreeView::monotonically_reachable(
    const LayerAssignment& assignment) const {
  // Walk top-down: a node is reachable iff its parent is reachable and the
  // layers strictly DECREASE going away from the root (Def 2.7 reads the
  // path from the node up to the root as strictly increasing).
  std::vector<bool> reachable(size_, false);
  const auto layer_of = [&](NodeId x) {
    return assignment.layer.at(vertex_of(x));
  };
  if (size_ != 0) reachable[0] = layer_of(0) != kInfiniteLayer;
  for (NodeId x = 0; x < size_; ++x) {
    if (!reachable[x]) continue;
    for (NodeId c : children(x)) {
      const Layer lc = layer_of(c);
      reachable[c] = lc != kInfiniteLayer && lc < layer_of(x);
    }
  }
  return reachable;
}

bool TreeView::structurally_sound() const {
  if (size_ == 0 || parent_of(0) != kNoNode || depth_of(0) != 0) return false;
  // Each non-root node must sit in its parent's child range; as the ranges
  // hold size - 1 slots in total, they then hold exactly the children.
  std::size_t slots = child_count(0);
  for (NodeId x = 1; x < size_; ++x) {
    const NodeId p = parent_of(x);
    if (p >= x || depth_of(p) + 1 != depth_of(x)) return false;
    if (x < col(kFirstChild)[p] || x - col(kFirstChild)[p] >= child_count(p))
      return false;
    slots += child_count(x);
  }
  return slots == size_ - 1;
}

void TreeView::serialize_to(std::span<std::uint64_t> out) const {
  ARBOR_CHECK_MSG(out.size() == serialized_words(), "serialize_to: size");
  out[0] = size_;
  for (std::size_t x = 0; x < size_; ++x) {
    out[1 + 2 * x] = col(kMapsTo)[x];
    out[2 + 2 * x] = col(kParent)[x];
  }
}

TreeView TreeView::deserialize(std::span<const std::uint64_t> words) {
  // The payload attached at a lone root of its root's vertex is its tree.
  wire_count(words);  // the header first: it proves words[1] exists
  const Attachment whole{0, words};
  TreeView t;
  single(wire_id(words, 1)).attach({&whole, 1}, t);
  ARBOR_CHECK_MSG(t.structurally_sound(), "deserialize: malformed arena");
  return t;
}

}  // namespace arbor::core
