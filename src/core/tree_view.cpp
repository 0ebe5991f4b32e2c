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

void TreeForest::reserve(std::size_t total_nodes) {
  const std::size_t old = capacity();
  if (total_nodes <= old) return;
  std::vector<std::uint32_t> grown(5 * total_nodes);
  for (std::size_t c = 0; c < 5; ++c)
    std::copy_n(data_.data() + c * old, this->total_nodes(),
                grown.data() + c * total_nodes);
  data_.swap(grown);
}

std::size_t TreeForest::open(std::size_t size, graph::VertexId v) {
  const std::size_t b = total_nodes();
  if (b + size > capacity()) reserve(std::max(b + size, 2 * capacity()));
  begin_.push_back(b + size);
  col(TreeView::kMapsTo)[b] = v;
  col(TreeView::kParent)[b] = kNoNode;
  col(TreeView::kDepth)[b] = 0;
  col(TreeView::kFirstChild)[b] = 0;
  col(TreeView::kChildCount)[b] = 0;
  return b;
}

void TreeForest::assign_stars(const graph::Graph& g,
                              std::size_t degree_below) {
  const std::size_t n = g.num_vertices();
  begin_.resize(n + 1);
  for (graph::VertexId v = 0; v < n; ++v)
    begin_[v + 1] =
        begin_[v] + 1 + (g.degree(v) < degree_below ? g.degree(v) : 0);
  const std::size_t total = begin_[n];
  if (total > capacity()) data_.assign(5 * total, 0);  // trees gone: no copy
  // Column by column: every non-root node is a depth-1 leaf under node 0;
  // then each root and its row.
  std::fill_n(col(TreeView::kParent), total, 0);
  std::fill_n(col(TreeView::kDepth), total, 1);
  std::fill_n(col(TreeView::kFirstChild), total, 0);
  std::fill_n(col(TreeView::kChildCount), total, 0);
  std::uint32_t* maps_to = col(TreeView::kMapsTo);
  for (graph::VertexId v = 0; v < n; ++v) {
    const std::size_t b = begin_[v];
    const auto deg = static_cast<std::uint32_t>(begin_[v + 1] - b - 1);
    maps_to[b] = v;
    col(TreeView::kParent)[b] = kNoNode;
    col(TreeView::kDepth)[b] = 0;
    col(TreeView::kFirstChild)[b] = deg == 0 ? 0 : 1;
    col(TreeView::kChildCount)[b] = deg;
    const auto row = g.neighbors(v).first(deg);
    std::copy(row.begin(), row.end(), maps_to + b + 1);
  }
}

TreeForest TreeForest::star(graph::VertexId v,
                            std::span<const graph::VertexId> neighbors) {
  TreeForest f;
  const std::size_t b = f.open(neighbors.size() + 1, v);
  // The root's children are nodes 1..deg in row order, all at depth 1.
  std::copy(neighbors.begin(), neighbors.end(),
            f.col(TreeView::kMapsTo) + b + 1);
  for (Column c : {TreeView::kParent, TreeView::kFirstChild,
                   TreeView::kChildCount})
    std::fill_n(f.col(c) + b + 1, neighbors.size(), 0);
  std::fill_n(f.col(TreeView::kDepth) + b + 1, neighbors.size(), 1);
  f.col(TreeView::kFirstChild)[b] = neighbors.empty() ? 0 : 1;
  f.col(TreeView::kChildCount)[b] =
      static_cast<std::uint32_t>(neighbors.size());
  return f;
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

void TreeForest::append_trees(const TreeForest& from, std::size_t first,
                              std::size_t last) {
  ARBOR_CHECK_MSG(&from != this && first <= last && last <= from.num_trees(),
                  "append_trees: bad range");
  // Node ids are local, so the trees' columns copy verbatim as one block.
  const std::size_t b = total_nodes();
  const std::size_t from_b = from.begin_[first];
  const std::size_t nodes = from.begin_[last] - from_b;
  if (b + nodes > capacity()) reserve(std::max(b + nodes, 2 * capacity()));
  for (std::size_t c = 0; c < 5; ++c)
    std::copy_n(from.column(static_cast<Column>(c)) + from_b, nodes,
                col(static_cast<Column>(c)) + b);
  for (std::size_t t = first; t < last; ++t)
    begin_.push_back(b + from.begin_[t + 1] - from_b);
}

void TreeForest::append_attached(const TreeView& tree,
                                 std::span<const Attachment> attachments) {
  // Definition 2.5's preconditions; per-thread marks find duplicate leaves.
  ARBOR_CHECK_MSG(tree.forest_ != this, "attach: output aliases the tree");
  thread_local util::EpochMarks leaf_marks;
  leaf_marks.grow_to(tree.size());
  leaf_marks.next_epoch();
  std::size_t total = tree.size();
  for (const auto& [leaf, words] : attachments) {
    ARBOR_CHECK_MSG(leaf < tree.size(), "attach: no such node");
    ARBOR_CHECK_MSG(tree.child_count(leaf) == 0, "attach: not a leaf");
    ARBOR_CHECK_MSG(leaf_marks.mark(leaf), "attach: duplicate leaf");
    total += wire_count(words) - 1;
    ARBOR_CHECK_MSG(wire_id(words, 1) == tree.vertex_of(leaf),
                    "attach: replacement root maps to different vertex");
  }

  // Copy the tree, then append each replacement's non-root nodes as one
  // block; the leaf's slot stands in for the replacement's root.
  const std::size_t b = open(total, tree.root_vertex());
  for (Column c : {TreeView::kMapsTo, TreeView::kParent, TreeView::kDepth,
                   TreeView::kFirstChild, TreeView::kChildCount})
    std::copy_n(tree.col(c), tree.size(), col(c) + b);
  for (Column c : {TreeView::kFirstChild, TreeView::kChildCount})
    std::fill_n(col(c) + b + tree.size(), total - tree.size(), 0);
  auto next = static_cast<NodeId>(tree.size());
  for (const auto& [leaf, words] : attachments) {
    const NodeId base = next - 1;  // replacement node y lands at base + y
    for (std::size_t y = 1; 2 * y + 1 < words.size(); ++y, ++next) {
      const NodeId p = wire_id(words, 2 * y + 2);
      ARBOR_CHECK_MSG(p < y, "tree wire: a parent must precede its child");
      link(b, next, wire_id(words, 2 * y + 1), p == 0 ? leaf : base + p);
    }
  }
  ARBOR_DCHECK(this->tree(num_trees() - 1).structurally_sound());
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
    if (x < at(kFirstChild, p) || x - at(kFirstChild, p) >= child_count(p))
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

TreeForest TreeForest::deserialize(std::span<const std::uint64_t> words) {
  // The payload attached at a lone root of its root's vertex is its tree.
  wire_count(words);  // the header first: it proves words[1] exists
  const Attachment whole{0, words};
  const TreeForest root = single(wire_id(words, 1));
  TreeForest t;
  t.append_attached(root.tree(0), {&whole, 1});
  ARBOR_CHECK_MSG(t.tree(0).structurally_sound(),
                  "deserialize: malformed arena");
  return t;
}

}  // namespace arbor::core
