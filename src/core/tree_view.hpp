// Rooted trees with valid mappings into a graph — Definitions 2.3–2.7.
//
// During graph exponentiation every vertex v maintains a rooted tree T_v
// whose nodes map to graph vertices (the root to v itself). The mapping is
// "valid" (Def 2.3) when every tree edge maps to a graph edge and the
// children of any tree node map to *distinct* graph vertices; a vertex of G
// may still appear many times across different branches — once per path
// that reaches it — which is exactly how the algorithm forces a tree-like
// view of a general graph's neighborhoods (paper §1.4).
//
// Trees live in a forest arena (TreeForest): every tree sits back to back
// in one struct-of-arrays buffer whose five columns (maps_to, parent,
// depth, first child, child count) hold all trees' nodes, tree t in the
// range [begin(t), begin(t+1)). Node ids are local to each tree: node 0 is
// the root, every parent comes before its children, and each node's
// children occupy one contiguous id range. Algorithm 2 keeps one forest per
// step, tree v being vertex v's, so no tree owns an allocation and the
// per-vertex work of a step is a plain range split; a single tree is a
// forest of one. A TreeView is a non-owning read-only view of one tree,
// valid until its forest is cleared, grown or destroyed.
//
// Layout = wire format: a tree ships as [size, (maps_to, parent)...] in
// arena order — two of its columns, so serializing is a copy — and
// deserializing rebuilds the rest in one pass that rejects, by name, any
// payload that is not such an arena.
//
// Supported operations mirror the paper's definitions: pruning (Def 2.4,
// implemented in core/local_prune), attachment of other trees at leaves
// (Def 2.5), missing-neighbor counts (Def 2.6), and strict monotone
// reachability w.r.t. a layer assignment (Def 2.7).
#pragma once

#include <cstdint>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "core/layering.hpp"
#include "graph/graph.hpp"
#include "util/assert.hpp"

namespace arbor::core {

class TreeForest;

class TreeView {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kNoNode = 0xffffffffu;
  enum Column { kMapsTo, kParent, kDepth, kFirstChild, kChildCount };

  std::size_t size() const noexcept { return size_; }
  NodeId root() const noexcept { return 0; }
  graph::VertexId vertex_of(NodeId x) const { return at(kMapsTo, x); }
  graph::VertexId root_vertex() const { return vertex_of(0); }
  NodeId parent_of(NodeId x) const { return at(kParent, x); }
  std::uint32_t depth_of(NodeId x) const { return at(kDepth, x); }
  std::uint32_t child_count(NodeId x) const { return at(kChildCount, x); }
  std::ranges::iota_view<NodeId, NodeId> children(NodeId x) const {
    return {at(kFirstChild, x), at(kFirstChild, x) + child_count(x)};
  }
  std::uint32_t height() const noexcept;

  /// Leaves whose depth is exactly `depth` (Algorithm 2's attachment
  /// frontier at distance 2^{i-1}).
  std::vector<NodeId> leaves_at_depth(std::uint32_t depth) const;

  /// Definition 2.6: |Missing(x)| = |N_G(map(x)) \ {map(c) : c child of x}|.
  /// With a valid mapping the children map to distinct neighbors, so this
  /// equals deg_G(map(x)) - #children(x).
  std::size_t missing_count(const graph::Graph& g, NodeId x) const;

  /// Definition 2.3: full validation of the mapping against g (every tree
  /// edge is a graph edge; siblings map to distinct vertices). O(size·log).
  bool is_valid_mapping(const graph::Graph& g) const;

  /// Definition 2.7: per node, whether the path from the node up to the
  /// root has strictly increasing finite layers under `assignment`.
  std::vector<bool> monotonically_reachable(
      const LayerAssignment& assignment) const;

  /// Words needed to ship this tree as an MPC bundle: (maps_to, parent) per
  /// node plus a length header.
  std::size_t serialized_words() const noexcept { return 2 * size() + 1; }

  /// Wire format: [size, maps_to_0, parent_0, maps_to_1, parent_1, ...] in
  /// arena order — what Algorithm 2 ships through the Lemma 4.1 bundle
  /// fetch. serialize_to fills `out` of exactly serialized_words() words.
  void serialize_to(std::span<std::uint64_t> out) const;
  std::vector<std::uint64_t> serialize() const {
    std::vector<std::uint64_t> words(serialized_words());
    serialize_to(words);
    return words;
  }

  /// Internal consistency of the arena (root, parent/child/depth
  /// agreement); run by deserialize and by debug checks.
  bool structurally_sound() const;

 private:
  friend class TreeForest;
  TreeView(const TreeForest* forest, const std::uint32_t* base,
           std::size_t stride, std::size_t size)
      : forest_(forest), base_(base), stride_(stride), size_(size) {}

  /// Column `c` of this tree: entry x belongs to local node x.
  const std::uint32_t* col(Column c) const { return base_ + c * stride_; }
  std::uint32_t at(Column c, NodeId x) const {
    ARBOR_DCHECK(x < size_);
    return col(c)[x];
  }

  const TreeForest* forest_;
  const std::uint32_t* base_;  // this tree's first maps_to entry
  std::size_t stride_;         // distance between two columns
  std::size_t size_;
};

class TreeForest {
 public:
  using NodeId = TreeView::NodeId;
  using Column = TreeView::Column;
  static constexpr NodeId kNoNode = TreeView::kNoNode;

  /// Definition 2.5 input: a leaf and the serialized tree replacing it.
  using Attachment = std::pair<NodeId, std::span<const std::uint64_t>>;

  TreeForest() = default;  ///< no trees: a forest to append trees to

  /// Forest of one single-node tree whose root maps to v (the
  /// inactive-vertex initial tree of Algorithm 2).
  static TreeForest single(graph::VertexId v) { return star(v, {}); }

  /// Forest of one star: root maps to v, one child per (distinct) neighbor
  /// — the active-vertex initial tree of Algorithm 2.
  static TreeForest star(graph::VertexId v,
                         std::span<const graph::VertexId> neighbors);

  /// Forest of one tree read from its wire format; validates the arena
  /// invariants and rejects, by name, any payload that breaks them.
  static TreeForest deserialize(std::span<const std::uint64_t> words);

  std::size_t num_trees() const noexcept { return begin_.size() - 1; }
  std::size_t total_nodes() const noexcept { return begin_.back(); }
  /// Tree t's first node in the columns.
  std::size_t begin(std::size_t t) const { return begin_[t]; }
  std::size_t tree_size(std::size_t t) const {
    return begin_[t + 1] - begin_[t];
  }
  TreeView tree(std::size_t t) const {
    ARBOR_DCHECK(t < num_trees());
    return {this, data_.data() + begin_[t], capacity(), tree_size(t)};
  }

  /// Column `c` over every tree: tree t's local node x is entry begin(t)+x.
  const std::uint32_t* column(Column c) const {
    return data_.data() + c * capacity();
  }

  /// Drops every tree; the buffer stays for the trees appended next.
  void clear() { begin_.assign(1, 0); }
  /// Room for `total_nodes` nodes in all, so appending up to that many
  /// never moves the buffer.
  void reserve(std::size_t total_nodes);

  /// Replaces the forest by Algorithm 2's initial trees, copied straight
  /// from g's CSR rows: tree v is v's star when deg(v) < `degree_below`,
  /// and a lone root mapping to v otherwise.
  void assign_stars(const graph::Graph& g, std::size_t degree_below);

  /// Appends copies of trees [first, last) of `from` (another forest).
  void append_trees(const TreeForest& from, std::size_t first,
                    std::size_t last);

  /// Definition 2.5: appends `tree` (not one of this forest's) with each
  /// attachment's distinct leaf replaced by a copy of its serialized tree,
  /// whose root maps to the leaf's vertex; the copies are validated. With
  /// no attachments this copies `tree`.
  void append_attached(const TreeView& tree,
                       std::span<const Attachment> attachments);

 private:
  friend void local_prune(const TreeForest& forest, std::size_t k,
                          TreeForest& out);

  /// Nodes the buffer holds room for: each column's length.
  std::size_t capacity() const noexcept { return data_.size() / 5; }
  std::uint32_t* col(Column c) { return data_.data() + c * capacity(); }

  /// Appends a tree of `size` nodes whose root maps to v and has no
  /// children yet; returns its first node. The caller writes every other
  /// node's columns.
  std::size_t open(std::size_t size, graph::VertexId v);

  /// Node x of the tree at `b` maps to v; `parent` is earlier and its
  /// children end right before x.
  void link(std::size_t b, NodeId x, graph::VertexId v, NodeId parent) {
    ARBOR_CHECK_MSG(parent < x, "tree arena: a parent must precede its child");
    std::uint32_t& first = col(TreeView::kFirstChild)[b + parent];
    std::uint32_t& count = col(TreeView::kChildCount)[b + parent];
    if (count++ == 0) first = x;
    ARBOR_CHECK_MSG(first + count == x + 1,
                    "tree arena: siblings must be contiguous");
    col(TreeView::kMapsTo)[b + x] = v;
    col(TreeView::kParent)[b + x] = parent;
    col(TreeView::kDepth)[b + x] = col(TreeView::kDepth)[b + parent] + 1;
  }

  std::vector<std::uint32_t> data_;  // 5 columns of capacity() entries each
  std::vector<std::size_t> begin_{0};  // tree t: [begin_[t], begin_[t+1])
};

}  // namespace arbor::core
