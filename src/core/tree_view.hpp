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
// A tree is a flat preorder arena: node 0 is the root, every parent comes
// before its children, and each node's children occupy one contiguous id
// range. Its struct-of-arrays columns (maps_to, parent, depth, first child,
// child count) share one buffer, so no node owns an allocation and a tree
// rewritten in place reuses the buffer. Layout = wire format: a tree ships
// as [size, (maps_to, parent)...] in arena order — two of its columns, so
// serializing is a copy — and deserializing rebuilds the rest in one pass
// that rejects, by name, any payload that is not such an arena.
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

class TreeView {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kNoNode = 0xffffffffu;

  /// Definition 2.5 input: a leaf and the serialized tree replacing it.
  using Attachment = std::pair<NodeId, std::span<const std::uint64_t>>;

  TreeView() = default;  ///< size 0: an output slot to write a tree into

  /// Single-node tree whose root maps to v (the inactive-vertex initial
  /// tree of Algorithm 2).
  static TreeView single(graph::VertexId v) { return star(v, {}); }

  /// Star: root maps to v, one child per (distinct) neighbor — the active-
  /// vertex initial tree of Algorithm 2.
  static TreeView star(graph::VertexId v,
                       std::span<const graph::VertexId> neighbors);

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

  /// Definition 2.5: write into `out` (not `*this`) this tree with each
  /// attachment's distinct leaf replaced by a copy of its serialized tree,
  /// whose root maps to the leaf's vertex; the copies are validated.
  void attach(std::span<const Attachment> attachments, TreeView& out) const;

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

  /// Inverse of serialize(); validates the arena invariants.
  static TreeView deserialize(std::span<const std::uint64_t> words);

  /// Internal consistency of the arena (root, parent/child/depth
  /// agreement); run by deserialize and by debug checks.
  bool structurally_sound() const;

 private:
  friend void local_prune(const TreeView& tree, std::size_t k, TreeView& out);
  enum Column { kMapsTo, kParent, kDepth, kFirstChild, kChildCount };

  const std::uint32_t* col(Column c) const { return data_.data() + c * size_; }
  std::uint32_t* col(Column c) { return data_.data() + c * size_; }
  std::uint32_t at(Column c, NodeId x) const {
    ARBOR_DCHECK(x < size_);
    return col(c)[x];
  }
  void reset(std::size_t size, graph::VertexId v);  // root maps to v
  /// x maps to v; `parent` is earlier and its children end right before x.
  void link(NodeId x, graph::VertexId v, NodeId parent) {
    ARBOR_CHECK_MSG(parent < x, "tree arena: a parent must precede its child");
    std::uint32_t& first = col(kFirstChild)[parent];
    std::uint32_t& count = col(kChildCount)[parent];
    if (count++ == 0) first = x;
    ARBOR_CHECK_MSG(first + count == x + 1,
                    "tree arena: siblings must be contiguous");
    col(kMapsTo)[x] = v;
    col(kParent)[x] = parent;
    col(kDepth)[x] = col(kDepth)[parent] + 1;
  }

  std::size_t size_ = 0;
  std::vector<std::uint32_t> data_;  // 5 columns of size_ entries each
};

}  // namespace arbor::core
