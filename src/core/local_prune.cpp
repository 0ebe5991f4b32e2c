#include "core/local_prune.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/assert.hpp"

namespace arbor::core {

void local_prune(const TreeForest& forest, std::size_t k, TreeForest& out) {
  using NodeId = TreeView::NodeId;
  ARBOR_CHECK_MSG(&out != &forest, "local_prune: output aliases the forest");
  out.clear();
  out.reserve(forest.total_nodes());

  // One tree's pruned subtree sizes (0 marks a dropped child) and the
  // selection buffer: per-thread scratch.
  thread_local std::vector<std::uint32_t> size_scratch;
  thread_local std::vector<NodeId> order;  // then: out node -> tree node
  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    const std::size_t b = forest.begin(t);
    const std::size_t n = forest.tree_size(t);
    const std::uint32_t* maps_to = forest.column(TreeView::kMapsTo) + b;
    const std::uint32_t* first = forest.column(TreeView::kFirstChild) + b;
    const std::uint32_t* count = forest.column(TreeView::kChildCount) + b;
    if (count[0] <= k) {  // rule 1 at the root: nothing else survives
      out.open(1, maps_to[0]);
      continue;
    }

    if (size_scratch.size() < n) size_scratch.resize(n);
    std::uint32_t* size = size_scratch.data();
    const auto heavier = [&](NodeId a, NodeId c) {
      if (size[a] != size[c]) return size[a] > size[c];
      return maps_to[a] != maps_to[c] ? maps_to[a] < maps_to[c] : a < c;
    };
    // Bottom-up (children have larger ids): rule 1 keeps a node with ≤ k
    // children alone; rule 2 drops its k heaviest pruned child subtrees.
    for (std::size_t x = n; x-- > 0;) {
      size[x] = 1;
      if (count[x] <= k) continue;
      order.resize(count[x]);
      std::iota(order.begin(), order.end(), first[x]);
      std::nth_element(order.begin(), order.begin() + k, order.end(),
                       heavier);
      for (std::size_t i = k; i < order.size(); ++i) size[x] += size[order[i]];
      for (std::size_t i = 0; i < k; ++i) size[order[i]] = 0;
    }

    // Top-down, breadth-first: out node y copies tree node order[y] and
    // appends its kept children as one contiguous sibling range.
    const std::size_t ob = out.open(size[0], maps_to[0]);
    std::uint32_t* out_maps_to = out.col(TreeView::kMapsTo) + ob;
    std::uint32_t* out_parent = out.col(TreeView::kParent) + ob;
    std::uint32_t* out_depth = out.col(TreeView::kDepth) + ob;
    std::uint32_t* out_first = out.col(TreeView::kFirstChild) + ob;
    std::uint32_t* out_count = out.col(TreeView::kChildCount) + ob;
    order.resize(std::max<std::size_t>(order.size(), size[0]));
    order[0] = 0;
    NodeId end = 1;
    for (NodeId y = 0; y < end; ++y) {
      const NodeId x = order[y];
      const NodeId kept_from = end;
      if (count[x] > k) {
        for (NodeId c = first[x]; c < first[x] + count[x]; ++c) {
          if (size[c] == 0) continue;
          out_maps_to[end] = maps_to[c];
          out_parent[end] = y;
          out_depth[end] = out_depth[y] + 1;
          order[end++] = c;
        }
      }
      out_first[y] = end == kept_from ? 0 : kept_from;
      out_count[y] = end - kept_from;
    }
    ARBOR_CHECK(end == size[0]);
  }
}

}  // namespace arbor::core
