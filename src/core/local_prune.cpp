#include "core/local_prune.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/assert.hpp"

namespace arbor::core {

void local_prune(const TreeView& tree, std::size_t k, TreeView& out) {
  using NodeId = TreeView::NodeId;
  ARBOR_CHECK_MSG(tree.size() >= 1 && &out != &tree, "local_prune: bad call");
  const std::uint32_t* maps_to = tree.col(TreeView::kMapsTo);
  const std::uint32_t* first = tree.col(TreeView::kFirstChild);
  const std::uint32_t* count = tree.col(TreeView::kChildCount);
  if (count[0] <= k) {  // rule 1 at the root: nothing else survives
    out.reset(1, maps_to[0]);
    return;
  }

  // Pruned subtree sizes; 0 marks a dropped child. Per-thread scratch.
  thread_local std::vector<std::uint32_t> size;
  thread_local std::vector<NodeId> order;  // then: out node -> tree node
  size.resize(tree.size());
  const auto heavier = [&](NodeId a, NodeId b) {
    if (size[a] != size[b]) return size[a] > size[b];
    return maps_to[a] != maps_to[b] ? maps_to[a] < maps_to[b] : a < b;
  };
  // Bottom-up (children have larger ids): rule 1 keeps a node with ≤ k
  // children alone; rule 2 drops its k heaviest pruned child subtrees.
  for (std::size_t x = tree.size(); x-- > 0;) {
    size[x] = 1;
    if (count[x] <= k) continue;
    order.resize(count[x]);
    std::iota(order.begin(), order.end(), first[x]);
    std::nth_element(order.begin(), order.begin() + k, order.end(), heavier);
    for (std::size_t i = k; i < order.size(); ++i) size[x] += size[order[i]];
    for (std::size_t i = 0; i < k; ++i) size[order[i]] = 0;
  }

  // Top-down, breadth-first: out node y copies tree node order[y] and
  // appends its kept children as one contiguous sibling range.
  out.reset(size[0], maps_to[0]);
  order.assign(1, 0);
  for (NodeId y = 0; y < order.size(); ++y) {
    const NodeId x = order[y];
    if (count[x] <= k) continue;
    for (NodeId c = first[x]; c < first[x] + count[x]; ++c) {
      if (size[c] == 0) continue;
      out.link(static_cast<NodeId>(order.size()), maps_to[c], y);
      order.push_back(c);
    }
  }
  ARBOR_CHECK(order.size() == size[0]);
}

}  // namespace arbor::core
