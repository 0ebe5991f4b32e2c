#include "core/partial_layer_tree.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace arbor::core {

std::vector<Layer> partial_layer_assignment_tree(const graph::Graph& g,
                                                 const TreeView& tree,
                                                 std::size_t a, Layer L) {
  const std::size_t n = tree.size();
  std::vector<Layer> layer(n, kInfiniteLayer);

  // load[x] = |children ∩ V_≥j| + |Missing(x)|: it starts at deg(map(x))
  // (Def 2.6) and drops as children get assigned. Per-thread scratch.
  thread_local std::vector<std::size_t> load;
  thread_local std::vector<TreeView::NodeId> remaining, next;
  load.resize(n);
  remaining.resize(n);
  for (TreeView::NodeId x = 0; x < n; ++x) {
    load[x] = tree.missing_count(g, x) + tree.child_count(x);
    remaining[x] = x;
  }

  for (Layer j = 1; j <= L && !remaining.empty(); ++j) {
    next.clear();
    // Selection is synchronous: V_j is decided from the state at the start
    // of iteration j. One pass in id order is: when x is decided, its
    // parent (a smaller id) already was, and its children not yet.
    for (TreeView::NodeId x : remaining) {
      if (load[x] > a) {
        next.push_back(x);
        continue;
      }
      layer[x] = j;
      const TreeView::NodeId parent = tree.parent_of(x);
      if (parent != TreeView::kNoNode) {
        ARBOR_CHECK(load[parent] > 0);
        --load[parent];
      }
    }
    remaining.swap(next);
  }
  return layer;
}

}  // namespace arbor::core
