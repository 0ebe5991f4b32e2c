#include "core/partial_layer_tree.hpp"

#include <cstdint>

#include "util/assert.hpp"

namespace arbor::core {

std::vector<Layer> partial_layer_assignment_tree(const graph::Graph& g,
                                                 const TreeForest& forest,
                                                 std::size_t a, Layer L) {
  const std::size_t total = forest.total_nodes();
  const std::uint32_t* maps_to = forest.column(TreeView::kMapsTo);
  const std::uint32_t* parent = forest.column(TreeView::kParent);
  const std::uint32_t* child_count = forest.column(TreeView::kChildCount);
  std::vector<Layer> layer(total, kInfiniteLayer);

  // load[x] = |children ∩ V_≥j| + |Missing(x)|: it starts at deg(map(x))
  // (Def 2.6) and drops as children get assigned. Per-thread scratch.
  thread_local std::vector<std::uint32_t> load;
  load.resize(total);
  for (std::size_t x = 0; x < total; ++x) {
    const std::size_t deg = g.degree(maps_to[x]);
    ARBOR_CHECK_MSG(child_count[x] <= deg,
                    "more children than graph neighbors — invalid mapping");
    load[x] = static_cast<std::uint32_t>(deg);
  }

  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    const std::size_t b = forest.begin(t);
    const std::size_t end = forest.begin(t + 1);
    std::size_t left = end - b;
    for (Layer j = 1; j <= L && left > 0; ++j) {
      // Selection is synchronous: V_j is decided from the state at the
      // start of iteration j. One pass in id order is: when x is decided,
      // its parent (a smaller id) already was, and its children not yet.
      std::size_t assigned = 0;
      for (std::size_t x = b; x < end; ++x) {
        if (layer[x] != kInfiniteLayer || load[x] > a) continue;
        layer[x] = j;
        ++assigned;
        if (parent[x] != TreeView::kNoNode) {
          ARBOR_CHECK(load[b + parent[x]] > 0);
          --load[b + parent[x]];
        }
      }
      if (assigned == 0) break;  // an unchanged state assigns no later layer
      left -= assigned;
    }
  }
  return layer;
}

}  // namespace arbor::core
