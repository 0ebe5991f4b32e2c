#include "baselines/be08_mpc.hpp"

#include "core/orientation_mpc.hpp"
#include "local/peeling.hpp"
#include "util/assert.hpp"

namespace arbor::baselines {

Be08Result be08_orient(const graph::Graph& g, std::size_t k, double epsilon,
                       mpc::MpcContext& ctx) {
  if (k == 0) k = core::estimate_density_parameter(g);
  const local::PeelingResult peel = local::be08_h_partition(g, k, epsilon);

  // One MPC round per LOCAL round (the peel predicate is a 1-hop rule).
  ctx.charge(peel.rounds, "be08.peel");
  ctx.note_balanced(2 * g.num_edges() + g.num_vertices());

  core::LayerAssignment layering;
  layering.num_layers = peel.num_layers;
  layering.layer = peel.layer;  // complete: no layer 0 (unpeeled)

  graph::Orientation orientation = graph::orient_by_layers(g, layering.layer);
  ctx.charge(1, "be08.finalize");
  return {std::move(orientation), std::move(layering), peel.rounds,
          local::be08_threshold(k, epsilon)};
}

}  // namespace arbor::baselines
