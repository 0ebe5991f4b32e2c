#include "local/mpc_embedding.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "check/ownership.hpp"
#include "local/machine_index.hpp"
#include "net/registry.hpp"
#include "net/wire.hpp"
#include "obs/cost_model.hpp"
#include "util/assert.hpp"

namespace arbor::local {

namespace {

/// Machine-local state of an embedded peeling run. Built by the driver
/// over the caller's graph; rebuilt by a worker over the adjacency slabs
/// of its machine block (every array is machine-partitioned: vertex v
/// lives on machine v / per_machine, and a step only ever touches its own
/// machine's vertex range).
struct PeelState {
  std::size_t n = 0;
  std::size_t machines = 0;
  std::size_t per_machine = 0;
  std::size_t threshold = 0;
  MachineIndex machine_of{0};
  /// Layer the CURRENT pass stamps; advanced at the pass barrier, only
  /// when another pass actually runs.
  std::uint32_t round = 1;
  std::vector<std::size_t> degree;
  std::vector<std::uint32_t> layer;  ///< 0 = not peeled yet
  std::vector<std::vector<graph::VertexId>> peeled_prev;  ///< per machine
  std::vector<std::size_t> peeled_now;                    ///< per machine

  /// Adjacency of the hosted vertices [base, base + offsets.size() - 1) as
  /// one CSR view: the driver points it at the graph's arrays (base 0), a
  /// worker at the flat slab of its machine block below.
  graph::VertexId base = 0;
  std::span<const graph::EdgeId> offsets;
  std::span<const graph::VertexId> targets;
  std::vector<graph::EdgeId> slab_offsets;     ///< worker
  std::vector<graph::VertexId> slab_targets;   ///< worker

  void init(std::size_t vertices, std::size_t num_machines,
            std::size_t peel_threshold) {
    n = vertices;
    machines = num_machines;
    per_machine = (n + machines - 1) / std::max<std::size_t>(machines, 1);
    machine_of = MachineIndex(per_machine);
    threshold = peel_threshold;
    degree.assign(n, 0);
    layer.assign(n, 0);
    peeled_prev.resize(machines);
    peeled_now.assign(machines, 0);
  }
  std::span<const graph::VertexId> neighbors(graph::VertexId v) const {
    const std::size_t i = v - base;
    return {targets.data() + offsets[i], targets.data() + offsets[i + 1]};
  }
  std::pair<graph::VertexId, graph::VertexId> vertex_range(
      std::size_t m) const {
    return {static_cast<graph::VertexId>(std::min(m * per_machine, n)),
            static_cast<graph::VertexId>(std::min((m + 1) * per_machine, n))};
  }
};

// One LOCAL round == one cluster round, expressed as a single-step
// RoundProgram repeated until peeling stalls. Each pass, machine m:
//   1. applies the decrements implied by the PREVIOUS pass — its own
//      peels' local neighbors, then the remote notifications in its
//      inbox (both touch only degree/layer slots of m's vertex range
//      [lo, hi); a notification outside it is rejected by name);
//   2. scans its range, peels the sub-threshold vertices (marking their
//      layer at peel time — a vertex peeled this pass is thereby
//      excluded from decrements next pass, exactly as the imperative
//      post-round update excluded same-round peels), and notifies the
//      machines hosting remote neighbors.
// A pass costs its reads and its messages: "w is hosted here" is the
// unsigned range test w - lo < hi - lo, the host of a remote neighbour is
// one multiply-high (MachineIndex), and the per-destination outboxes are
// per-thread scratch, cleared and not freed between passes (send() copies
// each payload into the engine's arena).
// The step is tagged barrier — the canonical case: it reads `round`, a
// global the continue callback advances at the pass boundary, which the
// machine-independent contract forbids.
engine::RoundProgram make_peel_program(std::shared_ptr<PeelState> st) {
  engine::RoundProgram program;
  program.barrier("peel.round", [st](std::size_t m, const auto& inbox,
                                     mpc::Sender& send) {
    const std::size_t machines = st->machines;
    const auto [lo, hi] = st->vertex_range(m);
    const graph::VertexId hosted = hi - lo;  // w is mine iff w - lo < hosted
    std::size_t* const degree = st->degree.data();
    std::uint32_t* const layer = st->layer.data();
    std::vector<graph::VertexId>& peeled = st->peeled_prev[m];
    // Decrements from the previous pass: local neighbors of my peels...
    for (graph::VertexId v : peeled) {
      for (graph::VertexId w : st->neighbors(v)) {
        if (w - lo >= hosted || layer[w] != 0) continue;
        ARBOR_CHECK(degree[w] > 0);
        --degree[w];
      }
    }
    // ...then the remote notifications addressed to my vertices. Pass 1
    // must not touch the inbox: it may still hold traffic from whatever
    // the cluster ran before this program, and a stale word would index
    // layer/degree arbitrarily.
    if (st->round > 1) {
      for (const auto& msg : inbox) {
        for (mpc::Word word : msg) {
          ARBOR_CHECK_MSG(word - lo < hosted,
                          "peel notification " + std::to_string(word) +
                              " is not a vertex of machine " +
                              std::to_string(m) + " [" + std::to_string(lo) +
                              ", " + std::to_string(hi) + ")");
          const auto w = static_cast<graph::VertexId>(word);
          if (layer[w] == 0) {
            ARBOR_CHECK(degree[w] > 0);
            --degree[w];
          }
        }
      }
    }
    // Peel this pass: scan my vertex range with the settled degrees.
    peeled.clear();
    thread_local std::vector<std::vector<mpc::Word>> outgoing;
    if (outgoing.size() < machines) outgoing.resize(machines);
    for (std::size_t dst = 0; dst < machines; ++dst) outgoing[dst].clear();
    const std::size_t threshold = st->threshold;
    const std::uint32_t round = st->round;
    for (graph::VertexId v = lo; v < hi; ++v) {
      if (layer[v] != 0 || degree[v] > threshold) continue;
      layer[v] = round;
      peeled.push_back(v);
      // Remote neighbors, bucketed by host machine in adjacency order.
      for (graph::VertexId w : st->neighbors(v))
        if (w - lo >= hosted) outgoing[st->machine_of(w)].push_back(w);
    }
    st->peeled_now[m] = peeled.size();
    for (std::size_t dst = 0; dst < machines; ++dst)
      if (!outgoing[dst].empty()) send.send(dst, outgoing[dst]);
  });
  // `round` is deliberately NOT declared: the continue callback advances
  // it, which is legal exactly because every step is a barrier (checked
  // execution only polices continue-callback writes against
  // machine-independent steps).
  auto own = std::make_shared<check::Ownership>();
  own->range("degree", &st->degree,
             [st](std::size_t m) {
               const auto [lo, hi] = st->vertex_range(m);
               return std::pair<std::size_t, std::size_t>{lo, hi};
             })
      .range("layer", &st->layer,
             [st](std::size_t m) {
               const auto [lo, hi] = st->vertex_range(m);
               return std::pair<std::size_t, std::size_t>{lo, hi};
             })
      .slabs("peeled_prev", &st->peeled_prev)
      .elems("peeled_now", &st->peeled_now)
      .keep_alive(st);
  program.owned(std::move(own));

  // A pass ships one word per cross-machine edge incident to that pass's
  // peels — graph-dependent, so only the model's S-cap applies. The pass
  // count depends on the peeling schedule; the driver re-declares this
  // bound with its max_rounds budget (workers take passes from the frame
  // and never audit).
  auto cost = std::make_shared<obs::CostModel>("local.embedded_peeling");
  cost->bound("peel.round", obs::kWordsCapacity, 0,
              "<= S (one word per cross-machine edge of this pass's peels)");
  program.costed(std::move(cost));
  return program;
}

}  // namespace

EmbeddedPeelingResult embedded_threshold_peeling(const graph::Graph& g,
                                                 std::size_t threshold,
                                                 mpc::Cluster& cluster,
                                                 std::size_t max_rounds) {
  const std::size_t n = g.num_vertices();
  const std::size_t machines = cluster.num_machines();
  const std::size_t start_rounds = cluster.rounds_executed();

  EmbeddedPeelingResult result;
  result.layer.assign(n, 0);
  if (n == 0) {
    result.complete = true;
    return result;
  }
  if (max_rounds == 0) {
    result.num_layers = 0;
    result.complete = false;
    return result;
  }

  auto st = std::make_shared<PeelState>();
  st->init(n, machines, threshold);
  st->offsets = g.offsets();
  st->targets = g.adjacency();
  for (graph::VertexId v = 0; v < n; ++v) st->degree[v] = g.degree(v);

  std::size_t remaining = n;
  bool progressed = true;

  // The pass decision, shared verbatim by both deployments: the
  // in-process continue callback sums peeled_now itself; the distributed
  // path gets the same total as the reduced worker votes. `passes` counts
  // completed passes, i.e. the 1-based index of the pass that just ran —
  // the same value the imperative loop compared against max_rounds.
  // `round` (read by the step as the layer to stamp) advances only when
  // another pass is actually coming.
  const auto decide = [st, &remaining, &progressed, max_rounds](
                          std::size_t passes, std::size_t peeled) {
    remaining -= peeled;
    progressed = peeled > 0;
    const bool again = remaining > 0 && progressed && passes < max_rounds;
    if (again) ++st->round;
    return again;
  };

  engine::RoundProgram program = make_peel_program(st);
  {
    // Driver side the pass budget is known: tighten the builder's
    // open-ended round bound to the max_rounds the repeat_while enforces.
    auto cost = std::make_shared<obs::CostModel>("local.embedded_peeling");
    cost->bound("peel.round", obs::kWordsCapacity, max_rounds,
                "<= S words; <= max_rounds passes (repeat_while budget)");
    program.costed(std::move(cost));
  }
  program.repeat_while(
      [st, decide](std::size_t passes) {
        std::size_t peeled = 0;
        for (std::size_t m = 0; m < st->machines; ++m)
          peeled += st->peeled_now[m];
        return decide(passes, peeled);
      },
      max_rounds);
  if (cluster.distributed()) {
    engine::RemoteSpec spec;
    spec.name = "local.embedded_peeling";
    spec.scalars = {static_cast<mpc::Word>(n),
                    static_cast<mpc::Word>(threshold)};
    // inputs[m]: adjacency of machine m's vertex range —
    //   [{len, neighbors...} per vertex]
    spec.inputs.resize(machines);
    const std::span<const graph::EdgeId> offsets = g.offsets();
    for (std::size_t m = 0; m < machines; ++m) {
      const auto [lo, hi] = st->vertex_range(m);
      std::vector<mpc::Word>& input = spec.inputs[m];
      input.resize((hi - lo) + (offsets[hi] - offsets[lo]));
      mpc::Word* out = input.data();
      for (graph::VertexId v = lo; v < hi; ++v) {
        const std::span<const graph::VertexId> row = g.neighbors(v);
        *out++ = row.size();
        out = std::copy(row.begin(), row.end(), out);
      }
    }
    spec.has_vote = true;
    spec.continue_with_votes = [decide](std::size_t passes,
                                        mpc::Word total) {
      return decide(passes, static_cast<std::size_t>(total));
    };
    spec.has_output = true;
    spec.output_sink = [st](std::size_t m, std::span<const mpc::Word> slab) {
      const auto [lo, hi] = st->vertex_range(m);
      ARBOR_CHECK(slab.size() == hi - lo);
      for (std::size_t i = 0; i < slab.size(); ++i)
        st->layer[lo + i] = static_cast<std::uint32_t>(slab[i]);
    };
    program.distributable(std::move(spec));
  }

  cluster.run_program(program);

  result.layer = std::move(st->layer);
  result.num_layers = st->round - (progressed ? 0 : 1);
  result.cluster_rounds = cluster.rounds_executed() - start_rounds;
  result.complete = (remaining == 0);
  return result;
}

void register_embedded_peeling_program(net::Registry& registry) {
  registry.add("local.embedded_peeling", 2,
               [](const net::ProgramInputs& in) {
    const auto n = static_cast<std::size_t>(in.scalars[0]);
    ARBOR_CHECK_MSG(n <= std::numeric_limits<graph::VertexId>::max(),
                    "local.embedded_peeling: n = " + std::to_string(n) +
                        " exceeds the 32-bit vertex id range");
    ARBOR_CHECK_MSG(in.inputs.size() == in.block_end - in.block_begin,
                    "local.embedded_peeling: " +
                        std::to_string(in.inputs.size()) +
                        " peel-input slabs for a block of " +
                        std::to_string(in.block_end - in.block_begin) +
                        " machines");
    auto st = std::make_shared<PeelState>();
    st->init(n, in.machines, static_cast<std::size_t>(in.scalars[1]));
    // One flat CSR slab over the block's vertex range [base, end), filled
    // straight from the inputs: [{len, neighbors...} per vertex].
    st->base = st->vertex_range(in.block_begin).first;
    const graph::VertexId end = st->vertex_range(in.block_end).first;
    std::size_t words = 0;
    for (const std::vector<mpc::Word>& input : in.inputs) words += input.size();
    st->slab_offsets.reserve(std::size_t{end - st->base} + 1);
    st->slab_offsets.push_back(0);
    st->slab_targets.reserve(words -
                             std::min<std::size_t>(words, end - st->base));
    for (std::size_t m = in.block_begin; m < in.block_end; ++m) {
      net::WireReader reader(in.inputs[m - in.block_begin], "peel-input");
      const auto [lo, hi] = st->vertex_range(m);
      for (graph::VertexId v = lo; v < hi; ++v) {
        const std::span<const mpc::Word> ws = reader.words(reader.count());
        for (const mpc::Word w : ws) {
          ARBOR_CHECK_MSG(w < n, "peel-input neighbour " + std::to_string(w) +
                                     " of vertex " + std::to_string(v) +
                                     " is not a vertex id (n = " +
                                     std::to_string(n) + ")");
          st->slab_targets.push_back(static_cast<graph::VertexId>(w));
        }
        st->slab_offsets.push_back(st->slab_targets.size());
        st->degree[v] = ws.size();
      }
      reader.expect_end();
    }
    st->offsets = st->slab_offsets;
    st->targets = st->slab_targets;
    net::WorkerProgram out;
    out.program = make_peel_program(st);
    out.state = st;
    out.vote = [st](std::size_t m) {
      return static_cast<mpc::Word>(st->peeled_now[m]);
    };
    out.on_continue = [st] { ++st->round; };
    out.output = [st](std::size_t m) {
      const auto [lo, hi] = st->vertex_range(m);
      std::vector<mpc::Word> slab;
      slab.reserve(hi - lo);
      for (graph::VertexId v = lo; v < hi; ++v) slab.push_back(st->layer[v]);
      return slab;
    };
    return out;
  });
}

}  // namespace arbor::local
