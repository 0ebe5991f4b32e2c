#include "local/mpc_embedding.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "check/ownership.hpp"
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
  /// Layer the CURRENT pass stamps; advanced at the pass barrier, only
  /// when another pass actually runs.
  std::uint32_t round = 1;
  /// Serve the per-vertex neighbor splits from the engine's FetchCache
  /// (ClusterConfig::fetch_cache). Purely a speed knob: the split payload
  /// is a pure function of the immutable adjacency, so messages and
  /// decrements are bit-identical on or off.
  bool fetch_cache = true;
  std::vector<std::size_t> degree;
  std::vector<std::uint32_t> layer;  ///< 0 = not peeled yet
  std::vector<std::vector<graph::VertexId>> peeled_prev;  ///< per machine
  std::vector<std::size_t> peeled_now;                    ///< per machine

  const graph::Graph* graph = nullptr;  ///< driver side
  std::vector<std::vector<graph::VertexId>> owned_adjacency;  ///< worker

  std::span<const graph::VertexId> neighbors(graph::VertexId v) const {
    return graph ? graph->neighbors(v)
                 : std::span<const graph::VertexId>(owned_adjacency[v]);
  }
  std::size_t machine_of(graph::VertexId v) const {
    return per_machine == 0 ? std::size_t{0} : v / per_machine;
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
//      inbox (both touch only degree/layer slots of m's vertex range);
//   2. scans its range, peels the sub-threshold vertices (marking their
//      layer at peel time — a vertex peeled this pass is thereby
//      excluded from decrements next pass, exactly as the imperative
//      post-round update excluded same-round peels), and notifies the
//      machines hosting remote neighbors.
// The step is tagged barrier — the canonical case: it reads `round`, a
// global the continue callback advances at the pass boundary, which the
// machine-independent contract forbids.
engine::RoundProgram make_peel_program(std::shared_ptr<PeelState> st) {
  engine::RoundProgram program;
  program.barrier("peel.round", [st](std::size_t m, const auto& inbox,
                                     mpc::Sender& send) {
    const std::size_t machines = st->machines;
    // Neighbor split of v as seen from its home machine m: [n_local,
    // local neighbors..., remote neighbors...], each class in adjacency
    // order. Built at peel time and served from the engine's FetchCache
    // on the NEXT pass's decrement walk — the delegate-read pattern.
    // Epoch 0 forever: the adjacency is immutable for the program's life,
    // the same promise its absence from the ownership families records.
    const auto split_of = [st, m](graph::VertexId v) {
      return [st, m, v](std::vector<mpc::Word>& out) {
        const std::span<const graph::VertexId> adj = st->neighbors(v);
        out.push_back(0);
        for (graph::VertexId w : adj)
          if (st->machine_of(w) == m) {
            out.push_back(w);
            ++out[0];
          }
        for (graph::VertexId w : adj)
          if (st->machine_of(w) != m) out.push_back(w);
      };
    };
    // Decrements from the previous pass: local neighbors of my peels...
    for (graph::VertexId v : st->peeled_prev[m]) {
      const std::span<const mpc::Word> split =
          send.fetch(v, /*epoch=*/0, split_of(v));
      const auto n_local = static_cast<std::size_t>(split[0]);
      for (std::size_t i = 1; i <= n_local; ++i) {
        const auto w = static_cast<graph::VertexId>(split[i]);
        if (st->layer[w] == 0) {
          ARBOR_CHECK(st->degree[w] > 0);
          --st->degree[w];
        }
      }
    }
    // ...then the remote notifications addressed to my vertices. Pass 1
    // must not touch the inbox: it may still hold traffic from whatever
    // the cluster ran before this program, and a stale word would index
    // layer/degree arbitrarily.
    if (st->round > 1) {
      for (const auto& msg : inbox) {
        for (mpc::Word word : msg) {
          const auto w = static_cast<graph::VertexId>(word);
          if (st->layer[w] == 0) {
            ARBOR_CHECK(st->degree[w] > 0);
            --st->degree[w];
          }
        }
      }
    }
    // Peel this pass: scan my vertex range with the settled degrees.
    st->peeled_prev[m].clear();
    std::vector<std::vector<mpc::Word>> outgoing(machines);
    const auto [lo, hi] = st->vertex_range(m);
    for (graph::VertexId v = lo; v < hi; ++v) {
      if (st->layer[v] != 0 || st->degree[v] > st->threshold) continue;
      st->layer[v] = st->round;
      st->peeled_prev[m].push_back(v);
      // The remote suffix of the split, bucketed by host machine — the
      // same vertex sequence per destination as filtering the adjacency
      // directly (classes preserve adjacency order).
      const std::span<const mpc::Word> split =
          send.fetch(v, /*epoch=*/0, split_of(v));
      for (std::size_t i = 1 + static_cast<std::size_t>(split[0]);
           i < split.size(); ++i) {
        const auto w = static_cast<graph::VertexId>(split[i]);
        outgoing[st->machine_of(w)].push_back(split[i]);
      }
    }
    st->peeled_now[m] = st->peeled_prev[m].size();
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
  program.cached_fetches(st->fetch_cache);

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
  st->n = n;
  st->machines = machines;
  st->per_machine = (n + machines - 1) / std::max<std::size_t>(machines, 1);
  st->threshold = threshold;
  st->fetch_cache = cluster.config().fetch_cache;
  st->graph = &g;
  st->degree.resize(n);
  for (graph::VertexId v = 0; v < n; ++v) st->degree[v] = g.degree(v);
  st->layer.assign(n, 0);
  st->peeled_prev.resize(machines);
  st->peeled_now.assign(machines, 0);

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
                    static_cast<mpc::Word>(threshold),
                    static_cast<mpc::Word>(st->fetch_cache ? 1 : 0)};
    // inputs[m]: adjacency of machine m's vertex range —
    //   [{len, neighbors...} per vertex]
    spec.inputs.resize(machines);
    for (std::size_t m = 0; m < machines; ++m) {
      const auto [lo, hi] = st->vertex_range(m);
      std::vector<mpc::Word>& input = spec.inputs[m];
      for (graph::VertexId v = lo; v < hi; ++v) {
        input.push_back(g.degree(v));
        for (graph::VertexId w : g.neighbors(v)) input.push_back(w);
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
  registry.add("local.embedded_peeling", 3,
               [](const net::ProgramInputs& in) {
    auto st = std::make_shared<PeelState>();
    st->n = static_cast<std::size_t>(in.scalars[0]);
    st->threshold = static_cast<std::size_t>(in.scalars[1]);
    st->fetch_cache = in.scalars[2] != 0;
    st->machines = in.machines;
    st->per_machine =
        (st->n + in.machines - 1) / std::max<std::size_t>(in.machines, 1);
    st->degree.assign(st->n, 0);
    st->layer.assign(st->n, 0);
    st->peeled_prev.resize(in.machines);
    st->peeled_now.assign(in.machines, 0);
    st->owned_adjacency.resize(st->n);
    for (std::size_t m = in.block_begin; m < in.block_end; ++m) {
      net::WireReader reader(in.inputs[m - in.block_begin], "peel-input");
      const auto [lo, hi] = st->vertex_range(m);
      for (graph::VertexId v = lo; v < hi; ++v) {
        const std::span<const mpc::Word> ws = reader.words(reader.count());
        st->owned_adjacency[v].assign(ws.begin(), ws.end());
        st->degree[v] = ws.size();
      }
      reader.expect_end();
    }
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
