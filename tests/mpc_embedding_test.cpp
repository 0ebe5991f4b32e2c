// Tests for the LOCAL-in-MPC embedding: the distributed threshold peeling
// must agree bit-for-bit with the sequential reference, consume exactly
// one cluster round per LOCAL round, and respect the traffic caps.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "engine/inbox.hpp"
#include "engine/outbox.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "local/machine_index.hpp"
#include "local/mpc_embedding.hpp"
#include "local/peeling.hpp"
#include "mpc/cluster.hpp"
#include "net/registry.hpp"
#include "util/rng.hpp"

namespace arbor::local {
namespace {

using graph::Graph;
using graph::VertexId;
using mpc::Word;

template <typename Fn>
void expect_rejected(const Fn& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected rejection naming \"" << needle << "\"";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(EmbeddedPeeling, MatchesReferenceExactly) {
  util::SplitRng rng(1);
  const Graph g = graph::forest_union(500, 3, rng);
  const std::size_t threshold = 12;

  const PeelingResult reference = peel_by_threshold(g, threshold, 100);
  ASSERT_TRUE(reference.complete);

  mpc::Cluster cluster(mpc::ClusterConfig{8, 4096}, nullptr);
  const EmbeddedPeelingResult embedded =
      embedded_threshold_peeling(g, threshold, cluster, 100);
  ASSERT_TRUE(embedded.complete);
  EXPECT_EQ(embedded.num_layers, reference.num_layers);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(embedded.layer[v], reference.layer[v]) << "vertex " << v;
}

TEST(EmbeddedPeeling, OneClusterRoundPerLocalRound) {
  util::SplitRng rng(2);
  const Graph g = graph::gnm(400, 1200, rng);
  mpc::Cluster cluster(mpc::ClusterConfig{8, 8192}, nullptr);
  const EmbeddedPeelingResult embedded =
      embedded_threshold_peeling(g, 12, cluster, 100);
  ASSERT_TRUE(embedded.complete);
  EXPECT_EQ(embedded.cluster_rounds,
            static_cast<std::size_t>(embedded.num_layers));
}

TEST(EmbeddedPeeling, ChainCascadesOneLevelPerRound) {
  util::SplitRng rng(3);
  const auto chain = graph::slow_peeling_chain(6, 10, rng);
  const auto threshold = static_cast<std::size_t>(
      std::ceil(2.2 * static_cast<double>(chain.lambda)));
  // The chain is dense; give machines room for the notification bursts.
  mpc::Cluster cluster(mpc::ClusterConfig{4, 1 << 17}, nullptr);
  const EmbeddedPeelingResult embedded =
      embedded_threshold_peeling(chain.graph, threshold, cluster, 100);
  ASSERT_TRUE(embedded.complete);
  EXPECT_EQ(embedded.num_layers, chain.levels);
}

TEST(EmbeddedPeeling, StallsGracefullyBelowMinDegree) {
  const Graph g = graph::clique(12);
  mpc::Cluster cluster(mpc::ClusterConfig{4, 4096}, nullptr);
  const EmbeddedPeelingResult embedded =
      embedded_threshold_peeling(g, 2, cluster, 50);
  EXPECT_FALSE(embedded.complete);
  EXPECT_EQ(embedded.num_layers, 0u);
}

TEST(EmbeddedPeeling, TrafficCapViolationIsLoud) {
  // A star peels all leaves in round 1: the hub's machine receives ~n
  // notification words. With a tiny word budget the cluster must throw
  // rather than silently exceed the model.
  const Graph g = graph::star(2000);
  mpc::Cluster cluster(mpc::ClusterConfig{8, 64}, nullptr);
  EXPECT_THROW(embedded_threshold_peeling(g, 3, cluster, 10),
               arbor::InvariantError);
}

TEST(EmbeddedPeeling, SingleMachineDegenerate) {
  util::SplitRng rng(4);
  const Graph g = graph::random_forest(100, rng);
  mpc::Cluster cluster(mpc::ClusterConfig{1, 4096}, nullptr);
  const EmbeddedPeelingResult embedded =
      embedded_threshold_peeling(g, 2, cluster, 100);
  EXPECT_TRUE(embedded.complete);
  const PeelingResult reference = peel_by_threshold(g, 2, 100);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(embedded.layer[v], reference.layer[v]);
}

TEST(EmbeddedPeeling, EmptyGraph) {
  const Graph g = graph::GraphBuilder(0).build();
  mpc::Cluster cluster(mpc::ClusterConfig{2, 64}, nullptr);
  const EmbeddedPeelingResult embedded =
      embedded_threshold_peeling(g, 2, cluster, 10);
  EXPECT_TRUE(embedded.complete);
  EXPECT_EQ(embedded.cluster_rounds, 0u);
}

// The host-machine index is one multiply-high; it must equal the division
// it replaces for every 32-bit vertex id, including the fallback divisors
// (d = 1) and the largest 32-bit ones.
TEST(MachineIndex, EqualsDivisionForEvery32BitId) {
  constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint32_t>::max();
  const std::array<std::uint64_t, 10> divisors = {
      1, 2, 3, 7, 64, 2048, 2049, 65535, (std::uint64_t{1} << 31) + 1, kMaxId};
  util::SplitRng rng(5);
  for (const std::uint64_t d : divisors) {
    const MachineIndex machine_of(d);
    for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, d - 1,
                                  d, d + 1, kMaxId}) {
      if (v > kMaxId) continue;
      EXPECT_EQ(machine_of(static_cast<std::uint32_t>(v)), v / d)
          << "v = " << v << ", d = " << d;
    }
    std::size_t wrong = 0;
    for (int i = 0; i < 100'000; ++i) {
      const std::uint64_t v = rng.next_below(kMaxId + 1);
      if (machine_of(static_cast<std::uint32_t>(v)) != v / d && wrong++ == 0)
        ADD_FAILURE() << "v = " << v << ", d = " << d;
    }
    EXPECT_EQ(wrong, 0u) << "d = " << d;
  }
}

// Block assignment from one machine hosting every vertex down to one vertex
// per machine (and past it: idle machines), n prime so no count but 1 and n
// divides it, on both executors. The calls share this thread's reused
// outboxes while the machine count changes under them.
TEST(EmbeddedPeeling, MatchesReferenceAcrossMachineCounts) {
  constexpr std::size_t kN = 997;
  util::SplitRng rng(6);
  const std::array<Graph, 2> graphs = {graph::gnm(kN, 4 * kN, rng),
                                       graph::barabasi_albert(kN, 4, rng)};
  const std::array<std::size_t, 2> thresholds = {9, 5};
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const PeelingResult reference =
        peel_by_threshold(g, thresholds[gi], 100);
    ASSERT_TRUE(reference.complete) << "graph " << gi;
    for (const mpc::ExecutionPolicy& policy :
         {mpc::ExecutionPolicy::serial(), mpc::ExecutionPolicy::parallel(4)}) {
      for (const std::size_t machines :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{10},
            std::size_t{64}, std::size_t{500}, kN, std::size_t{1200},
            std::size_t{7}}) {
        mpc::ClusterConfig cfg{machines, 1 << 16};
        cfg.execution = policy;
        mpc::Cluster cluster(cfg, nullptr);
        const EmbeddedPeelingResult embedded =
            embedded_threshold_peeling(g, thresholds[gi], cluster, 100);
        ASSERT_TRUE(embedded.complete) << "graph " << gi << ", " << machines;
        EXPECT_EQ(embedded.layer, reference.layer)
            << "graph " << gi << ", " << machines << " machines";
        EXPECT_EQ(embedded.num_layers, reference.num_layers);
        EXPECT_EQ(embedded.cluster_rounds, reference.rounds)
            << "graph " << gi << ", " << machines << " machines";
      }
    }
  }
}

// The worker rebuilds its block from words off the wire: a neighbour that
// is not a vertex id, or a row shorter than its length, is rejected by name
// instead of indexing degree/layer or an outbox out of range.
net::WorkerProgram build_peel_worker(std::vector<Word> machine0_input) {
  net::ProgramInputs in;
  in.machines = 2;  // n = 4: machine 0 hosts vertices 0 and 1
  in.capacity = 256;
  in.block_begin = 0;
  in.block_end = 1;
  in.scalars = {4, 2};
  in.inputs = {std::move(machine0_input)};
  return net::Registry::builtin().find("local.embedded_peeling")(in);
}

TEST(EmbeddedPeeling, WorkerRejectsHostilePeelInputByName) {
  EXPECT_NO_THROW(build_peel_worker({1, 1, 2, 0, 3}));
  expect_rejected([] { build_peel_worker({1, 4, 1, 0}); },
                  "peel-input neighbour 4 of vertex 0 is not a vertex id");
  expect_rejected(
      [] { build_peel_worker({1, Word{1} << 32, 1, 0}); },
      "peel-input neighbour 4294967296 of vertex 0 is not a vertex id");
  expect_rejected([] { build_peel_worker({2, 1}); },
                  "truncated peel-input frame");
}

TEST(EmbeddedPeeling, NotificationOutsideTheMachineRejectedByName) {
  net::WorkerProgram worker = build_peel_worker({1, 1, 2, 0, 3});
  ASSERT_EQ(worker.program.steps.size(), 1u);
  worker.on_continue();  // pass 2: the step reads its inbox
  engine::Outbox outbox;
  engine::Sender send(0, 256, 2, outbox);
  engine::Inbox inbox;
  const std::array<Word, 1> mine = {1};
  inbox.append(mine);
  EXPECT_NO_THROW(
      worker.program.steps[0].fn(0, engine::InboxView(inbox), send));
  for (const Word stray : {Word{2}, Word{1} << 32}) {
    inbox.clear();
    const std::array<Word, 1> payload = {stray};
    inbox.append(payload);
    expect_rejected(
        [&] { worker.program.steps[0].fn(0, engine::InboxView(inbox), send); },
        "peel notification " + std::to_string(stray) +
            " is not a vertex of machine 0 [0, 2)");
  }
}

}  // namespace
}  // namespace arbor::local
