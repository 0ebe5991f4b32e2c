// Central-vs-distributed Level-1 equivalence: with
// ClusterConfig::distributed_level1 the keyed primitives execute as real
// engine-backed sample sorts, and everything downstream — pipeline outputs
// AND ledger round totals — must be bit-identical to the central reference
// path, under both the serial executor and parallel(4).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/coloring_mpc.hpp"
#include "core/layering_pipeline.hpp"
#include "core/orientation_mpc.hpp"
#include "graph/generators.hpp"
#include "mpc/ledger.hpp"
#include "mpc/primitives.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace arbor {
namespace {

using mpc::ClusterConfig;
using mpc::MpcContext;
using mpc::RoundLedger;
using mpc::Word;

ClusterConfig config_for(const graph::Graph& g, bool distributed,
                         engine::ExecutionPolicy policy = {}) {
  ClusterConfig cfg =
      ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), 0.6);
  cfg.distributed_level1 = distributed;
  cfg.execution = policy;
  return cfg;
}

void expect_ledgers_identical(const RoundLedger& a, const RoundLedger& b) {
  EXPECT_EQ(a.total_rounds(), b.total_rounds());
  EXPECT_EQ(a.rounds_by_label(), b.rounds_by_label());
  EXPECT_EQ(a.peak_local_words(), b.peak_local_words());
  EXPECT_EQ(a.peak_global_words(), b.peak_global_words());
  EXPECT_EQ(a.peak_round_traffic(), b.peak_round_traffic());
  EXPECT_EQ(a.local_violations(), b.local_violations());
}

// ------------------------------------------------------------- primitives

TEST(DistributedSort, MatchesCentralStableSortIncludingTies) {
  util::SplitRng rng(41);
  // Heavily duplicated keys: stability is the hard part.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> items;
  for (std::size_t i = 0; i < 20000; ++i)
    items.emplace_back(static_cast<std::uint32_t>(rng.next_below(64)), i);

  auto central = items;
  ClusterConfig cfg{64, 4096};
  cfg.distributed_level1 = false;
  RoundLedger central_ledger(cfg);
  MpcContext central_ctx(cfg, &central_ledger);
  central_ctx.sort_items_by_key(
      central, [](const auto& kv) { return MpcContext::word_key(kv.first); },
      2, "sort");

  for (const bool parallel : {false, true}) {
    auto distributed = items;
    ClusterConfig dcfg = cfg;
    dcfg.distributed_level1 = true;
    if (parallel) dcfg.execution = engine::ExecutionPolicy::parallel(4);
    RoundLedger ledger(dcfg);
    MpcContext ctx(dcfg, &ledger);
    ctx.sort_items_by_key(
        distributed,
        [](const auto& kv) { return MpcContext::word_key(kv.first); }, 2,
        "sort");
    EXPECT_EQ(distributed, central) << "parallel=" << parallel;
    expect_ledgers_identical(ledger, central_ledger);
  }
}

TEST(DistributedSort, SignedKeysOrderPreserved) {
  std::vector<int> items{5, -3, 0, -3, 17, -100, 5};
  ClusterConfig cfg{8, 1024};
  cfg.distributed_level1 = true;
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  ctx.sort_items_by_key(
      items, [](int v) { return MpcContext::word_key(v); }, 1, "sort");
  EXPECT_EQ(items, (std::vector<int>{-100, -3, -3, 0, 5, 5, 17}));
}

TEST(DistributedSort, SingleItemAndEmpty) {
  ClusterConfig cfg{4, 512};
  cfg.distributed_level1 = true;
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  std::vector<std::uint64_t> empty;
  ctx.sort_items_by_key(
      empty, [](std::uint64_t v) { return v; }, 1, "sort");
  EXPECT_TRUE(empty.empty());
  std::vector<std::uint64_t> one{7};
  ctx.sort_items_by_key(one, [](std::uint64_t v) { return v; }, 1, "sort");
  EXPECT_EQ(one, (std::vector<std::uint64_t>{7}));
}

TEST(DistributedAggregate, MatchesCentral) {
  util::SplitRng rng(7);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> items;
  for (std::size_t i = 0; i < 5000; ++i)
    items.emplace_back(static_cast<std::uint32_t>(rng.next_below(100)),
                       rng.next_below(1000));
  const auto combine = [](std::uint64_t a, std::uint64_t b) { return a + b; };

  ClusterConfig cfg{64, 4096};
  cfg.distributed_level1 = false;
  RoundLedger central_ledger(cfg);
  MpcContext central_ctx(cfg, &central_ledger);
  const auto central = central_ctx.aggregate_by_key<std::uint32_t,
                                                    std::uint64_t>(
      items, combine, 2, "agg");

  ClusterConfig dcfg = cfg;
  dcfg.distributed_level1 = true;
  RoundLedger ledger(dcfg);
  MpcContext ctx(dcfg, &ledger);
  const auto distributed =
      ctx.aggregate_by_key<std::uint32_t, std::uint64_t>(items, combine, 2,
                                                         "agg");
  EXPECT_EQ(distributed, central);
  expect_ledgers_identical(ledger, central_ledger);
}

TEST(DistributedCount, MatchesCentral) {
  util::SplitRng rng(13);
  std::vector<std::uint32_t> keys;
  for (std::size_t i = 0; i < 3000; ++i)
    keys.push_back(static_cast<std::uint32_t>(rng.next_below(40)));

  ClusterConfig cfg{32, 2048};
  cfg.distributed_level1 = false;
  RoundLedger central_ledger(cfg);
  MpcContext central_ctx(cfg, &central_ledger);
  const auto central = central_ctx.count_by_key<std::uint32_t>(keys, "count");

  ClusterConfig dcfg = cfg;
  dcfg.distributed_level1 = true;
  RoundLedger ledger(dcfg);
  MpcContext ctx(dcfg, &ledger);
  const auto distributed = ctx.count_by_key<std::uint32_t>(keys, "count");
  EXPECT_EQ(distributed, central);
  expect_ledgers_identical(ledger, central_ledger);
}

// The internal sort cluster is no longer an unledgered execution vehicle:
// its real rounds are charged to the context's model-shaped grounding
// ledger under the splitter-tree step labels, and the executed dataflow
// honours the model's S-cap (no violations, peak traffic ≤ S) — while the
// primary ledger keeps the analytic charge, bit-identical to central
// (asserted by every expect_ledgers_identical above).
TEST(DistributedSort, InternalSortChargedToModelShapedGroundingLedger) {
  util::SplitRng rng(51);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> items;
  for (std::size_t i = 0; i < 20000; ++i)
    items.emplace_back(static_cast<std::uint32_t>(rng.next_below(512)), i);

  ClusterConfig cfg{64, 4096};
  cfg.distributed_level1 = true;
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  ctx.sort_items_by_key(
      items, [](const auto& kv) { return MpcContext::word_key(kv.first); },
      2, "sort");

  RoundLedger* grounding = ctx.level1_sort_grounding();
  // One tree record sort: 2 up + 1 pick + 1 down + 2 route + 1 bucket sort.
  EXPECT_EQ(grounding->total_rounds(), 7u);
  const auto& labels = grounding->rounds_by_label();
  EXPECT_EQ(labels.at("sample_sort.tree.up"), 2u);
  EXPECT_EQ(labels.at("sample_sort.tree.pick"), 1u);
  EXPECT_EQ(labels.at("sample_sort.tree.down"), 1u);
  EXPECT_EQ(labels.at("sample_sort.tree.route"), 2u);
  EXPECT_EQ(labels.at("sample_sort.tree.sort"), 1u);
  // Under the model's S-cap, not a widened one.
  EXPECT_EQ(grounding->local_violations(), 0u);
  EXPECT_LE(grounding->peak_round_traffic(), cfg.words_per_machine);
  EXPECT_GT(grounding->peak_round_traffic(), 0u);
  // The splitter rounds are far below the cap (they are O(√p·s) words).
  const auto& peaks = grounding->peak_traffic_by_label();
  EXPECT_LE(peaks.at("sample_sort.tree.pick"), cfg.words_per_machine / 4);
}

// The distributed Level-1 sorts also run over the multi-process transport:
// the context pools an internal sort cluster with its own worker group
// (machine counts are data-dependent, so the shared engine's backend
// cannot serve them) and stays bit-identical to the central path.
TEST(DistributedSort, MatchesCentralOverLoopbackTransport) {
  util::SplitRng rng(52);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> items;
  for (std::size_t i = 0; i < 20000; ++i)
    items.emplace_back(static_cast<std::uint32_t>(rng.next_below(64)), i);

  auto central = items;
  ClusterConfig cfg{64, 4096};
  cfg.distributed_level1 = false;
  cfg.transport = mpc::TransportConfig{};
  RoundLedger central_ledger(cfg);
  MpcContext central_ctx(cfg, &central_ledger);
  central_ctx.sort_items_by_key(
      central, [](const auto& kv) { return MpcContext::word_key(kv.first); },
      2, "sort");

  auto distributed = items;
  ClusterConfig dcfg = cfg;
  dcfg.distributed_level1 = true;
  dcfg.transport = mpc::TransportConfig::loopback(2);
  RoundLedger ledger(dcfg);
  MpcContext ctx(dcfg, &ledger);
  ctx.sort_items_by_key(
      distributed,
      [](const auto& kv) { return MpcContext::word_key(kv.first); }, 2,
      "sort");
  EXPECT_EQ(distributed, central);
  expect_ledgers_identical(ledger, central_ledger);
  EXPECT_EQ(ctx.level1_sort_grounding()->total_rounds(), 7u);
}

// One MpcContext pools its internal sort clusters: the same Level-1 sort
// run 5× reuses the first sort's cluster — RoundState arenas at retained
// capacity (engine.arena_reuse_hits counts the reuses) and, over the
// loopback transport, one worker group for all five sorts
// (net.worker_groups_spawned stays at 1) — with bit-identical outputs
// every repetition.
TEST(DistributedSortPooling, ReusesArenasAndWorkerGroupAcrossSorts) {
  trace::Tracer& tracer = trace::Tracer::global();
  trace::ScopedMode guard(tracer, tracer.mode());
  tracer.clear();

  util::SplitRng rng(61);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> items;
  for (std::size_t i = 0; i < 20000; ++i)
    items.emplace_back(static_cast<std::uint32_t>(rng.next_below(64)), i);

  auto expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  ClusterConfig cfg{64, 4096};
  cfg.distributed_level1 = true;
  cfg.transport = mpc::TransportConfig::loopback(2);
  cfg.trace = trace::TraceConfig{trace::Mode::kFull, ""};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  for (int rep = 0; rep < 5; ++rep) {
    auto sorted = items;
    ctx.sort_items_by_key(
        sorted, [](const auto& kv) { return MpcContext::word_key(kv.first); },
        2, "sort");
    EXPECT_EQ(sorted, expected) << "rep " << rep;
  }

  const auto hits = tracer.metrics().counter("engine.arena_reuse_hits");
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(*hits, 4u);  // sorts 2..5 hit the slot sort 1 created
  const auto spawns = tracer.metrics().counter("net.worker_groups_spawned");
  ASSERT_TRUE(spawns.has_value());
  EXPECT_EQ(*spawns, 1u);  // one worker group served every sort
  // Grounding sees all five sorts, 7 rounds each, identically charged.
  EXPECT_EQ(ctx.level1_sort_grounding()->total_rounds(), 35u);
  tracer.clear();
}

// Pooling must not leak state between sorts of the same shape but
// different contents: alternating inputs through one context matches the
// central path on every repetition (a stale inbox or arena would corrupt
// the second sort's buckets).
TEST(DistributedSortPooling, AlternatingInputsStayIndependent) {
  util::SplitRng rng(62);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> a, b;
  for (std::size_t i = 0; i < 20000; ++i) {
    a.emplace_back(static_cast<std::uint32_t>(rng.next_below(64)), i);
    b.emplace_back(static_cast<std::uint32_t>(63 - rng.next_below(64)), i);
  }
  const auto key = [](const auto& kv) {
    return MpcContext::word_key(kv.first);
  };
  const auto central_sorted = [&](auto items) {
    std::stable_sort(items.begin(), items.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    return items;
  };
  const auto expected_a = central_sorted(a);
  const auto expected_b = central_sorted(b);

  ClusterConfig cfg{64, 4096};
  cfg.distributed_level1 = true;
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  for (int rep = 0; rep < 3; ++rep) {
    auto sa = a;
    ctx.sort_items_by_key(sa, key, 2, "sort");
    EXPECT_EQ(sa, expected_a) << "rep " << rep;
    auto sb = b;
    ctx.sort_items_by_key(sb, key, 2, "sort");
    EXPECT_EQ(sb, expected_b) << "rep " << rep;
  }
}

// The pooled slot recycles the previous sort's result slabs as the next
// sort's input arenas. Same-shape sorts of different lengths (longer,
// shorter, longer: 8 machines either way, capacity fixed by the model's S)
// must each match std::stable_sort — a record that survives a recycled
// arena from the sort before would show up as an extra or stale item —
// in process and over the loopback transport, with every later sort
// hitting the slot the first one created.
TEST(DistributedSortPooling, RecycledSlabArenasStayIndependent) {
  trace::Tracer& tracer = trace::Tracer::global();
  trace::ScopedMode guard(tracer, tracer.mode());
  const auto key = [](const auto& kv) {
    return MpcContext::word_key(kv.first);
  };
  for (const bool loopback : {false, true}) {
    tracer.clear();
    ClusterConfig cfg{8, 65536};
    cfg.distributed_level1 = true;
    if (loopback) cfg.transport = mpc::TransportConfig::loopback(2);
    cfg.trace = trace::TraceConfig{trace::Mode::kFull, ""};
    RoundLedger ledger(cfg);
    MpcContext ctx(cfg, &ledger);
    std::uint64_t seed = 71;
    for (const std::size_t n : {24000u, 16000u, 24000u}) {
      util::SplitRng rng(seed++);
      std::vector<std::pair<std::uint32_t, std::uint64_t>> items;
      for (std::size_t i = 0; i < n; ++i)
        items.emplace_back(static_cast<std::uint32_t>(rng.next_below(500)),
                           rng.next_below(1u << 30));
      auto expected = items;
      std::stable_sort(expected.begin(), expected.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      ctx.sort_items_by_key(items, key, 2, "sort");
      EXPECT_EQ(items, expected) << "n=" << n << " loopback=" << loopback;
    }
    const auto hits = tracer.metrics().counter("engine.arena_reuse_hits");
    ASSERT_TRUE(hits.has_value()) << "loopback=" << loopback;
    EXPECT_EQ(*hits, 2u) << "loopback=" << loopback;
  }
  tracer.clear();
}

TEST(MpcContext, DivCeilRejectsZeroDivisor) {
  EXPECT_THROW(MpcContext::div_ceil(5, 0), arbor::InvariantError);
  EXPECT_EQ(MpcContext::div_ceil(0, 3), 0u);
  EXPECT_EQ(MpcContext::div_ceil(7, 3), 3u);
}

TEST(MpcContext, EnsureEngineIsSharedAndLazy) {
  ClusterConfig cfg{8, 1024};
  MpcContext ctx(cfg, nullptr);
  EXPECT_EQ(ctx.engine(), nullptr);  // lazy: nothing built yet
  engine::Engine* built = ctx.ensure_engine();
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(ctx.ensure_engine(), built);  // same engine on every call
  EXPECT_EQ(ctx.engine(), built);

  engine::Engine external(engine::ExecutionPolicy::serial());
  MpcContext injected(cfg, nullptr, &external);
  EXPECT_EQ(injected.ensure_engine(), &external);  // injected wins
}

// -------------------------------------------------- full-pipeline equivalence

// The layering and coloring pipelines must produce identical outputs and
// ledger totals with distributed_level1 on (serial and parallel(4)) vs.
// off, across several generator seeds.

struct PolicyCase {
  bool distributed;
  engine::ExecutionPolicy policy;
  const char* name;
};

const PolicyCase kDistributedCases[] = {
    {true, engine::ExecutionPolicy::serial(), "distributed/serial"},
    {true, engine::ExecutionPolicy::parallel(4), "distributed/parallel(4)"},
};

TEST(PipelineEquivalence, CompleteLayeringIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::SplitRng rng(seed);
    const graph::Graph g = graph::gnm(400, 1600, rng);
    const core::PipelineParams params = core::PipelineParams::practical(4);

    RoundLedger central_ledger(config_for(g, false));
    MpcContext central_ctx(config_for(g, false), &central_ledger);
    const core::CompleteLayeringResult central =
        core::complete_layering(g, params, central_ctx);

    for (const PolicyCase& c : kDistributedCases) {
      RoundLedger ledger(config_for(g, c.distributed, c.policy));
      MpcContext ctx(config_for(g, c.distributed, c.policy), &ledger);
      const core::CompleteLayeringResult result =
          core::complete_layering(g, params, ctx);
      EXPECT_EQ(result.assignment.layer, central.assignment.layer)
          << c.name << " seed " << seed;
      EXPECT_EQ(result.assignment.num_layers, central.assignment.num_layers);
      EXPECT_EQ(result.outdegree_bound, central.outdegree_bound);
      expect_ledgers_identical(ledger, central_ledger);
    }
  }
}

TEST(PipelineEquivalence, MpcColoringIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    util::SplitRng rng(seed);
    const graph::Graph g = graph::gnm(300, 1200, rng);
    core::ColoringParams params;
    params.pipeline = core::PipelineParams::practical(4);

    RoundLedger central_ledger(config_for(g, false));
    MpcContext central_ctx(config_for(g, false), &central_ledger);
    const core::MpcColoringResult central =
        core::mpc_color(g, params, central_ctx);

    for (const PolicyCase& c : kDistributedCases) {
      RoundLedger ledger(config_for(g, c.distributed, c.policy));
      MpcContext ctx(config_for(g, c.distributed, c.policy), &ledger);
      const core::MpcColoringResult result = core::mpc_color(g, params, ctx);
      EXPECT_EQ(result.colors, central.colors) << c.name << " seed " << seed;
      EXPECT_EQ(result.palette_size, central.palette_size);
      EXPECT_EQ(result.layering_outdegree, central.layering_outdegree);
      EXPECT_EQ(result.blocks, central.blocks);
      expect_ledgers_identical(ledger, central_ledger);
    }
  }
}

TEST(PipelineEquivalence, MpcOrientationIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    util::SplitRng rng(seed);
    const graph::Graph g = graph::gnm(350, 1400, rng);
    core::OrientationParams params;
    params.pipeline = core::PipelineParams::practical(4);

    RoundLedger central_ledger(config_for(g, false));
    MpcContext central_ctx(config_for(g, false), &central_ledger);
    const core::MpcOrientationResult central =
        core::mpc_orient(g, params, central_ctx);

    for (const PolicyCase& c : kDistributedCases) {
      RoundLedger ledger(config_for(g, c.distributed, c.policy));
      MpcContext ctx(config_for(g, c.distributed, c.policy), &ledger);
      const core::MpcOrientationResult result =
          core::mpc_orient(g, params, ctx);
      for (std::size_t e = 0; e < g.num_edges(); ++e)
        ASSERT_EQ(result.orientation.oriented_towards_v(e),
                  central.orientation.oriented_towards_v(e))
            << c.name << " seed " << seed << " edge " << e;
      EXPECT_EQ(result.layering.layer, central.layering.layer);
      EXPECT_EQ(result.outdegree_bound, central.outdegree_bound);
      expect_ledgers_identical(ledger, central_ledger);
    }
  }
}

}  // namespace
}  // namespace arbor
